"""Command line front end.

Verbs take a group type string ("A4", "B2xB2", "I2(7)") and, where needed,
an element given as a simple word (``-w "0 1 0"`` or ``-w "s0 s1 s0"``), a
reflection word (``-r "t0 t5 (s1 s2 s1)"``), or a signed cycle form for
types B and D (``-c "(1,-2,-1,2)(3,4,-3,-4)"``).  Output is deterministic;
``--json`` switches every verb to a single JSON document on stdout.

Only the enumerating verbs (``reds``, ``orbits``, ``cycledec``, ``indec``)
take ``--cap`` and read ``DUALCOX_CAP``; the others enumerate nothing, so
they refuse the flag and ignore the variable.

Exit codes: 0 on success, 1 on domain errors (caps, model limits, failed
verification), 2 on usage errors (unparseable types, words or flags).  A
reader that closes the output early (``dualcox reds E6 -w "0 1 2 3 4 5" |
head -1``) ends the run quietly with exit code 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import cycles, dual, hurwitz, permmodel, subgroups, suites
from .coxeter import (
    CoxeterDescriptor,
    build_group,
    classical_order,
    classical_root_count,
    element_from_refl_word,
    element_from_simple_word,
)
from .errors import DualcoxError, UnsupportedTypeError, WordParseError
from .limits import DEFAULT_ENUM_CAP, DEFAULT_RED_CAP, MAX_INFO_RANK, read_int, requested_cap

_LETTER_INDEX = {"s": 0, "t": 1, "u": 2, "v": 3}


def parse_simple_word(g, text: str):
    """Simple word: whitespace- or ``*``-separated indices or generator names."""
    word = []
    pos = 0
    for token in re.split(r"[\s*]+", text.strip()):
        if not token:
            continue
        at = text.find(token, pos)
        digits = token.removeprefix("s")
        if digits.isdecimal():
            idx = read_int(digits, WordParseError, at)
        elif token in _LETTER_INDEX:
            idx = _LETTER_INDEX[token]
        else:
            raise WordParseError(f"bad simple-word token {token!r}", position=at)
        if idx >= g.rank:
            raise WordParseError(
                f"simple index {idx} out of range for {g.type_string}", position=at
            )
        word.append(idx)
        pos = at + len(token)
    return word


def parse_refl_word(g, text: str):
    """Reflection word: ``t<k>`` letters and parenthesized simple words."""
    word = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace() or ch == "*":
            pos += 1
            continue
        if ch == "t":
            m = re.match(r"t(\d+)", text[pos:])
            if m is None:
                raise WordParseError("expected t<k> reflection letter", position=pos)
            k = read_int(m.group(1), WordParseError, pos)
            if k >= g.n_reflections:
                raise WordParseError(
                    f"reflection index {k} out of range for {g.type_string}",
                    position=pos,
                )
            word.append(k)
            pos += m.end()
            continue
        if ch == "(":
            end = text.find(")", pos)
            if end < 0:
                raise WordParseError("unbalanced parenthesis", position=pos)
            try:
                inner = parse_simple_word(g, text[pos + 1 : end])
            except WordParseError as exc:  # count positions from the start
                raise WordParseError(exc.reason, position=pos + 1 + exc.position) from None
            elt = element_from_simple_word(g, inner)
            t = g.reflection_index(elt)
            if t is None:
                raise WordParseError(
                    f"parenthesized word {text[pos:end + 1]!r} is not a reflection",
                    position=pos,
                )
            word.append(t)
            pos = end + 1
            continue
        raise WordParseError(f"unexpected character {ch!r} in reflection word",
                             position=pos)
    return word


def _element_from_args(g, args):
    given = [v for v in (args.word, args.reflections, args.cycle_form) if v is not None]
    if len(given) != 1:
        raise WordParseError(
            "give the element exactly once, with -w, -r or -c"
        )
    if args.word is not None:
        return element_from_simple_word(g, parse_simple_word(g, args.word))
    if args.reflections is not None:
        return element_from_refl_word(g, parse_refl_word(g, args.reflections))
    components = g.descriptor.components
    if len(components) != 1 or components[0][0] not in ("B", "D"):
        raise WordParseError("signed cycle input requires a type B or D group")
    cycles_list = permmodel.parse_cycles(args.cycle_form)
    try:
        sp = permmodel.signed_from_cycles(g.ambient_dim, cycles_list)
        return permmodel.element_from_signed(g, sp)
    except WordParseError:
        raise
    except ValueError as exc:
        # semantic failures (odd sign count in type D, and the like)
        raise DualcoxError(str(exc)) from exc


# -- JSON builders -------------------------------------------------------


def subgroup_json(sub):
    return {
        "rank": sub.rank,
        "type": sub.type_string,
        "canonical_gens": sorted(sub.canonical_gens),
        "reflections": sorted(sub.refl_set),
        "parabolic": subgroups.is_parabolic(sub),
    }


def _element_json(x):
    return list(x.s_word())


def _factor_json(f, closure):
    return {
        "s_word": _element_json(f),
        "reflen": dual.reflection_length(f),
        "closure": subgroup_json(closure),
    }


def _decomposition_json(dec):
    return {
        "element": _element_json(dec.element),
        "ambient": subgroup_json(dec.ambient),
        "factors": [
            _factor_json(f, c) for f, c in zip(dec.factors, dec.factor_closures)
        ],
    }


def _emit(args, document, text_lines):
    if args.json:
        print(json.dumps(document, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _word_text(word) -> str:
    """A reflection word as ``t<k>`` letters; the empty word prints as ``e``."""
    return " ".join(f"t{t}" for t in word) or "e"


def _orbit_dot(g, orbits, path):
    """Orbit graph in DOT form: words as vertices, moves as labeled edges."""
    lines = ["graph hurwitz {"]
    for orbit in orbits:
        index = {w: i for i, w in enumerate(orbit.members)}
        for w in orbit.members:
            lines.append(f'  "{_word_text(w)}";')
        seen = set()
        for w in orbit.members:
            for i in range(1, len(w)):
                moved = hurwitz.hurwitz_move(g, w, i)
                edge = tuple(sorted((index[w], index[moved])))
                if moved != w and edge not in seen:
                    seen.add(edge)
                    a, b = _word_text(w), _word_text(moved)
                    lines.append(f'  "{a}" -- "{b}" [label="sigma_{i}"];')
    lines.append("}")
    try:
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DualcoxError(f"cannot write the orbit graph to {path}: {exc.strerror}") from exc


# -- verbs ----------------------------------------------------------------


def _cmd_info(args):
    descriptor = CoxeterDescriptor.parse(args.group)
    if descriptor.rank > MAX_INFO_RANK:
        raise DualcoxError(f"the type has rank {descriptor.rank}; info is limited "
                           f"to rank {MAX_INFO_RANK}")
    if args.roots and descriptor.is_dihedral_model:
        raise DualcoxError(
            f"{descriptor} uses the combinatorial dihedral model; "
            "it has no root coordinates"
        )
    doc = {
        "type": str(descriptor),
        "rank": descriptor.rank,
        "n_pos_roots": classical_root_count(descriptor),
        "order": classical_order(descriptor),
    }
    lines = [
        f"type: {doc['type']}",
        f"rank: {doc['rank']}",
        f"positive roots: {doc['n_pos_roots']}",
        f"order: {doc['order']}",
    ]
    if args.roots:
        g = build_group(descriptor)
        doc["positive_roots"] = [[str(c) for c in root] for root in g.roots]
        lines.append("positive roots (coordinates):")
        lines.extend(
            "  t%d: (%s)" % (i, ", ".join(str(c) for c in root))
            for i, root in enumerate(g.roots)
        )
    _emit(args, doc, lines)
    return 0


def _cmd_reflen(g, x, args):
    k = dual.reflection_length(x)
    return {"reflen": k}, [str(k)]


def _cmd_closure(g, x, args):
    sub = dual.parabolic_closure(x)
    doc = {
        "reflen": dual.reflection_length(x),
        "closure": subgroup_json(sub),
    }
    lines = [
        f"reflection length: {doc['reflen']}",
        f"parabolic closure: type {sub.type_string}, rank {sub.rank}, "
        f"reflections {sorted(sub.refl_set)}",
    ]
    return doc, lines


def _cmd_reds(g, x, args):
    if args.count:
        n = dual.count_reduced(x, cap=args.enum_cap)
        return {"n_reds": n}, [str(n)]
    red = dual.reduced_expressions(x, cap=args.red_cap)
    doc = {
        "n_reds": len(red.words),
        "truncated": red.truncated,
        "words": [list(w) for w in red.words],
    }
    lines = [_word_text(w) for w in red.words]
    if red.truncated:
        lines.append(f"(truncated at {args.red_cap}; raise --cap)")
    return doc, lines


def _cmd_orbits(g, x, args):
    if args.dot:
        orbits = hurwitz.hurwitz_orbits(x, cap=args.red_cap)
    else:
        orbits = hurwitz.orbit_search(x, cap=args.enum_cap)
    doc = {
        "n_reds": sum(o.size for o in orbits),
        "orbits": [],
    }
    lines = [f"{len(orbits)} orbit(s) on {doc['n_reds']} reduced words"]
    for o in orbits:
        entry = {"size": o.size, "rep": list(o.representative)}
        line = f"  size {o.size}, representative {_word_text(o.representative)}"
        if args.with_subgroups:
            entry["subgroup"] = subgroup_json(o.subgroup)
            line += f", generates {o.subgroup.type_string}"
        doc["orbits"].append(entry)
        lines.append(line)
    if args.dot:
        _orbit_dot(g, orbits, args.dot)
        lines.append(f"orbit graph written to {args.dot}")
    return doc, lines


def _cmd_cycledec(g, x, args):
    if args.all_orbits:
        report = cycles.all_decompositions(x, cap=args.enum_cap)
        doc = {
            "entries": [
                {
                    "orbit": {"size": o.size, "rep": list(o.representative)},
                    "decomposition": _decomposition_json(dec),
                }
                for o, dec in report.entries
            ],
            "equal_factor_pairs": [list(p) for p in report.equal_factor_pairs],
            "closure_sets_distinct": report.closure_sets_distinct,
        }
        lines = [f"{len(report.entries)} orbit(s)"]
        for i, (o, dec) in enumerate(report.entries):
            lines.append(
                f"  orbit {i} (size {o.size}) in {dec.ambient.type_string}: "
                + " | ".join(
                    " ".join(map(str, f.s_word())) or "e" for f in dec.factors
                )
            )
        if report.equal_factor_pairs:
            lines.append(
                "equal factor multisets across orbits: "
                + ", ".join(f"{i}~{j}" for i, j in report.equal_factor_pairs)
            )
        return doc, lines
    dec = cycles.cycle_decomposition(x)
    doc = _decomposition_json(dec)
    lines = [f"{len(dec.factors)} factor(s)"]
    for f, c in zip(dec.factors, dec.factor_closures):
        word = " ".join(map(str, f.s_word())) or "e"
        lines.append(
            f"  [{word}] reflen {dual.reflection_length(f)} in {c.type_string}"
        )
    if args.check:
        report = cycles.verify_decomposition(x, dec.factors, cap=args.enum_cap)
        doc["verification"] = {
            "passed": report.passed,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in report.checks
            ],
        }
        lines.extend(
            f"  {'PASS' if ok else 'FAIL'} {name}" for name, ok, _ in report.checks
        )
    return doc, lines


def _cmd_indec(g, x, args):
    value = cycles.is_indecomposable(x, cap=args.enum_cap)
    return {"indecomposable": value}, ["indecomposable" if value else "decomposable"]


def _cmd_perm(g, x, args):
    family = g.descriptor.components[0][0] if len(g.descriptor.components) == 1 else ""
    if family == "A":
        p = permmodel.to_permutation(x)
        text = permmodel.cycles_str(permmodel.classical_cycles(p))
        doc = {
            "model": "permutation",
            "images": list(p.images),
            "cycles": text,
        }
    elif family in ("B", "D"):
        sp = permmodel.to_signed(x)
        text = permmodel.cycles_str(permmodel.signed_cycles(sp))
        doc = {
            "model": "signed",
            "window": list(sp.window),
            "cycles": text,
        }
    else:
        raise DualcoxError(
            f"{g.type_string} has no permutation model; use types A, B or D"
        )
    return doc, [text]


def _cmd_verify(args):
    checks = suites.run_suite(args.suite)
    passed = all(c.ok for c in checks)
    doc = {
        "suite": args.suite,
        "passed": passed,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
        ],
    }
    lines = [
        f"{'PASS' if c.ok else 'FAIL'}  {c.name}" + (f"  [{c.detail}]" if c.detail else "")
        for c in checks
    ]
    lines.append(f"{sum(c.ok for c in checks)}/{len(checks)} checks passed")
    _emit(args, doc, lines)
    return 0 if passed else 1


# -- argument parsing ------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualcox",
        description="Exact computations in finite Coxeter groups generated by reflections.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def add(name, func, help_text, element=False, cap=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("group", help='type string, e.g. "A4", "B2xB2", "I2(7)"')
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if cap:
            p.add_argument("--cap", default=None,
                           help="enumeration cap (also via DUALCOX_CAP)")
        if element:
            p.add_argument("-w", "--word", default=None,
                           help='simple word, e.g. "0 1 0" or "s0 s1 s0"')
            p.add_argument("-r", "--reflections", dest="reflections", default=None,
                           help='reflection word, e.g. "t0 t5 (s1 s2 s1)"')
            p.add_argument("-c", "--cycles", dest="cycle_form", default=None,
                           help='signed cycle form for types B/D, e.g. "(1,-2)(3,4)"')
        return p

    add("info", _cmd_info, "group facts: type, rank, roots, order").add_argument(
        "--roots", action="store_true", help="include positive root coordinates"
    )
    add("reflen", _cmd_reflen, "reflection length of an element", element=True)
    add("closure", _cmd_closure, "parabolic closure of an element", element=True)
    reds = add("reds", _cmd_reds, "all reduced reflection words",
               element=True, cap=True)
    reds.add_argument("--count", action="store_true",
                      help="print only the number of words, counted without "
                      "listing them (--cap then bounds the elements below w)")
    orbits = add("orbits", _cmd_orbits, "Hurwitz orbits on the reduced words",
                 element=True, cap=True)
    orbits.add_argument("--with-subgroups", action="store_true",
                        help="include the subgroup each orbit generates")
    orbits.add_argument("--dot", metavar="FILE", default=None,
                        help="write the orbit graph in DOT format")
    cyc = add("cycledec", _cmd_cycledec, "commuting cycle decomposition",
              element=True, cap=True)
    cyc.add_argument("--all-orbits", action="store_true",
                     help="decompose inside every orbit subgroup")
    cyc.add_argument("--check", action="store_true",
                     help="independently verify the decomposition")
    add("indec", _cmd_indec, "test indecomposability", element=True, cap=True)
    add("perm", _cmd_perm, "permutation or signed-permutation form", element=True)
    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.set_defaults(func=_cmd_verify)
    verify.add_argument("suite", choices=sorted(suites.SUITES) + ["all"],
                        metavar="SUITE",
                        help="one of: " + ", ".join(sorted(suites.SUITES)) + ", all")
    verify.add_argument("--json", action="store_true")
    return parser


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "cap" in args:  # only the enumerating verbs take a cap
        try:
            cap = requested_cap(args.cap)
        except ValueError as exc:
            parser.error(str(exc))
        args.red_cap = cap if cap is not None else DEFAULT_RED_CAP
        args.enum_cap = cap if cap is not None else DEFAULT_ENUM_CAP
    try:
        if "word" not in args:  # info and verify take no element
            return args.func(args)
        g = build_group(args.group)
        x = _element_from_args(g, args)
        doc, lines = args.func(g, x, args)
        _emit(args, {"element": _element_json(x), **doc}, lines)
        return 0
    except (UnsupportedTypeError, WordParseError) as exc:
        print(f"dualcox: usage error: {exc}", file=sys.stderr)
        return 2
    except DualcoxError as exc:
        print(f"dualcox: error: {exc}", file=sys.stderr)
        return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the interpreter's
        # own flush at shutdown fails silently too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

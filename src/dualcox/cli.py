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
from .limits import DEFAULT_ENUM_CAP, DEFAULT_RED_CAP, env_cap

_LETTER_INDEX = {"s": 0, "t": 1, "u": 2, "v": 3}


def parse_simple_word(g, text: str):
    """Simple word: whitespace- or ``*``-separated indices or generator names."""
    word = []
    pos = 0
    for token in re.split(r"[\s*]+", text.strip()):
        if not token:
            continue
        if token.isdigit():
            idx = int(token)
        elif token[0] == "s" and token[1:].isdigit():
            idx = int(token[1:])
        elif token in _LETTER_INDEX:
            idx = _LETTER_INDEX[token]
        else:
            raise WordParseError(f"bad simple-word token {token!r}",
                                 position=text.find(token, pos))
        if idx >= g.rank:
            raise WordParseError(
                f"simple index {idx} out of range for {g.type_string}",
                position=text.find(token, pos),
            )
        word.append(idx)
        pos = text.find(token, pos) + len(token)
    return word


def parse_refl_word(g, text: str):
    """Reflection word: ``t<k>`` letters and parenthesized simple words."""
    word = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        ch = text[pos]
        if ch.isspace() or ch == "*":
            pos += 1
            continue
        if ch == "t":
            m = re.match(r"t(\d+)", text[pos:])
            if m is None:
                raise WordParseError("expected t<k> reflection letter", position=pos)
            k = int(m.group(1))
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
            inner = parse_simple_word(g, text[pos + 1 : end])
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


def _orbit_dot(g, orbits, path):
    """Orbit graph in DOT form: words as vertices, moves as labeled edges."""
    def label(word):
        return " ".join(f"t{t}" for t in word) or "e"

    lines = ["graph hurwitz {"]
    for orbit in orbits:
        index = {w: i for i, w in enumerate(orbit.members)}
        for w in orbit.members:
            lines.append(f'  "{label(w)}";')
        seen = set()
        for w in orbit.members:
            for i in range(1, len(w)):
                moved = hurwitz.hurwitz_move(g, w, i)
                edge = tuple(sorted((index[w], index[moved])))
                if moved != w and edge not in seen:
                    seen.add(edge)
                    lines.append(
                        f'  "{label(w)}" -- "{label(moved)}" [label="sigma_{i}"];'
                    )
    lines.append("}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# -- verbs ----------------------------------------------------------------


def _cmd_info(args):
    descriptor = CoxeterDescriptor.parse(args.group)
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


def _cmd_reflen(args):
    g = build_group(args.group)
    x = _element_from_args(g, args)
    k = dual.reflection_length(x)
    _emit(args, {"element": _element_json(x), "reflen": k}, [str(k)])
    return 0


def _cmd_closure(args):
    g = build_group(args.group)
    x = _element_from_args(g, args)
    sub = dual.parabolic_closure(x)
    doc = {
        "element": _element_json(x),
        "reflen": dual.reflection_length(x),
        "closure": subgroup_json(sub),
    }
    lines = [
        f"reflection length: {doc['reflen']}",
        f"parabolic closure: type {sub.type_string}, rank {sub.rank}, "
        f"reflections {sorted(sub.refl_set)}",
    ]
    _emit(args, doc, lines)
    return 0


def _cmd_reds(args):
    g = build_group(args.group)
    x = _element_from_args(g, args)
    red = dual.reduced_expressions(x, cap=args.red_cap)
    doc = {
        "element": _element_json(x),
        "n_reds": len(red.words),
        "truncated": red.truncated,
        "words": [list(w) for w in red.words],
    }
    lines = [" ".join(f"t{t}" for t in w) or "e" for w in red.words]
    if red.truncated:
        lines.append(f"(truncated at {args.red_cap}; raise --cap)")
    _emit(args, doc, lines)
    return 0


def _cmd_orbits(args):
    g = build_group(args.group)
    x = _element_from_args(g, args)
    orbits = hurwitz.hurwitz_orbits(x, cap=args.red_cap)
    doc = {
        "element": _element_json(x),
        "n_reds": sum(o.size for o in orbits),
        "orbits": [],
    }
    lines = [f"{len(orbits)} orbit(s) on {doc['n_reds']} reduced words"]
    for o in orbits:
        entry = {"size": o.size, "rep": list(o.representative)}
        line = f"  size {o.size}, representative " + (
            " ".join(f"t{t}" for t in o.representative) or "e"
        )
        if args.with_subgroups:
            entry["subgroup"] = subgroup_json(o.subgroup)
            line += f", generates {o.subgroup.type_string}"
        doc["orbits"].append(entry)
        lines.append(line)
    if args.dot:
        _orbit_dot(g, orbits, args.dot)
        lines.append(f"orbit graph written to {args.dot}")
    _emit(args, doc, lines)
    return 0


def _cmd_cycledec(args):
    g = build_group(args.group)
    x = _element_from_args(g, args)
    if args.all_orbits:
        report = cycles.all_decompositions(x, cap=args.red_cap)
        doc = {
            "element": _element_json(x),
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
        _emit(args, doc, lines)
        return 0
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
    _emit(args, doc, lines)
    return 0


def _cmd_indec(args):
    g = build_group(args.group)
    x = _element_from_args(g, args)
    value = cycles.is_indecomposable(x, cap=args.enum_cap)
    _emit(
        args,
        {"element": _element_json(x), "indecomposable": value},
        ["indecomposable" if value else "decomposable"],
    )
    return 0


def _cmd_perm(args):
    g = build_group(args.group)
    x = _element_from_args(g, args)
    family = g.descriptor.components[0][0] if len(g.descriptor.components) == 1 else ""
    if family == "A":
        p = permmodel.to_permutation(x)
        text = permmodel.cycles_str(permmodel.classical_cycles(p))
        doc = {
            "element": _element_json(x),
            "model": "permutation",
            "images": list(p.images),
            "cycles": text,
        }
    elif family in ("B", "D"):
        sp = permmodel.to_signed(x)
        text = permmodel.cycles_str(permmodel.signed_cycles(sp))
        doc = {
            "element": _element_json(x),
            "model": "signed",
            "window": list(sp.window),
            "cycles": text,
        }
    else:
        raise DualcoxError(
            f"{g.type_string} has no permutation model; use types A, B or D"
        )
    _emit(args, doc, [text])
    return 0


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 but avoid argparse's SystemExit text
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser():
    parser = _Parser(
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
            p.add_argument("--cap", type=int, default=None,
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
    add("reds", _cmd_reds, "all reduced reflection words", element=True, cap=True)
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
            cap = args.cap if args.cap is not None else env_cap()
        except ValueError as exc:
            print(f"dualcox: usage error: {exc}", file=sys.stderr)
            return 2
        if cap is not None and cap <= 0:
            parser.error("--cap must be positive")
        args.red_cap = cap if cap is not None else DEFAULT_RED_CAP
        args.enum_cap = cap if cap is not None else DEFAULT_ENUM_CAP
    try:
        return args.func(args)
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

"""The ``cli`` workload: a fixed list of ``dualcox ... --json`` calls.

Each call runs in a fresh interpreter, the way a user at a terminal runs
the ``dualcox`` command.  The seed only changes how each element is spelled
on the command line (braid-equivalent simple words, rotated cycle forms,
digit or ``s<i>`` tokens).  Every answer is checked against ``oracles`` and
against the JSON schema dualcox ships.
"""

from __future__ import annotations

import json
from functools import reduce
from pathlib import Path

import oracles

SCHEMA = Path(__file__).resolve().parent.parent / "src" / "dualcox" / "schema" / "dualcox.schema.json"

# (verb, group, element flag, base simple word or cycle form, extra flags)
CALLS = (
    ("info", "E8", None, None, ()),
    ("info", "E7", None, None, ()),
    ("info", "A12", None, None, ()),
    ("reflen", "H4", "-w", (0, 1, 2, 3), ()),
    ("closure", "B8", "-w", (0, 1, 2), ()),
    ("cycledec", "D8", "-w", (0, 1, 2, 4, 6, 7), ()),
    ("cycledec", "B4", "-c", "(1,-2,-1,2)(3,4,-3,-4)", ("--all-orbits",)),
    ("orbits", "D5", "-w", (0, 1, 2, 3, 4), ("--with-subgroups",)),
    ("reds", "F4", "-w", (0, 1, 2, 3), ()),
    ("perm", "A6", "-w", (0, 1, 0, 3, 5, 4), ()),
    ("indec", "D4", "-w", (1, 2, 0, 1, 2, 3), ()),
    ("verify", "g2-two-orbits", None, None, ()),
    ("verify", "d4-quasi-coxeter", None, None, ()),
)


def _spell_cycles(text, rng):
    """The same signed permutation: each cycle rotated, the cycles reordered."""
    cycles = [body.split(",") for body in text.strip("()").split(")(")]
    out = []
    for c in cycles:
        k = rng.randrange(len(c))
        out.append("(" + ",".join(c[k:] + c[:k]) + ")")
    rng.shuffle(out)
    return "".join(out)


def argv_list(rng):
    """(argv without the program name, call spec) per call, in the fixed order."""
    out = []
    for spec in CALLS:
        verb, group, flag, base, extra = spec
        argv = [verb, group]
        if flag == "-w":
            word = oracles.spell(base, oracles.coxeter_matrix(group), rng)
            fmt = rng.choice(("{}", "s{}"))
            argv += ["-w", " ".join(fmt.format(i) for i in word)]
        elif flag == "-c":
            argv += ["-c", _spell_cycles(base, rng)]
        argv += [*extra, "--json"]
        out.append((argv, spec))
    return out


def words_listed(doc: dict) -> int:
    """Reduced words an answer reports: ``reds``, ``orbits``, ``cycledec --all-orbits``."""
    if "n_reds" in doc:
        return doc["n_reds"]
    return sum(e["orbit"]["size"] for e in doc.get("entries", ()))


def _validator():
    import jsonschema

    schema = json.loads(SCHEMA.read_text())
    cls = jsonschema.validators.validator_for(schema)
    return cls(schema)


class Checker:
    def __init__(self):
        self.validator = _validator()

    def check(self, argv, spec, doc) -> list:
        """Error messages for one answer; empty when it is right."""
        verb, group, flag, base, _ = spec
        label = " ".join(argv)
        errors = [f"{label}: {e.message}" for e in self.validator.iter_errors(doc)]
        if errors:
            return errors[:3]
        bad = getattr(self, "_" + verb)(argv, group, base, doc)
        return [f"{label}: {msg}" for msg in bad]

    @staticmethod
    def _word(argv):
        return tuple(int(t.lstrip("s")) for t in argv[argv.index("-w") + 1].split())

    def _info(self, argv, group, base, doc):
        want = (group, len(oracles.exponents(group)), oracles.n_reflections(group),
                oracles.group_order(group))
        got = (doc["type"], doc["rank"], doc["n_pos_roots"], doc["order"])
        return [] if got == want else [f"{got} != {want}"]

    def _reflen(self, argv, group, base, doc):
        # a Coxeter element has reflection length equal to the rank
        return [] if doc["reflen"] == len(base) else [f"reflen {doc['reflen']}"]

    def _closure(self, argv, group, base, doc):
        # the closure of a Coxeter element of a standard parabolic is that parabolic
        model = oracles.PermModel(group)
        length = model.reflection_length(model.from_word(self._word(argv)))
        sub = oracles.PermModel(f"{group[0]}{len(base)}")
        c = doc["closure"]
        ok = (doc["reflen"] == length == c["rank"] == len(base) and c["parabolic"]
              and c["type"] == f"{group[0]}{len(base)}"
              and len(c["reflections"]) == len(sub.reflections))
        return [] if ok else ["closure is not the standard parabolic"]

    def _cycledec(self, argv, group, base, doc):
        model = oracles.PermModel(group)
        if flag_all := ("entries" in doc):
            mx = oracles.signed_from_cycles(model.points, base)
            decs = [e["decomposition"] for e in doc["entries"]]
        else:
            mx = model.from_word(self._word(argv))
            decs = [doc]
        errors = []
        for dec in decs:
            fs = [model.from_word(f["s_word"]) for f in dec["factors"]]
            if reduce(oracles.compose, fs, model.identity) != mx:
                errors.append("factors do not multiply to the element")
            if any(oracles.compose(a, b) != oracles.compose(b, a)
                   for i, a in enumerate(fs) for b in fs[i + 1:]):
                errors.append("factors do not commute")
            lengths = [model.reflection_length(f) for f in fs]
            if lengths != [f["reflen"] for f in dec["factors"]] or \
                    sum(lengths) != model.reflection_length(mx):
                errors.append("factor lengths are wrong or not additive")
            if any("x" in f["closure"]["type"] or f["closure"]["type"] == "1"
                   for f in dec["factors"]):
                errors.append("a factor closure is not irreducible")
            if not flag_all and not all(f["closure"]["parabolic"] for f in dec["factors"]):
                errors.append("a factor closure is not parabolic")
        if flag_all:
            sizes = sum(e["orbit"]["size"] for e in doc["entries"])
            if sizes != model.count_reduced(mx):
                errors.append(f"orbit sizes add up to {sizes}")
            subs = [tuple(d["ambient"]["reflections"]) for d in decs]
            if len(set(subs)) != len(subs):
                errors.append("two orbits generate the same subgroup")
        return errors

    def _orbits(self, argv, group, base, doc):
        # Coxeter element: Deligne-Chapoton count, one orbit, the whole group
        (orbit,) = doc["orbits"] if len(doc["orbits"]) == 1 else (None,)
        ok = (doc["n_reds"] == oracles.coxeter_word_count(group) and orbit is not None
              and orbit["size"] == doc["n_reds"] and orbit["subgroup"]["type"] == group
              and orbit["subgroup"]["parabolic"])
        return [] if ok else ["not one orbit of Deligne-Chapoton size on the whole group"]

    def _reds(self, argv, group, base, doc):
        # F4's simple roots are lexicographically positive, so t<k> is the
        # k-th positive root in lexicographic order in both models
        mm = oracles.MatrixModel(group)
        mx = mm.from_word(self._word(argv))
        words = [tuple(w) for w in doc["words"]]
        count = oracles.coxeter_word_count(group)
        errors = []
        if doc["truncated"] or doc["n_reds"] != count or len(set(words)) != count:
            errors.append(f"{doc['n_reds']} words, Deligne-Chapoton says {count}")
        if any(len(w) != len(base) for w in words):
            errors.append("a word is not of length the rank")
        if any(reduce(oracles.matmul, (mm.reflections[t] for t in w), mm.identity) != mx
               for w in words):
            errors.append("a word does not multiply to the element")
        return errors

    def _perm(self, argv, group, base, doc):
        model = oracles.PermModel(group)
        mx = model.from_word(self._word(argv))
        cycles = [tuple(int(v) for v in c.split(",")) for c in
                  doc["cycles"].strip("()").split(")(") if c]
        ok = tuple(doc["images"]) == mx and cycles == model.cycles(mx)
        return [] if ok else ["images or cycles differ from the permutation model"]

    def _indec(self, argv, group, base, doc):
        model = oracles.PermModel(group)
        mx = model.from_word(self._word(argv))
        want = oracles.is_indecomposable(model, mx)
        return [] if doc["indecomposable"] == want else [f"indecomposable should be {want}"]

    def _verify(self, argv, group, base, doc):
        ok = doc["passed"] and doc["suite"] == group and all(c["ok"] for c in doc["checks"])
        return [] if ok else ["suite did not pass"]

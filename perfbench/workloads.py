"""The in-process workloads, ``sweep`` and ``words``: inputs, ops and checks.

Each workload has a fixed list of groups built in set-up and a fixed,
ordered list of ops.  The order matters: dualcox caches below-sets,
moved-space data and subgroups per group, so an op's cost depends on which
earlier op first filled a shared entry.  The seed only changes how each
input element is spelled (a random reduced simple word for it, reached by
braid moves), never which elements are used or in what order.

dualcox is reached through attributes of the ``dualcox`` package at call
time, so the tracer in ``tracing.py`` sees every call the ops make.
Answers are checked after the last op of a pass, so the checks fill no
cache an op could use.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce

import dualcox as dc

import oracles

SWEEP_GROUPS = ("A5", "B4", "D4", "F4", "H3", "G2", "I2(7)", "B2xB2")


def _cox(n):
    return tuple(range(n))


# (label, group, reduced simple word, kind); kind is "coxeter", "w0",
# "quasi-coxeter" or "other"
WORDS_ITEMS = (
    ("A6 coxeter", "A6", _cox(6), "coxeter"),
    ("B5 coxeter", "B5", _cox(5), "coxeter"),
    ("D5 coxeter", "D5", _cox(5), "coxeter"),
    ("F4 coxeter", "F4", _cox(4), "coxeter"),
    ("H4 coxeter", "H4", _cox(4), "coxeter"),
    ("E6 coxeter", "E6", _cox(6), "coxeter"),
    # c^(h/2) is the longest element -1 when every exponent is odd
    ("B5 longest", "B5", _cox(5) * 5, "w0"),
    ("F4 longest", "F4", _cox(4) * 6, "w0"),
    ("B4 (1,-2,-1,2)(3,4,-3,-4)", "B4",
     oracles.PermModel("B4").shortest_word(
         oracles.signed_from_cycles(4, "(1,-2,-1,2)(3,4,-3,-4)")), "other"),
    ("G2 s t s t", "G2", (0, 1, 0, 1), "other"),
    ("D4 1 2 1 2 2 0 2 3", "D4",
     oracles.PermModel("D4").shortest_word(
         oracles.PermModel("D4").from_word((1, 2, 1, 2, 2, 0, 2, 3))), "quasi-coxeter"),
)
WORDS_GROUPS = tuple(dict.fromkeys(item[1] for item in WORDS_ITEMS))


class Workload:
    """Set-up, inputs, ops and checks of one in-process workload."""

    groups = ()
    #: Calibration (``calib.Sampler``): a kernel slice before every this many
    #: ops, about every 0.1 s; with ``long_ops`` also every 0.1 s inside ops.
    ops_per_slice = 1
    long_ops = False

    def setup(self):
        """Build (and in ``sweep``, enumerate) the groups; timed as set-up."""
        raise NotImplementedError

    def inputs(self, rng):
        """(label, group, spelled word) per op, in the fixed op order."""
        raise NotImplementedError

    def op(self, g, word):
        raise NotImplementedError

    def words_listed(self, result) -> int:
        raise NotImplementedError

    def check(self, inputs, results) -> list:
        """Error messages for every wrong answer; empty when all are right."""
        raise NotImplementedError


def _product(g, elements):
    return reduce(lambda a, b: a * b, elements, g.identity)


def _check_factors(errors, label, g, x, factors, model=None):
    """Factors multiply to x, commute pairwise and have additive lengths."""
    if _product(g, factors) != x:
        errors.append(f"{label}: factors do not multiply to the element")
    if any(f * h != h * f for i, f in enumerate(factors) for h in factors[i + 1:]):
        errors.append(f"{label}: factors do not commute")
    if sum(dc.reflection_length(f) for f in factors) != dc.reflection_length(x):
        errors.append(f"{label}: factor lengths are not additive")
    if model is not None:
        images = [model.from_word(f.s_word()) for f in factors]
        if reduce(oracles.compose, images, model.identity) != model.from_word(x.s_word()):
            errors.append(f"{label}: factors do not multiply to x in the permutation model")


class Sweep(Workload):
    """Every element of eight small groups: length, closure, PQC test, decomposition."""

    groups = SWEEP_GROUPS
    ops_per_slice = 20

    def setup(self):
        self.built = {}
        for ty in self.groups:
            g = dc.build_group(ty)
            self.built[ty] = (g, dc.enumerate_group(g))

    def inputs(self, rng):
        """Each group's elements in enumeration order, the groups interleaved.

        An element at position i of n sits at (i + 1/2)/n of the pass, so
        every group, F4's slow non-PQC elements too, is spread over the
        whole pass and no metric rests on one stretch of host speed.  The
        caches are per group, so interleaving changes no op's work.
        """
        keyed = []
        for gi, ty in enumerate(self.groups):
            g, elements = self.built[ty]
            cm = oracles.coxeter_matrix(ty)
            for i, x in enumerate(elements):
                item = (ty, g, oracles.spell(x.s_word(), cm, rng), x)
                keyed.append(((2 * i + 1) / (2 * len(elements)), gi, item))
        keyed.sort(key=lambda k: k[:2])
        return [item for _, _, item in keyed]

    def op(self, g, word):
        x = dc.element_from_simple_word(g, word)
        length = dc.reflection_length(x)
        closure = dc.parabolic_closure(x)
        pqc = dc.is_parabolic_quasi_coxeter(x)
        dec = dc.cycle_decomposition(x) if pqc else dc.all_decompositions(x)
        return x, length, closure, pqc, dec

    def words_listed(self, result) -> int:
        _, _, _, pqc, dec = result
        return 0 if pqc else sum(orbit.size for orbit, _ in dec.entries)

    def check(self, inputs, results):
        errors = []
        hist = {ty: Counter() for ty in self.groups}
        for (ty, g, word, target), res in zip(inputs, results):
            if res is None:
                continue
            x, length, closure, pqc, dec = res
            label = f"{ty} {word}"
            hist[ty][length] += 1
            model = oracles.PermModel(ty) if ty[0] in "ABD" and "x" not in ty else None
            if x != target:
                errors.append(f"{label}: spelled word gives another element")
            if closure.rank != length or not dc.is_parabolic(closure):
                errors.append(f"{label}: closure is not parabolic of rank l_R(x)")
            if model is not None:
                mx = model.from_word(word)
                if model.reflection_length(mx) != length:
                    errors.append(f"{label}: reflection length disagrees with the model")
            if pqc:
                _check_factors(errors, label, g, x, dec.factors, model)
                for c in dec.factor_closures:
                    if len(c.components) != 1 or not dc.is_parabolic(c):
                        errors.append(f"{label}: a factor closure is not irreducible parabolic")
                if ty[0] == "A":
                    got = sorted(model.from_word(f.s_word()) for f in dec.factors)
                    want = sorted(_cycle_element(model, c) for c in model.cycles(mx))
                    if got != want:
                        errors.append(f"{label}: factors are not the disjoint cycles")
            else:
                if ty[0] == "A":
                    errors.append(f"{label}: a permutation must be parabolic quasi-Coxeter")
                if len(dec.entries) < 2:
                    errors.append(f"{label}: non-PQC element with a single orbit")
                for orbit, odec in dec.entries:
                    _check_factors(errors, label, g, x, odec.factors, model)
                subs = [orbit.subgroup.refl_set for orbit, _ in dec.entries]
                if len(set(subs)) != len(subs):
                    errors.append(f"{label}: two orbits generate the same subgroup")
        for ty in self.groups:
            g, elements = self.built[ty]
            if len(elements) != oracles.group_order(ty):
                errors.append(f"{ty}: enumerated {len(elements)} elements")
            if g.n_reflections != oracles.n_reflections(ty):
                errors.append(f"{ty}: {g.n_reflections} reflections")
            if g.coxeter_matrix != oracles.coxeter_matrix(ty):
                errors.append(f"{ty}: Coxeter matrix differs from the diagram")
            want = oracles.length_histogram(ty)
            if [hist[ty][k] for k in range(len(want))] != want or sum(hist[ty].values()) != sum(want):
                errors.append(f"{ty}: reflection-length histogram {dict(hist[ty])} != {want}")
        return errors


def _cycle_element(model, cycle):
    w = list(model.identity)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        w[a - 1] = b
    return tuple(w)


class Words(Workload):
    """Every reduced reflection word of eleven elements, with Hurwitz orbits."""

    groups = WORDS_GROUPS
    long_ops = True

    def setup(self):
        self.built = {ty: dc.build_group(ty) for ty in self.groups}

    def inputs(self, rng):
        return [(label, self.built[ty], oracles.spell(word, oracles.coxeter_matrix(ty), rng), (ty, word, kind))
                for label, ty, word, kind in WORDS_ITEMS]

    def op(self, g, word):
        x = dc.element_from_simple_word(g, word)
        red = dc.reduced_expressions(x)
        orbits = dc.hurwitz_orbits(x)
        return x, red, orbits

    def words_listed(self, result) -> int:
        return len(result[1].words)

    def check(self, inputs, results):
        errors = []
        for (label, g, word, (ty, base, kind)), res in zip(inputs, results):
            if res is None:
                continue
            x, red, orbits = res
            if ty[0] in "ABD":
                model = oracles.PermModel(ty)
                mx = model.from_word(base)
                if model.from_word(x.s_word()) != mx:
                    errors.append(f"{label}: spelled word gives another element")
                length, count = model.reflection_length(mx), model.count_reduced(mx)
                refl = [model.from_word(r.s_word()) for r in g.reflections]

                def product(w, model=model, refl=refl):
                    return reduce(oracles.compose, (refl[t] for t in w), model.identity)
            else:
                model, mx = None, x
                if kind == "coxeter":
                    length, count = g.rank, oracles.coxeter_word_count(ty)
                else:
                    mm = oracles.MatrixModel(ty)
                    mw = mm.from_word(base)
                    length, count = mm.reflection_length(mw), mm.count_reduced(mw)

                def product(w, g=g):
                    return _product(g, (g.reflections[t] for t in w))
            if kind == "coxeter" and count != oracles.coxeter_word_count(ty):
                errors.append(f"{label}: model count {count} != Deligne-Chapoton")
            words = red.words
            if red.truncated or len(words) != count:
                errors.append(f"{label}: {len(words)} words listed, oracle says {count}")
            if len(set(words)) != len(words):
                errors.append(f"{label}: a word is listed twice")
            if any(len(w) != length for w in words):
                errors.append(f"{label}: a word is not of length {length}")
            if any(product(w) != mx for w in words):
                errors.append(f"{label}: a word does not multiply to the element")
            _check_orbits(errors, label, g, x, words, orbits, kind)
        return errors


def _check_orbits(errors, label, g, x, words, orbits, kind):
    refl = g.reflections
    conj = {}

    def moved(w, p):
        a, b = w[p], w[p + 1]
        if (a, b) not in conj:
            conj[a, b] = g.reflection_index(refl[a] * refl[b] * refl[a])
        return w[:p] + (conj[a, b], a) + w[p + 2:]

    members = [set(o.members) for o in orbits]
    if sum(o.size for o in orbits) != len(words) or set().union(*members) != set(words):
        errors.append(f"{label}: orbits do not partition the words")
    for o, mem in zip(orbits, members):
        if len(mem) != o.size or any(moved(w, p) not in mem
                                     for w in mem for p in range(len(w) - 1)):
            errors.append(f"{label}: an orbit is not closed under Hurwitz moves")
            break
    subs = [o.subgroup.refl_set for o in orbits]
    if len(set(subs)) != len(subs):
        errors.append(f"{label}: two orbits generate the same subgroup")
    if (len(orbits) == 1) != dc.is_parabolic_quasi_coxeter(x):
        errors.append(f"{label}: single orbit does not match the PQC test")
    if kind in ("coxeter", "quasi-coxeter") and len(orbits) != 1:
        errors.append(f"{label}: the Hurwitz action is not transitive")


WORKLOADS = {"sweep": Sweep, "words": Words}

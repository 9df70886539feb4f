"""Named verification suites.

Each suite sweeps one family of exactly checkable properties, mixing worked
examples with exhaustive desk-scale sweeps, and reports one pass/fail line
per property.  The CLI exposes them under ``dualcox verify <suite>`` and the
acceptance tests run the same code, so there is a single source of truth for
what "verified" means.

Everything here is exact; no tolerances appear anywhere.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations

from . import cycles, dual, hurwitz, permmodel, subgroups
from .coxeter import (
    breadth_first,
    build_group,
    cayley_bfs,
    classical_order,
    classical_root_count,
    element_from_simple_word,
    enumerate_group,
)


class Check(namedtuple("Check", "name ok detail", defaults=("",))):
    __slots__ = ()


def _all_reflection_subgroups(g):
    """Deduplicated closures of every subset of the reflections."""
    seen = {}
    indices = range(g.n_reflections)
    for size in range(g.n_reflections + 1):
        for subset in combinations(indices, size):
            sub = subgroups.reflection_closure(g, subset)
            seen[sub.refl_set] = sub
    return list(seen.values())


# -- cycles-type-a -------------------------------------------------------


def suite_cycles_type_a():
    """Factors of every A4 element match its classical permutation cycles."""
    g = build_group("A4")
    checks = []
    bad = []
    for x in enumerate_group(g):
        dec = cycles.cycle_decomposition(x)
        expected = Counter(permmodel.classical_cycles(permmodel.to_permutation(x)))
        got = Counter()
        for f in dec.factors:
            factor_cycles = permmodel.classical_cycles(permmodel.to_permutation(f))
            if len(factor_cycles) != 1:
                bad.append((x, "factor is not a single cycle"))
                break
            got[factor_cycles[0]] += 1
        else:
            if got != expected:
                bad.append((x, "cycle multisets differ"))
    checks.append(
        Check(
            "A4: decomposition factors equal the classical cycles",
            not bad,
            f"120 elements checked, {len(bad)} mismatches",
        )
    )
    return checks


# -- length-bfs ----------------------------------------------------------

_LENGTH_SWEEP = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4",
    "G2", "H3", "I2(5)", "I2(7)", "I2(8)",
)


def suite_length_bfs():
    """Reflection length equals Cayley distance over the reflections."""
    checks = []
    for name in _LENGTH_SWEEP:
        g = build_group(name)
        reached = cayley_bfs(g, g.reflections)
        bad = sum(1 for x, d in reached if dual.reflection_length(x) != d)
        checks.append(
            Check(
                f"{g.type_string}: length equals reflection Cayley distance",
                bad == 0,
                f"{len(reached)} elements",
            )
        )
    return checks


# -- g2-two-orbits -------------------------------------------------------


def suite_g2_two_orbits():
    """The rotation s t s t in G2 splits into two orbits of three words."""
    g = build_group("G2")
    s, t = g.simple_ids
    w = element_from_simple_word(g, [0, 1, 0, 1])
    checks = []

    orbits = hurwitz.hurwitz_orbits(w)
    checks.append(Check("G2 stst: exactly two orbits", len(orbits) == 2,
                        f"{len(orbits)} orbits"))
    checks.append(
        Check(
            "G2 stst: both orbits have size three",
            sorted(o.size for o in orbits) == [3, 3],
            str([o.size for o in orbits]),
        )
    )
    tst = g.simple[1].conjugate_reflection(s)
    sts = g.simple[0].conjugate_reflection(t)
    expected = {
        subgroups.reflection_closure(g, {s, tst}).refl_set,
        subgroups.reflection_closure(g, {t, sts}).refl_set,
    }
    got = {o.subgroup.refl_set for o in orbits}
    checks.append(Check("G2 stst: orbit subgroups are <s,tst> and <t,sts>",
                        got == expected))
    checks.append(
        Check(
            "G2 stst: both orbit subgroups have type A2",
            all(o.subgroup.type_string == "A2" for o in orbits),
        )
    )
    report = cycles.all_decompositions(w)
    single = all(
        len(dec) == 1 and dec.factors[0] == w for _, dec in report.entries
    )
    checks.append(Check("G2 stst: both per-orbit decompositions are the single factor stst",
                        single))
    checks.append(Check("G2 stst: factor multisets coincide across the orbits",
                        report.equal_factor_pairs == ((0, 1),)))
    checks.append(Check("G2 stst: closure multisets differ across the orbits",
                        report.closure_sets_distinct))
    return checks


# -- d4-quasi-coxeter ----------------------------------------------------


def _is_conjugate(x, y) -> bool:
    """Conjugacy test by sweeping the whole group."""
    return any(g * x * g.inv() == y for g in enumerate_group(x.group))


def _d4_example():
    g = build_group("D4")
    w = element_from_simple_word(g, [1, 2, 1, 2, 2, 0, 2, 3])
    return g, w


def suite_d4_quasi_coxeter():
    """A quasi-Coxeter, non-Coxeter element of D4 with a trivial decomposition."""
    g, w = _d4_example()
    checks = [
        Check("D4 example: reflection length four",
              dual.reflection_length(w) == 4),
        Check("D4 example: single orbit",
              len(hurwitz.hurwitz_orbits(w)) == 1),
        Check("D4 example: quasi-Coxeter", hurwitz.is_quasi_coxeter(w)),
    ]
    coxeter_elt = element_from_simple_word(g, [0, 1, 2, 3])
    checks.append(
        Check(
            "D4 example: not conjugate to the Coxeter element s0 s1 s2 s3",
            not _is_conjugate(w, coxeter_elt),
        )
    )
    dec = cycles.cycle_decomposition(w)
    checks.append(Check("D4 example: decomposition is the single factor w",
                        len(dec) == 1 and dec.factors[0] == w))
    checks.append(Check("D4 example: indecomposable under exhaustive search",
                        cycles.is_indecomposable_brute(w)))
    checks.append(
        Check(
            "D4 example: every reflection lies below it",
            dual.below_reflections(w) == frozenset(range(g.n_reflections)),
        )
    )
    return checks


# -- b4-embedding --------------------------------------------------------


def suite_b4_embedding():
    """The same element inside B4: non-transitive, with the two expected subgroups."""
    _, w = _d4_example()
    b4 = build_group("B4")
    wb = subgroups.embed_by_roots(w, b4)
    checks = []

    sp = permmodel.to_signed(wb)
    text = permmodel.cycles_str(permmodel.signed_cycles(sp))
    checks.append(Check("B4 embedding: signed cycle form is (1,-2,-1,2)(3,4,-3,-4)",
                        text == "(1,-2,-1,2)(3,4,-3,-4)", text))

    orbits = hurwitz.hurwitz_orbits(wb)
    checks.append(Check("B4 embedding: Hurwitz action is not transitive",
                        len(orbits) > 1, f"{len(orbits)} orbits"))

    by_type: dict[str, list] = {}
    for o in orbits:
        by_type.setdefault(o.subgroup.type_string, []).append(o.subgroup)
    d4_copies = by_type.get("D4", [])
    checks.append(Check("B4 embedding: some orbit generates a D4 copy",
                        len(d4_copies) >= 1))
    checks.append(
        Check(
            "B4 embedding: the D4 copy is not parabolic",
            bool(d4_copies) and not any(subgroups.is_parabolic(s) for s in d4_copies),
        )
    )
    b2b2 = by_type.get("B2xB2", [])
    checks.append(Check("B4 embedding: some orbit generates a B2xB2 subgroup",
                        len(b2b2) >= 1))
    if d4_copies and b2b2:
        dec = cycles.decomposition_in_subgroup(wb, b2b2[0])
        texts = sorted(
            permmodel.cycles_str(permmodel.signed_cycles(permmodel.to_signed(f)))
            for f in dec.factors
        )
        checks.append(
            Check(
                "B4 embedding: B2xB2 factors print as (1,-2,-1,2) and (3,4,-3,-4)",
                texts == ["(1,-2,-1,2)", "(3,4,-3,-4)"],
                " ".join(texts),
            )
        )
        outside = all(
            not subgroups.contains_element(d4_copies[0], f) for f in dec.factors
        )
        checks.append(Check("B4 embedding: neither factor lies in the D4 copy",
                            outside))
    return checks


# -- orbit-subgroup-count ------------------------------------------------


def _count_move_orbits(g, words) -> int:
    """Braid orbits on a complete word list, by breadth-first search over
    forward moves (repeating a move returns to its start word, so they reach
    a whole orbit, which never outgrows the list)."""
    def moves(w):
        return (hurwitz.hurwitz_move(g, w, i) for i in range(1, len(w)))

    seen, n_orbits = set(), 0
    for w in words:
        if w not in seen:
            n_orbits += 1
            orbit = breadth_first(w, moves, len(words), None, key=tuple)
            seen.update(v for v, _ in orbit)
    return n_orbits


def suite_orbit_subgroup_count():
    """Orbit count equals the number of subgroups where the element is quasi-Coxeter.

    The orbits are counted twice, by ``hurwitz_orbits`` and by Hurwitz moves.
    """
    checks = []
    for name in ("A3", "B3", "G2"):
        g = build_group(name)
        subs = _all_reflection_subgroups(g)
        bad = 0
        for x in enumerate_group(g):
            words = dual.reduced_expressions(x).words
            word_closures = {subgroups.reflection_closure(g, w).refl_set for w in words}
            n_quasi = sum(1 for sub in subs if sub.refl_set in word_closures)
            n_orbits = len(hurwitz.hurwitz_orbits(x))
            if not n_quasi == n_orbits == _count_move_orbits(g, words):
                bad += 1
        checks.append(
            Check(
                f"{name}: orbit count equals quasi-Coxeter subgroup count",
                bad == 0,
                f"{len(subs)} subgroups considered",
            )
        )
    return checks


# -- subgroup-length -----------------------------------------------------


def suite_subgroup_length():
    """Minimal factorization length inside a subgroup equals the global one."""
    checks = []
    for name in ("A3", "B3"):
        g = build_group(name)
        bad = 0
        n_pairs = 0
        for sub in _all_reflection_subgroups(g):
            gens = [g.reflections[t] for t in sorted(sub.refl_set)]
            reached = cayley_bfs(g, gens)
            n_pairs += len(reached)
            bad += sum(1 for x, d in reached if dual.reflection_length(x) != d)
        checks.append(
            Check(
                f"{name}: subgroup factorization length equals reflection length",
                bad == 0,
                f"{n_pairs} membership pairs",
            )
        )
    return checks


# -- transitivity --------------------------------------------------------

_TRANSITIVITY_SWEEP = (
    "A1", "A2", "A3", "A4", "B2", "B3",
    "G2", "H3", "I2(5)", "I2(7)", "I2(8)",
)


def suite_transitivity():
    """Single orbit exactly when one reduced word generates a parabolic subgroup."""
    checks = []
    for name in _TRANSITIVITY_SWEEP:
        g = build_group(name)
        bad = sum(
            1
            for x in enumerate_group(g)
            if (len(hurwitz.hurwitz_orbits(x)) == 1)
            != hurwitz.is_parabolic_quasi_coxeter(x)
        )
        checks.append(
            Check(
                f"{g.type_string}: transitivity matches the parabolic criterion",
                bad == 0,
            )
        )
    return checks


# -- uniqueness ----------------------------------------------------------

_UNIQUENESS_SWEEP = ("A1", "A2", "A3", "A4", "B2", "B3", "G2", "H3")


def suite_uniqueness():
    """Every reduced word yields the same decomposition, with all conditions holding."""
    checks = []
    for name in _UNIQUENESS_SWEEP:
        g = build_group(name)
        full = subgroups.full_subgroup(g)
        bad = 0
        n_pqc = 0
        for x in enumerate_group(g):
            if not hurwitz.is_parabolic_quasi_coxeter(x):
                continue
            n_pqc += 1
            closure = dual.parabolic_closure(x)
            reference = None
            for word in dual.iter_reduced(x):
                dec = cycles._decompose_along(x, word, closure, full)
                key = tuple(f.images for f in dec.factors)
                if reference is None:
                    reference = key
                    if not cycles.verify_decomposition(x, dec.factors).passed:
                        bad += 1
                        break
                elif key != reference:
                    bad += 1
                    break
        checks.append(
            Check(
                f"{name}: decomposition independent of the word, conditions verified",
                bad == 0,
                f"{n_pqc} parabolic quasi-Coxeter elements",
            )
        )
    return checks


# -- indecomposable ------------------------------------------------------

_INDECOMPOSABLE_SWEEP = ("B2", "B3", "D4", "G2", "H3")


def suite_indecomposable():
    """Quasi-Coxeter elements admit no commuting length-additive splitting."""
    checks = []
    for name in _INDECOMPOSABLE_SWEEP:
        g = build_group(name)
        bad = 0
        n_qc = 0
        for x in enumerate_group(g):
            if not hurwitz.is_quasi_coxeter(x):
                continue
            n_qc += 1
            if not cycles.is_indecomposable_brute(x):
                bad += 1
        checks.append(
            Check(
                f"{name}: every quasi-Coxeter element is indecomposable",
                bad == 0 and n_qc > 0,
                f"{n_qc} quasi-Coxeter elements",
            )
        )
    return checks


# -- counts --------------------------------------------------------------

_COUNT_SWEEP = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "B5",
    "D4", "D5",
    "E6", "E7", "E8",
    "F4", "G2", "H3", "H4",
    "I2(5)", "I2(7)", "I2(8)", "I2(9)", "I2(10)", "I2(11)", "I2(12)",
)

_ORDER_SWEEP_MAX = 14400


def suite_counts():
    """Root counts and group orders match the classical tables."""
    checks = []
    root_bad = []
    for name in _COUNT_SWEEP:
        g = build_group(name)
        if g.n_reflections != classical_root_count(g.descriptor):
            root_bad.append(name)
    checks.append(
        Check(
            "positive-root counts match the classical tables",
            not root_bad,
            f"{len(_COUNT_SWEEP)} types" + (f"; failing: {root_bad}" if root_bad else ""),
        )
    )
    order_bad = []
    swept = 0
    for name in _COUNT_SWEEP:
        g = build_group(name)
        expected = classical_order(g.descriptor)
        if expected > _ORDER_SWEEP_MAX:
            continue
        swept += 1
        if len(enumerate_group(g)) != expected:
            order_bad.append(name)
    checks.append(
        Check(
            "group orders match the classical tables (BFS count)",
            not order_bad,
            f"{swept} types up to order {_ORDER_SWEEP_MAX}"
            + (f"; failing: {order_bad}" if order_bad else ""),
        )
    )
    return checks


SUITES = {
    "cycles-type-a": suite_cycles_type_a,
    "length-bfs": suite_length_bfs,
    "g2-two-orbits": suite_g2_two_orbits,
    "d4-quasi-coxeter": suite_d4_quasi_coxeter,
    "b4-embedding": suite_b4_embedding,
    "orbit-subgroup-count": suite_orbit_subgroup_count,
    "subgroup-length": suite_subgroup_length,
    "transitivity": suite_transitivity,
    "uniqueness": suite_uniqueness,
    "indecomposable": suite_indecomposable,
    "counts": suite_counts,
}


def run_suite(name: str):
    """Checks for one named suite, or for all of them with name ``all``."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}, all"
        ) from None
    return suite()

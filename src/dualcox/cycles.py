"""Commuting cycle-type decompositions of group elements.

In the symmetric group, an element splits uniquely into disjoint cycles, the
reflection lengths of the cycles add up, and each cycle generates an
irreducible parabolic subgroup.  The same decomposition exists for any
element whose reduced reflection words generate a parabolic subgroup: group
the letters of one reduced word by the irreducible components of that
subgroup and multiply each group out in word order.  Letters in different
components commute, so the factors are well defined, commute pairwise, have
additive lengths, and are indecomposable; the result does not depend on the
chosen word (a property the test suite sweeps exhaustively).

Elements without that parabolicity still decompose inside the subgroup
generated by any one braid orbit of their reduced words, one decomposition
per orbit.  The orbits come from ``hurwitz.orbit_search``, which lists no
word.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import reduce

from . import dual, hurwitz, subgroups
from .coxeter import Element, element_from_refl_word
from .errors import MixedGroupsError, NotQuasiCoxeterError
from .limits import DEFAULT_ENUM_CAP


class CycleDecomposition(namedtuple("CycleDecomposition",
                                      "element ambient factors factor_closures")):
    """Commuting factors of an element, one per irreducible component.

    ``ambient`` records the group in which the decomposition was taken: the
    full group, or the subgroup generated by one braid orbit.  Factors are
    sorted by the least reflection index of their component, so equal
    decompositions compare equal.  ``len`` counts the factors, not the fields,
    so ``_make`` (behind ``_replace``) skips the named tuple's length check.
    """

    __slots__ = ()
    _make = classmethod(tuple.__new__)

    def __len__(self):
        return len(self.factors)


def _decompose_along(x: Element, word, container: subgroups.ReflectionSubgroup,
                     ambient: subgroups.ReflectionSubgroup) -> CycleDecomposition:
    """Split a reduced word of x along the components of ``container``."""
    g = x.group
    component_of = {t: c for c in container.components for t in c.refl_set}
    letters: dict = {}
    for t in word:
        letters.setdefault(component_of[t], []).append(t)
    closures = sorted(letters, key=lambda c: min(c.refl_set))
    return CycleDecomposition(
        element=x,
        ambient=ambient,
        factors=tuple(element_from_refl_word(g, letters[c]) for c in closures),
        factor_closures=tuple(closures),
    )


def cycle_decomposition(x: Element) -> CycleDecomposition:
    """The unique commuting decomposition of a parabolic quasi-Coxeter element.

    The identity decomposes into zero factors.  Raises
    NotQuasiCoxeterError when no reduced word of x generates a parabolic
    subgroup; such elements still decompose per braid orbit, see
    :func:`all_decompositions`.
    """
    word = hurwitz._pqc_word(x)
    if word is None:
        raise NotQuasiCoxeterError(
            "not a parabolic quasi-Coxeter element; "
            "use a per-orbit decomposition instead"
        )
    closure = dual.parabolic_closure(x)
    return _decompose_along(x, word, closure, subgroups.full_subgroup(x.group))


def decomposition_in_subgroup(x: Element,
                              amb: subgroups.ReflectionSubgroup) -> CycleDecomposition:
    """Decomposition of x taken inside a reflection subgroup it generates.

    Requires x to be quasi-Coxeter in ``amb``: some reduced word of x over
    the reflections of ``amb`` must generate all of ``amb``.  Reflection
    lengths inside the subgroup agree with those in the full group, so the
    word can be found greedily over the restricted letter set; the walk gets
    stuck exactly when x lies outside the subgroup.
    """
    if x.group is not amb.ambient:
        raise MixedGroupsError("element belongs to a different ambient group")
    try:
        word = dual.first_reduced_word(x, letters=amb.refl_set)
    except ValueError:
        word = None
    if word is None or subgroups.reflection_closure(x.group, word) != amb:
        raise NotQuasiCoxeterError("element is not quasi-Coxeter in the given subgroup")
    return _decompose_along(x, word, amb, amb)


class AllDecompositions(namedtuple("AllDecompositions",
                                     "element entries equal_factor_pairs closure_sets_distinct")):
    """Per-orbit decompositions plus the cross-orbit comparison report.

    ``entries`` holds (HurwitzOrbit, CycleDecomposition) pairs;
    ``equal_factor_pairs`` the orbit index pairs whose factor multisets
    coincide; ``closure_sets_distinct`` whether the closure multisets are
    pairwise distinct across orbits.
    """

    __slots__ = ()


def all_decompositions(x: Element, cap: int = DEFAULT_ENUM_CAP) -> AllDecompositions:
    """The decomposition of x inside every braid-orbit subgroup.

    Each orbit's representative is split along its subgroup.  Distinct
    orbits can repeat the same factor list while their component subgroups
    differ; the report records where that happens.  ``cap`` bounds the
    size of [1, x], as in the orbit search.
    """
    entries = []
    for orbit in hurwitz.orbit_search(x, cap):
        amb = orbit.subgroup
        dec = _decompose_along(x, orbit.representative, amb, amb)
        entries.append((orbit, dec))
    factor_keys = [
        Counter(f.images for f in dec.factors) for _, dec in entries
    ]
    closure_keys = [
        Counter(c.refl_set for c in dec.factor_closures) for _, dec in entries
    ]
    equal_pairs = tuple(
        (i, j)
        for i in range(len(entries))
        for j in range(i + 1, len(entries))
        if factor_keys[i] == factor_keys[j]
    )
    distinct = all(
        closure_keys[i] != closure_keys[j]
        for i in range(len(entries))
        for j in range(i + 1, len(entries))
    )
    return AllDecompositions(
        element=x,
        entries=tuple(entries),
        equal_factor_pairs=equal_pairs,
        closure_sets_distinct=distinct,
    )


def is_indecomposable_brute(x: Element, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Exhaustive search for a commuting, length-additive splitting.

    True when no u with 0 < len(u) < len(x), lengths adding up, and
    u x = x u exists.  The identity is decomposable by convention (its empty
    decomposition).  Lengths add up exactly when u lies in the absolute
    interval [1, x], so the search runs over its elements; ``cap`` bounds
    their number.  Used as the oracle against the fast path.
    """
    total = dual.reflection_length(x)
    if total == 0:
        return False
    if total == 1:
        return True
    for u, drop in dual.interval(x, cap):
        if 0 < drop < total and u * x == x * u:
            return False
    return True


def is_indecomposable(x: Element, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Whether x admits no nontrivial commuting length-additive splitting.

    Parabolic quasi-Coxeter elements are indecomposable exactly when their
    decomposition has a single factor, that is when their parabolic closure
    is irreducible: every component of the closure receives letters of a
    reduced word.  Everything else falls back to the exhaustive search.
    """
    if x.is_identity():
        return False
    if hurwitz.is_parabolic_quasi_coxeter(x):
        return len(dual.parabolic_closure(x).components) == 1
    return is_indecomposable_brute(x, cap)


class DecompositionReport(namedtuple("DecompositionReport", "checks")):
    """Outcome of independently checking a claimed decomposition: ``checks``
    holds (name, ok, detail) triples."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def verify_decomposition(x: Element, factors,
                         cap: int = DEFAULT_ENUM_CAP) -> DecompositionReport:
    """Check a claimed commuting decomposition of x, condition by condition.

    Verifies that the factors multiply to x, commute pairwise, have additive
    reflection lengths, and are each indecomposable under the exhaustive
    search over their absolute intervals.  Failures are reported, not
    raised.
    """
    factors = tuple(factors)
    g = x.group
    checks = []

    product = reduce(lambda a, b: a * b, factors, g.identity)
    checks.append(("product", product == x,
                   "factors multiply to the element"))

    commute = all(
        factors[i] * factors[j] == factors[j] * factors[i]
        for i in range(len(factors))
        for j in range(i + 1, len(factors))
    )
    checks.append(("pairwise_commute", commute, "all factor pairs commute"))

    additive = sum(dual.reflection_length(f) for f in factors) == dual.reflection_length(x)
    checks.append(("lengths_additive", additive,
                   "reflection lengths of the factors add up"))

    indec = all(is_indecomposable_brute(f, cap) for f in factors)
    checks.append(("factors_indecomposable", indec,
                   "every factor is indecomposable (exhaustive search)"))

    return DecompositionReport(checks=tuple(checks))

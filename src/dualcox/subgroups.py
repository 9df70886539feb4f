"""Reflection subgroups: closure, canonical generators, components, parabolicity.

A reflection subgroup is stored as its set of reflection indices, closed
under conjugation by its own members (that closure equals the set of all
reflections lying in the subgroup; the test suite checks this against
listed elements at small scale).  The canonical Coxeter generators are the
members with exactly one inversion inside the set, and the irreducible
components are the connected components of their Coxeter diagram, each
named by its rank and number of reflections.

Subgroups of one ambient group are interned by reflection set, so the
parabolicity flag is computed once.  Parabolicity and membership are read off
below-sets in absolute order (see ``dual``); no subgroup lists its elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dual, rootdata
from .coxeter import (
    _FAMILY_BOUNDS, CoxeterDescriptor, CoxeterSystem, Element, element_from_refl_word,
)
from .errors import InternalInvariantError, MixedGroupsError


@dataclass(frozen=True)
class SubgroupComponent:
    """One irreducible block: its canonical generators, reflections, and type."""

    gens: tuple
    reflections: frozenset
    label: str


class DisjointSet:
    """Union-find over 0..n-1 with path halving."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


class ReflectionSubgroup:
    """Conjugation-closed set of reflections with its Coxeter structure."""

    __slots__ = (
        "ambient",
        "refl_set",
        "canonical_gens",
        "components",
        "rank",
        "_parabolic",
    )

    def __init__(self, ambient: CoxeterSystem, refl_set: frozenset):
        self.ambient = ambient
        self.refl_set = refl_set
        self.canonical_gens = canonical_generators(ambient, refl_set)
        self.components = _split_components(ambient, self.canonical_gens, refl_set)
        self.rank = len(self.canonical_gens)
        self._parabolic = None

    @property
    def type_string(self) -> str:
        """Product of the component type labels, e.g. ``B2xB2``; ``1`` if trivial."""
        if not self.components:
            return "1"
        kinds = sorted(CoxeterDescriptor.parse(c.label) for c in self.components)
        return "x".join(map(str, kinds))

    def is_full(self) -> bool:
        return len(self.refl_set) == self.ambient.n_reflections

    def __eq__(self, other):
        return (
            isinstance(other, ReflectionSubgroup)
            and self.ambient is other.ambient
            and self.refl_set == other.refl_set
        )

    def __hash__(self):
        return hash((id(self.ambient), self.refl_set))

    def __repr__(self):
        return f"<{self.type_string} subgroup of {self.ambient.type_string}>"


def _close_under_conjugation(g: CoxeterSystem, gens) -> frozenset:
    """Reflections of the subgroup generated by gens: their orbit under it.

    Every reflection of the subgroup is conjugate inside it to one of the
    generating reflections, so conjugating by the generators alone reaches
    all of them.
    """
    closed = set(gens)
    rows = [g.reflections[s].images for s in closed]
    queue = list(closed)
    while queue:
        r = queue.pop()
        for row in rows:
            new = row[2 * r] >> 1
            if new not in closed:
                closed.add(new)
                queue.append(new)
    return frozenset(closed)


def join(g: CoxeterSystem, closed: frozenset, t: int) -> frozenset:
    """Closed reflection set generated by a closed set and one more reflection.

    Closed sets are interned per group, each with the few reflections that
    generated it, so a join closes those and t; joins are memoised on the
    stored set, and ``clear_caches`` drops both.
    """
    sets = g._closed_sets
    entry = sets.get(closed) or sets.setdefault(closed, (closed, tuple(closed), {}))
    _, gens, joins = entry
    joined = joins.get(t)
    if joined is None:
        new = closed if t in closed else _close_under_conjugation(g, gens + (t,))
        joined = joins[t] = sets.setdefault(new, (new, gens + (t,), {}))[0]
    return joined


def canonical_generators(g: CoxeterSystem, refl_set) -> frozenset:
    """Members of a closed reflection set with exactly one inversion inside it.

    The inversion set of t consists of the reflections whose positive root t
    sends to a negative root; t itself is always one of them.
    """
    refl_set = frozenset(refl_set)
    gens = set()
    for t in refl_set:
        row = g.reflections[t].images
        inversions = sum(row[2 * j] & 1 for j in refl_set)
        if inversions == 1:
            gens.add(t)
    return frozenset(gens)


def _diagram_edges(g: CoxeterSystem, gens: list) -> dict:
    """Coxeter diagram on generators: {(a, b): m} for each bonded pair, m >= 3."""
    edges = {}
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            m = (g.reflections[a] * g.reflections[b]).order()
            if m >= 3:
                edges[(a, b)] = m
    return edges


def _component_label(rank: int, n_refl: int, bonds: set) -> str:
    """Type of an irreducible component from its rank and reflection count.

    Rank 2 with m reflections is I2(m).  Every other rank has one classical
    family with that many reflections, except that B6 and E6 both have 36;
    only B6 has a bond of order 4.
    """
    if rank == 2:
        return str(CoxeterDescriptor.parse(f"I2({n_refl})"))
    fits = [
        f"{family}{rank}"
        for family, (lo, hi) in _FAMILY_BOUNDS.items()
        if family != "I" and lo <= rank <= (hi or rank)
        and rootdata.component_root_count(family, rank) == n_refl
    ]
    if fits == ["B6", "E6"]:
        fits = ["B6" if 4 in bonds else "E6"]
    if len(fits) != 1:
        raise InternalInvariantError(
            f"no single finite type of rank {rank} has {n_refl} reflections"
        )
    return fits[0]


def _split_components(g: CoxeterSystem, gens: frozenset, refl_set: frozenset):
    """Partition a closed reflection set along the diagram of its generators.

    Every reflection must land in exactly one block; anything else would
    contradict the unique decomposition into irreducible factors and is
    reported as an internal invariant violation.
    """
    gens = sorted(gens)
    if not gens:
        if refl_set:
            raise InternalInvariantError("nonempty reflection set with no generators")
        return ()
    edges = _diagram_edges(g, gens)
    position = {a: i for i, a in enumerate(gens)}
    dsu = DisjointSet(len(gens))
    for a, b in edges:
        dsu.union(position[a], position[b])
    blocks: dict[int, list] = {}
    for i, a in enumerate(gens):
        blocks.setdefault(dsu.find(i), []).append(a)
    components = []
    assigned: set[int] = set()
    for root in sorted(blocks, key=lambda r: min(blocks[r])):
        block_gens = tuple(sorted(blocks[root]))
        block_refl = _close_under_conjugation(g, block_gens)
        if not block_refl <= refl_set or block_refl & assigned:
            raise InternalInvariantError(
                "component reflections overlap or escape the subgroup"
            )
        assigned |= block_refl
        bonds = {m for (a, _), m in edges.items() if a in block_gens}
        label = _component_label(len(block_gens), len(block_refl), bonds)
        components.append(SubgroupComponent(block_gens, block_refl, label))
    if assigned != refl_set:
        raise InternalInvariantError("some reflection lies in no component")
    return tuple(components)


def _get_subgroup(g: CoxeterSystem, closed_set: frozenset) -> ReflectionSubgroup:
    sub = g._subgroup_registry.get(closed_set)
    if sub is None:  # concurrent callers keep the first one stored
        sub = g._subgroup_registry.setdefault(
            closed_set, ReflectionSubgroup(g, closed_set)
        )
    return sub


def reflection_closure(g: CoxeterSystem, gens) -> ReflectionSubgroup:
    """Subgroup generated by the given reflection indices.

    The letters are folded in one at a time with :func:`join`, whose
    memoised joins close a word that was closed before at no cost.
    """
    closed = frozenset()
    for t in gens:
        if not 0 <= t < g.n_reflections:
            raise IndexError(f"reflection index {t} out of range")
        closed = join(g, closed, t)
    return _get_subgroup(g, closed)


def full_subgroup(g: CoxeterSystem) -> ReflectionSubgroup:
    """The whole group, viewed as a reflection subgroup of itself."""
    return _get_subgroup(g, frozenset(range(g.n_reflections)))


def component_subgroup(sub: ReflectionSubgroup, component: SubgroupComponent):
    """One irreducible block of a subgroup, as a subgroup in its own right."""
    return _get_subgroup(sub.ambient, frozenset(component.reflections))


def is_parabolic(sub: ReflectionSubgroup) -> bool:
    """Whether the subgroup is the pointwise stabilizer of a subspace.

    A product c of the canonical generators is a Coxeter element of the
    subgroup, so Fix(c) is the common fixed space of the subgroup and the
    reflections below c are exactly those of its parabolic closure.  The
    subgroup is parabolic when that closure adds nothing.
    """
    if sub._parabolic is None:
        c = element_from_refl_word(sub.ambient, sorted(sub.canonical_gens))
        sub._parabolic = dual.below_reflections(c) == sub.refl_set
    return sub._parabolic


def contains_element(sub: ReflectionSubgroup, x: Element) -> bool:
    """Exact membership test: a greedy walk over the subgroup's reflections.

    Reflection length inside a reflection subgroup W' equals length in W
    (Carter, *Conjugacy classes in the Weyl group*, 1972), so every y != 1
    of W' has a reflection of W' below it, and t y lies in W' exactly when
    y does.  The walk of ``dual.first_reduced_word`` over the reflections of
    W' therefore reaches the identity exactly when x lies in W', and gets
    stuck otherwise.
    """
    if x.group is not sub.ambient:
        raise MixedGroupsError("element belongs to a different ambient group")
    try:
        dual.first_reduced_word(x, letters=sub.refl_set)
    except ValueError:
        return False
    return True

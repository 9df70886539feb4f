"""Reflection subgroups: closure, canonical generators, components, parabolicity.

A reflection subgroup is stored as its set of reflection indices, closed
under conjugation by its own members (that closure equals the set of all
reflections lying in the subgroup; the test suite checks this against brute
force enumeration at small scale).  The canonical Coxeter generators are the
members with exactly one inversion inside the set, and the irreducible
components are the connected components of their Coxeter diagram.

Subgroups of one ambient group are interned by reflection set, so caches
(element sets, parabolicity) are shared.  Parabolicity and membership in a
parabolic subgroup are read off below-sets in absolute order (see ``dual``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dual
from .coxeter import CoxeterSystem, Element, cayley_bfs, element_from_refl_word
from .errors import GroupTooLargeError, InternalInvariantError, MixedGroupsError
from .limits import DEFAULT_ENUM_CAP


@dataclass(frozen=True)
class SubgroupComponent:
    """One irreducible block: its canonical generators, reflections, and type."""

    gens: tuple
    reflections: frozenset
    label: str


def _label_key(label: str):
    """Sort key matching the descriptor normalization: family letter, then rank."""
    if label.startswith("I2("):
        return ("I", int(label[3:-1]))
    return (label[0], int(label[1:]))


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
        "_elements",
        "_parabolic",
    )

    def __init__(self, ambient: CoxeterSystem, refl_set: frozenset):
        self.ambient = ambient
        self.refl_set = refl_set
        self.canonical_gens = canonical_generators(ambient, refl_set)
        self.components = _split_components(ambient, self.canonical_gens, refl_set)
        self.rank = len(self.canonical_gens)
        self._elements = None
        self._parabolic = None

    @property
    def type_string(self) -> str:
        """Product of the component type labels, e.g. ``B2xB2``; ``1`` if trivial."""
        if not self.components:
            return "1"
        return "x".join(sorted((c.label for c in self.components), key=_label_key))

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

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> frozenset:
        """All elements of the subgroup, by BFS over the canonical generators."""
        if self._elements is None:
            g = self.ambient
            gens = [g.reflections[t] for t in sorted(self.canonical_gens)]
            self._elements = frozenset(x for x, _ in cayley_bfs(g, gens, cap))
        elif len(self._elements) > cap:
            raise GroupTooLargeError(
                f"subgroup {self.type_string} has {len(self._elements)} "
                f"elements, above the cap of {cap}",
                cap=cap,
            )
        return self._elements


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
            new = row[r] >> 1
            if new not in closed:
                closed.add(new)
                queue.append(new)
    return frozenset(closed)


def canonical_generators(g: CoxeterSystem, refl_set) -> frozenset:
    """Members of a closed reflection set with exactly one inversion inside it.

    The inversion set of t consists of the reflections whose positive root t
    sends to a negative root; t itself is always one of them.
    """
    refl_set = frozenset(refl_set)
    gens = set()
    for t in refl_set:
        row = g.reflections[t].images
        inversions = sum(row[j] & 1 for j in refl_set)
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


def _classify_diagram(gens: list, edges: dict) -> str:
    """Finite type label of a connected labeled Coxeter diagram."""
    rank = len(gens)
    if rank == 1:
        return "A1"
    neighbours = {a: [] for a in gens}
    for (a, b), m in edges.items():
        neighbours[a].append((b, m))
        neighbours[b].append((a, m))
    degrees = {a: len(n) for a, n in neighbours.items()}
    if max(degrees.values()) <= 2:
        # path: read the edge labels from one endpoint
        ends = [a for a in gens if degrees[a] == 1]
        if len(ends) != 2:
            raise InternalInvariantError("connected diagram without two path ends")
        labels = []
        prev, cur = None, min(ends)
        while True:
            nxt = [(b, m) for b, m in neighbours[cur] if b != prev]
            if not nxt:
                break
            (b, m) = nxt[0]
            labels.append(m)
            prev, cur = cur, b
        rev = labels[::-1]
        labels = min(labels, rev)
        if rank == 2:
            m = labels[0]
            return {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
        if all(m == 3 for m in labels):
            return f"A{rank}"
        if labels == sorted(labels) and labels[:-1] == [3] * (rank - 2):
            if labels[-1] == 4:
                return f"B{rank}"
            if labels[-1] == 5 and rank in (3, 4):
                return f"H{rank}"
        if rank == 4 and labels == [3, 4, 3]:
            return "F4"
        raise InternalInvariantError(f"unrecognized path diagram labels {labels}")
    # branched: a single degree-3 node with all bonds simple
    if any(m != 3 for m in edges.values()):
        raise InternalInvariantError("branched diagram with a labeled bond")
    forks = [a for a in gens if degrees[a] == 3]
    if len(forks) != 1 or max(degrees.values()) > 3:
        raise InternalInvariantError("diagram branches more than once")
    fork = forks[0]
    arms = []
    for b, _ in neighbours[fork]:
        length, prev, cur = 1, fork, b
        while True:
            nxt = [c for c, _ in neighbours[cur] if c != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return f"D{rank}"
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return f"E{rank}"
    raise InternalInvariantError(f"unrecognized branched diagram with arms {arms}")


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
        block_edges = {
            e: m for e, m in edges.items() if e[0] in block_gens
        }
        label = _classify_diagram(list(block_gens), block_edges)
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
    """Subgroup generated by the given reflection indices."""
    for t in gens:
        if not 0 <= t < g.n_reflections:
            raise IndexError(f"reflection index {t} out of range")
    return _get_subgroup(g, _close_under_conjugation(g, gens))


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


def contains_element(sub: ReflectionSubgroup, x: Element,
                     cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Exact membership test.

    A parabolic subgroup contains x exactly when it contains the parabolic
    closure of x, that is every reflection below x; other subgroups are
    enumerated (and cached) up to the cap.
    """
    if x.group is not sub.ambient:
        raise MixedGroupsError("element belongs to a different ambient group")
    if is_parabolic(sub):
        return dual.below_reflections(x) <= sub.refl_set
    return x in sub.elements(cap)

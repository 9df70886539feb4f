"""Reflection subgroups: closure, canonical generators, components, parabolicity.

A reflection subgroup is stored as its set of reflection indices, closed
under conjugation by its own members (that closure equals the set of all
reflections lying in the subgroup; the test suite checks this against
listed elements at small scale).  The canonical Coxeter generators are the
members with exactly one inversion inside the set, and the irreducible
components are the connected components of their Coxeter diagram, each
named by its rank and number of reflections.  Two generators are bonded
when they do not commute, and the bond is simple (order 3) when
a b a = b a b; both are read off the root action, without a product.  Each
component is itself an interned subgroup of the same ambient group.

Subgroups of one ambient group are interned by reflection set, so the
type and the parabolicity flag are computed once.  Parabolicity and
membership are read off below-sets in absolute order (see ``dual``); no
subgroup lists its elements.
"""

from __future__ import annotations

from . import dual, rootdata
from .coxeter import (
    _FAMILY_BOUNDS, _I2_ALIASES, CoxeterDescriptor, CoxeterSystem, Element,
    _close_under_conjugation, element_from_refl_word,
)
from .errors import InternalInvariantError, MixedGroupsError, NoLinearModelError


class ReflectionSubgroup:
    """Conjugation-closed set of reflections with its Coxeter structure.

    ``components`` are interned subgroups, ``(self,)`` when irreducible and
    ``()`` when trivial; ``type_string`` is the product of their types,
    e.g. ``B2xB2``, or ``1``, formed from one ``(family, n)`` pair per
    component.  A component finds its generators from its own reflection
    set, as every other subgroup does.

    Do not call the constructor directly; every function here hands out the
    one subgroup interned per reflection set of a group, so subgroups
    compare and hash by identity, as groups do.
    """

    __slots__ = (
        "ambient",
        "refl_set",
        "canonical_gens",
        "components",
        "rank",
        "type_string",
        "_parabolic",
    )

    def __init__(self, ambient: CoxeterSystem, refl_set: frozenset):
        self.ambient = ambient
        self.refl_set = refl_set
        self._parabolic = None
        self.canonical_gens = canonical_generators(ambient, refl_set)
        self.rank = len(self.canonical_gens)
        blocks = _diagram_blocks(ambient, sorted(self.canonical_gens))
        self.components = ((self,) if len(blocks) == 1
                           else _split_components(ambient, blocks, refl_set))
        kinds = sorted(_component_label(len(gens), len(c.refl_set), simply_laced)
                       for (gens, simply_laced), c in zip(blocks, self.components))
        self.type_string = str(CoxeterDescriptor(tuple(kinds))) or "1"

    def is_full(self) -> bool:
        return len(self.refl_set) == self.ambient.n_reflections

    def __repr__(self):
        return f"<{self.type_string} subgroup of {self.ambient.type_string}>"


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


def _bond(g: CoxeterSystem, a: int, b: int) -> tuple:
    """(bonded, simple) for reflections a != b, off the root action: a b a
    differs from b when they do not commute, and is b a b at order 3."""
    aba = g.reflections[a].conjugate_reflection(b)
    return aba != b, aba == g.reflections[b].conjugate_reflection(a)


def _diagram_blocks(g: CoxeterSystem, gens: list) -> list:
    """Connected blocks of the Coxeter diagram on ascending generators.

    Each block is (its generators, whether all its bonds are simple), grown
    from the least generator not yet placed, so blocks come by their least
    generator.  A finite Coxeter diagram is a tree, so the bonds to
    generators not yet placed are all of its bonds.
    """
    left, blocks = list(gens), []
    while left:
        block, simply_laced = [left.pop(0)], True
        for a in block:  # grows as bonded generators are placed
            for b in tuple(left):
                bonded, simple = _bond(g, a, b)
                if bonded:
                    left.remove(b)
                    block.append(b)
                    simply_laced = simply_laced and simple
        blocks.append((block, simply_laced))
    return blocks


def _component_label(rank: int, n_refl: int, simply_laced: bool) -> tuple:
    """Type of an irreducible component, as a (family, n) pair, from its
    rank and reflection count.

    Rank 2 with m reflections is I2(m), named A2, B2 or G2 where it is one.
    Every other rank has one classical family with that many reflections,
    except that B6 and E6 both have 36; only E6 is simply laced.
    """
    if rank == 2:
        return _I2_ALIASES.get(n_refl, ("I", n_refl))
    fits = [
        (family, rank)
        for family, (lo, hi) in _FAMILY_BOUNDS.items()
        if family != "I" and lo <= rank <= (hi or rank)
        and rootdata.component_root_count(family, rank) == n_refl
    ]
    if fits == [("B", 6), ("E", 6)]:
        fits = [("E" if simply_laced else "B", 6)]
    if len(fits) != 1:
        raise InternalInvariantError(
            f"no single finite type of rank {rank} has {n_refl} reflections"
        )
    return fits[0]


def _split_components(g: CoxeterSystem, blocks: list, refl_set: frozenset) -> tuple:
    """The subgroups generated by the diagram blocks, as interned subgroups.

    Their reflections must partition the set; anything else would
    contradict the unique decomposition into irreducible factors and is
    reported as an internal invariant violation.
    """
    closed = [_close_under_conjugation(g, gens) for gens, _ in blocks]
    if frozenset().union(*closed) != refl_set or sum(map(len, closed)) != len(refl_set):
        raise InternalInvariantError("the components do not partition the reflections")
    return tuple(_get_subgroup(g, c) for c in closed)


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


def embed_by_roots(x: Element, target: CoxeterSystem) -> Element:
    """Transport x to a group in the same ambient space, through their common roots.

    For instance the long roots of B_n form a D_n system.  The common roots
    are closed under their own reflections, so the walk of
    ``contains_element`` over the source reflections in them writes x as a
    word, which is read as the target's reflections in the same roots.

    Raises ValueError when x is not a product of the reflections in the
    common roots, even where the target holds the same linear map: in
    B2xB2, s0 s0' = diag(-1, 1, -1, 1) lies in W(D4), but the two groups
    share only the roots e0 +- e1 and e2 +- e3.
    """
    g = x.group
    if not g.is_linear or not target.is_linear:
        raise NoLinearModelError("root embedding needs linear models on both sides")
    if g.ambient_dim != target.ambient_dim:
        raise ValueError("ambient dimensions differ; no common root coordinates")
    # H3 and H4 blocks sit last (components are sorted), in the basis of
    # their own simple roots under their own form, so equal coordinates
    # name the same vector only when the H components agree too
    if [c for c in g.descriptor.components if c[0] == "H"] != [
            c for c in target.descriptor.components if c[0] == "H"]:
        raise ValueError("H components differ; the ambient forms do not agree")
    # the doubled integer ambient tables; equal H components give equal widths
    index = {r: t for t, a in enumerate(target._ambient)
             for r in (a, tuple(tuple(-v for v in c) for c in a))}
    common = {t: index.get(a) for t, a in enumerate(g._ambient)}
    letters = frozenset(t for t, k in common.items() if k is not None)
    try:
        word = dual.first_reduced_word(x, letters=letters)
    except ValueError:
        raise ValueError(f"{x!r} is not a product of the reflections in the roots "
                         f"{g.type_string} shares with {target.type_string}") from None
    return element_from_refl_word(target, [common[t] for t in word])

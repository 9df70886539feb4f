"""Braid-group moves on reduced reflection words and their orbits.

The k-strand braid group acts on the reduced reflection words of an element
of length k: the i-th generator replaces the adjacent pair (t_i, t_(i+1)) by
(t_i t_(i+1) t_i, t_i), keeping the product fixed.  A move keeps the
subgroup the letters generate, and the converse holds too: words of w that
generate one reflection subgroup W' lie in one orbit.  Reflection length in
W' equals length in W, as both are dim Mov(w) (Carter, *Conjugacy classes
in the Weyl group*, 1972), so those words are reduced words of w in W',
where w is quasi-Coxeter, and the Hurwitz action on the reduced words of a
quasi-Coxeter element is transitive (Baumeister, Gobet, Roberts and
Wegener, *On the Hurwitz action in finite Coxeter groups*, 2017).  The
orbits are therefore the fibres of the map from a word to the subgroup it
generates.  They are found without listing a word, by one walk down the
cached interval graph of ``dual`` that carries, along with each element,
the closed reflection set its letters so far generate, and counts the paths
into each final set; ``hurwitz_orbits`` then lists each orbit's words over
its subgroup's letters.  The tests keep a search along single moves and the
bucketing of listed words by their letter sets as oracles, and the
``orbit-subgroup-count`` suite counts orbits by a union-find over moves.

Whether the action is transitive is read off one reduced word: the subgroup
it generates is parabolic exactly when it is the parabolic closure of w.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import dual, subgroups
from .coxeter import Element
from .errors import CapExceededError
from .limits import DEFAULT_ENUM_CAP, DEFAULT_RED_CAP


def hurwitz_move(g, word, i: int):
    """Apply the braid generator at position i (1-based) to a reflection word.

    (..., a, b, ...) -> (..., a b a, a, ...).
    """
    if not 1 <= i <= len(word) - 1:
        raise IndexError(f"move position {i} out of range for a word of length {len(word)}")
    p = i - 1
    a, b = word[p], word[p + 1]
    return word[:p] + (g.reflections[a].images[b] >> 1, a) + word[p + 2 :]


@dataclass(frozen=True)
class HurwitzOrbit:
    """One orbit on the reduced words: representative, size, generated subgroup.

    ``members`` is None when the orbit was found without listing its words.
    """

    representative: tuple
    size: int
    members: tuple | None
    subgroup: subgroups.ReflectionSubgroup


def orbit_search(x: Element, cap: int = DEFAULT_ENUM_CAP) -> list:
    """Every orbit of x, sorted by representative, found without listing a word.

    A walk down the interval graph of ``dual``, one level at a time, over
    states (y, S) with their numbers of paths: S is the closed reflection set
    generated by the letters read from x to y, and the edge (t, t y) leads on
    to (t y, S joined with t).  The paths into (1, S) are the words
    generating S, one orbit (see the module docstring), whose representative
    is the least word of x over S.  A level holds no more states than x has
    words; CapExceededError is raised when one would hold more than ``cap``.
    """
    g = x.group
    length = dual.reflection_length(x)
    level = [(x, {frozenset(): 1})]
    built = 1
    for depth in range(1, length + 1):
        below, above = {}, built  # id of an interned node -> (node, {S: paths})
        for y, paths in level:
            edges = dual._edges(y)
            for closed, n in paths.items():
                for t, z in edges:
                    joined = subgroups.join(g, closed, t)
                    counts = below.setdefault(id(z), (z, {}))[1]
                    if joined not in counts:
                        if built - above >= cap:
                            raise CapExceededError(
                                f"the Hurwitz orbit search in {g.type_string} has "
                                f"more than {cap} states on level {depth} of {length}; "
                                f"stopped after building {built} states; raise the "
                                "cap with --cap or DUALCOX_CAP", cap=cap)
                        counts[joined] = 0
                        built += 1
                    counts[joined] += n
        level = below.values()
    (_, ends), = level  # every path ends at the identity
    orbits = (HurwitzOrbit(dual.first_reduced_word(x, letters=S), n, None,
                           subgroups._get_subgroup(g, S)) for S, n in ends.items())
    return sorted(orbits, key=lambda orbit: orbit.representative)


def hurwitz_orbits(x: Element, cap: int = DEFAULT_RED_CAP):
    """Partition of all reduced words of x into braid orbits.

    The orbits of :func:`orbit_search`, under the same ``cap``, each with its
    members: the words of x over its subgroup's letters, listed in
    lexicographic order.  When x has more than ``cap`` words the error names
    their number, and no word is listed.
    """
    orbits = orbit_search(x, cap)
    total = sum(orbit.size for orbit in orbits)
    if total > cap:
        raise CapExceededError(f"the element has {total} reduced words, above the cap "
                               f"of {cap}; raise it with --cap or DUALCOX_CAP", cap=cap)
    return [replace(orbit, members=tuple(
                dual.iter_reduced(x, letters=orbit.subgroup.refl_set)))
            for orbit in orbits]


def is_parabolic_quasi_coxeter(x: Element) -> bool:
    """Whether some (equivalently, by transitivity, every) reduced word of x
    generates a parabolic subgroup.

    The letters of a reduced word lie below x, so the subgroup they generate
    sits inside the parabolic closure of x, and it is parabolic exactly
    when it is that closure.  Only one reduced word is inspected; the
    expression independence is a tested property, not an assumption baked
    in here.
    """
    word = dual.first_reduced_word(x)
    generated = subgroups.reflection_closure(x.group, word)
    return generated.refl_set == dual.below_reflections(x)


def is_quasi_coxeter(x: Element) -> bool:
    """Whether some (equivalently, by transitivity, every) reduced word of x
    generates the whole group."""
    word = dual.first_reduced_word(x)
    return subgroups.reflection_closure(x.group, word).is_full()

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
generates.  They are found without listing a word: every node y of the
cached interval graph of ``dual`` gets a table counting its reduced words
by the closed reflection set they generate, built from the tables of the
nodes one step below and kept per group with a bound on the size of
[1, y], so the orbits of x are read off its own table, and a search on
stored tables counts [1, x] against its cap only when that bound exceeds
it; ``hurwitz_orbits`` then lists each orbit's words over its
subgroup's letters.  The tests keep a search along single moves and the
bucketing of listed words by their letter sets as oracles, and the
``orbit-subgroup-count`` suite counts orbits by a union-find over moves.

Whether the action is transitive is read off one reduced word: the subgroup
it generates is parabolic exactly when it is the parabolic closure of w.
"""

from __future__ import annotations

from collections import namedtuple

from . import dual, subgroups
from .coxeter import Element, breadth_first
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
    return word[:p] + (g.reflections[a].conjugate_reflection(b), a) + word[p + 2 :]


class HurwitzOrbit(namedtuple("HurwitzOrbit", "representative size members subgroup")):
    """One orbit on the reduced words: representative, size, generated subgroup.

    ``members`` is None when the orbit was found without listing its words.
    """

    __slots__ = ()


def orbit_search(x: Element, cap: int = DEFAULT_ENUM_CAP) -> list:
    """Every orbit of x, sorted by representative, found without listing a word.

    The orbit table of a node y of the interval graph of ``dual`` maps each
    closed reflection set S to the number of reduced words of y that
    generate S: the identity has {empty set: 1}, and y sums, over its edges
    (t, t y), the table of t y with each S joined with t.  The tables are
    kept per group, each with the bound 1 + the sum of its children's
    bounds on the size of [1, y]; only the nodes below x without a table
    are walked, and filled children first.  The words of x generating S
    form one orbit (see the module docstring); its representative, the
    least word of x over S, is read off the graph along the first edge
    with a letter in S.  ``cap`` bounds the size of [1, x], as in
    ``dual.interval``: the fill raises that function's error, with its own
    count and depth, when more than ``cap`` nodes lack a table, and all of
    [1, x] is walked again only when the bound of x exceeds ``cap``.  A
    walk of all of [1, x], that one or the fill on a group without tables,
    stores its size as the bound of x, so it is not walked again.
    """
    g = x.group
    tables = g._orbit_tables
    root = g._interval_nodes.setdefault(x.images, x)
    if root not in tables:  # every node below a table has one
        whole = not tables  # then the walk is all of [1, x]

        def untabled(y):
            return [z for _, z in dual._edges(y) if z not in tables]

        fresh = breadth_first(root, untabled, cap, dual._overflow(x, cap), key=id)
        for y, _ in reversed(fresh):
            table, bound = {}, 1
            for t, z in dual._edges(y):
                below, size = tables[z]
                bound += size
                for closed, n in below.items():
                    joined = subgroups.join(g, closed, t)
                    table[joined] = table.get(joined, 0) + n
            tables[y] = table or {frozenset(): 1}, bound
        if whole:
            tables[root] = tables[root][0], len(fresh)
    table, bound = tables[root]
    if bound > cap:  # raises exactly when [1, x] has more than cap elements
        tables[root] = table, len(dual.interval(x, cap))

    def representative(letters):
        word, y = [], root
        while edges := dual._edges(y):
            t, y = next(edge for edge in edges if edge[0] in letters)
            word.append(t)
        return tuple(word)

    orbits = (HurwitzOrbit(representative(S), n, None, subgroups._get_subgroup(g, S))
              for S, n in table.items())
    return sorted(orbits, key=lambda orbit: orbit.representative)


def hurwitz_orbits(x: Element, cap: int = DEFAULT_RED_CAP):
    """Partition of all reduced words of x into braid orbits.

    The orbits of :func:`orbit_search`, each with its members: the words of
    x over its subgroup's letters, listed in lexicographic order.  ``cap``
    bounds the number of words; when x has more the error names their
    number, and no word is listed.  Each level of [1, x] holds at most as
    many elements as x has words, so the search runs under l(x) + 1 times
    ``cap`` and refuses nothing whose words fit.
    """
    orbits = orbit_search(x, (dual.reflection_length(x) + 1) * cap)
    total = sum(orbit.size for orbit in orbits)
    if total > cap:
        raise CapExceededError(f"the element has {total} reduced words, above the cap "
                               f"of {cap}; raise it with --cap or DUALCOX_CAP", cap=cap)
    return [orbit._replace(members=tuple(
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

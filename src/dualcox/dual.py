"""Reflection length, absolute order, reduced reflection words, parabolic closure.

Everything here is read off the below-set of an element w: the reflections t
with t <= w in absolute order.  A reflection lies below w exactly when its
root lies in the moved space Mov(w), the image of (w - 1).  The average of
the w-orbit of a vector is its projection onto the fixed space along Mov(w),
so a root lies in Mov(w) exactly when its orbit sums to zero.  The orbit of a
root is a signed cycle of w's permutation of the roots: a cycle that returns
negated sums to zero at once, any other cycle is summed once, as plain
integer tuples in the simple-root coordinates the group keeps, and its
answer holds for every root on it.

The below-set generates the parabolic closure of w, whose rank is dim Mov(w),
the reflection length of w (Carter, *Conjugacy classes in the Weyl group*,
1972).  Below-sets are cached per group, keyed by the element's root action.
The test suite checks all of this against exact elimination on w - 1.

Reduced words are read off the absolute interval [1, w]: its elements are
the nodes of a graph with an edge y -> t y for every reflection t below y,
and the reduced words of w are exactly its paths from w down to the
identity.  For a Coxeter element the interval is the noncrossing-partition
lattice (Bessis, *The dual braid monoid*, 2003), far smaller than the word
count: 833 elements against 41,472 words in E6.  The graph is expanded
lazily and cached per group, one product per edge, every node numbered once
by its root action and its edges (t, child id) pairs of ints, so listing
the words forms no product and hashes no element per word, counting them
is one pass over the ids, and a second listing reuses the graph.  The test
suite keeps the product-per-word tree walk as the oracle.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub

from . import subgroups
from .coxeter import Element, breadth_first
from .errors import CapExceededError, MixedGroupsError
from .limits import DEFAULT_ENUM_CAP, DEFAULT_RED_CAP


def _moved_roots(x: Element) -> frozenset:
    """Indices of the roots whose orbit under x sums to zero (linear models).

    The orbit of root t is followed on signed points from 2t until it
    comes back to 2t or to its negative 2t + 1.
    """
    coords = x.group.simple_coordinates
    images = x.images
    seen = set()
    moved = set()
    for t in range(len(coords)):
        if t in seen:
            continue
        cycle = [t]
        total = coords[t]
        p = images[2 * t]
        while (i := p >> 1) != t:
            cycle.append(i)
            total = tuple(map(sub if p & 1 else add, total, coords[i]))
            p = images[p]
        seen.update(cycle)
        if p & 1 or not any(total):
            moved.update(cycle)
    return frozenset(moved)


def reflection_length(x: Element) -> int:
    """Minimal number of reflections multiplying to x."""
    return parabolic_closure(x).rank


def absolute_leq(u: Element, v: Element) -> bool:
    """u <= v in absolute order: lengths add along u, u^-1 v."""
    if u.group is not v.group:
        raise MixedGroupsError("absolute order compares elements of one group")
    return reflection_length(u) + reflection_length(u.inv() * v) == reflection_length(v)


def reflection_below(t: int, x: Element) -> bool:
    """Whether reflection t lies below x: the root of t sits in Mov(x)."""
    if not 0 <= t < x.group.n_reflections:
        raise IndexError(f"reflection index {t} out of range")
    return t in below_reflections(x)


def below_reflections(x: Element) -> frozenset:
    """All reflections below x in absolute order; cached per group.

    The combinatorial dihedral model has no root coordinates.  There the
    identity has nothing below it, a reflection (found by the reflection
    lookup) only itself, and any other element, a rotation, every reflection.
    """
    g = x.group
    cached = g._below_cache.get(x.images)
    if cached is None:
        if g.is_linear:
            cached = _moved_roots(x)
        elif x.is_identity():
            cached = frozenset()
        elif (t := g.reflection_index(x)) is not None:
            cached = frozenset({t})
        else:
            cached = frozenset(range(g.n_reflections))
        g._below_cache[x.images] = cached
    return cached


def first_reduced_word(x: Element, letters=None) -> tuple:
    """Lexicographically least reduced reflection word for x.

    With ``letters`` given, only those reflection indices may be used.  When
    they are the reflections of a subgroup, the walk gets stuck, raising
    ValueError, exactly when x lies outside that subgroup; the membership
    test of ``subgroups.contains_element`` relies on this.
    """
    word = []
    y = x
    while not y.is_identity():
        pool = below_reflections(y)
        if letters is not None:
            pool = pool & letters
        if not pool:
            raise ValueError("element does not factor over the allowed letters")
        t = min(pool)
        word.append(t)
        y = y.group.reflections[t] * y
    return tuple(word)


def _node(graph, y: Element) -> int:
    """Id of the interval node with the root action of y: the first id
    drawn for it is kept, so ids may skip numbers, and whoever returns an id
    has stored its node, so threads agree."""
    i = graph.nodes.setdefault(y.images, next(graph.ids))
    graph.elements.setdefault(i, y)
    return i


def _edges(graph, i: int) -> tuple:
    """Edges (t, id of t y) of the interval graph out of node i = y, in
    ascending t.

    One product per edge, computed the first time y is expanded and cached
    by id.  Every child is numbered once, so an element reached from
    several parents is one node; only the identity has no edges.
    """
    edges = graph.edges.get(i)
    if edges is None:
        y = graph.elements[i]
        refl = y.group.reflections
        edges = tuple((t, _node(graph, refl[t] * y)) for t in sorted(below_reflections(y)))
        edges = graph.edges.setdefault(i, edges)
    return edges


def interval(x: Element, cap: int = DEFAULT_ENUM_CAP) -> list:
    """(y, l(x) - l(y)) for every y in the absolute interval [1, x].

    Breadth-first from x along the interval graph, over node ids.  Every
    edge lowers reflection length by one, so the distance from x is the
    drop in length and the list runs by decreasing length, down to the
    identity.  Raises CapExceededError when [1, x] has more than ``cap``
    elements, however much of the graph is already cached.
    """
    graph = x.group._interval
    return [(graph.elements[i], d) for i, d in _walk(graph, x, cap)]


def _walk(graph, x: Element, cap: int) -> list:
    """:func:`interval` as (node id, depth) pairs."""
    return breadth_first(_node(graph, x), lambda i: [j for _, j in _edges(graph, i)],
                         cap, _overflow(x, cap), key=int)


def _overflow(x: Element, cap: int):
    """The error builder of a walk down [1, x] that passes ``cap`` nodes."""
    def overflow(built, depth):
        return CapExceededError(
            f"the interval [1, w] in {x.group.type_string} has more than "
            f"{cap} elements; stopped after building {built} of them, "
            f"{depth} of {reflection_length(x)} levels below w; "
            "raise the cap with --cap or DUALCOX_CAP",
            cap=cap,
        )
    return overflow


def count_reduced(x: Element, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of reduced reflection words of x, without listing them.

    #Red(1) = 1 and #Red(y) is the sum of #Red(t y) over the edges out of y,
    summed over the ids of [1, x] from the identity up.  ``cap`` bounds the
    size of [1, x], as in :func:`interval`.
    """
    graph = x.group._interval
    count = {}
    for i, _ in reversed(_walk(graph, x, cap)):  # x comes last
        edges = graph.edges[i]
        count[i] = sum(count[j] for _, j in edges) if edges else 1
    return count[i]


def iter_reduced(x: Element, letters=None):
    """Yield every reduced reflection word of x, in lexicographic order.

    Each word (t_1, ..., t_k) satisfies t_1 t_2 ... t_k = x with k the
    reflection length.  The words are the paths from x down to the identity
    in the interval graph, read depth first over node ids with ascending
    letters, so each is emitted exactly once.
    """
    if x.is_identity():
        yield ()
        return
    graph = x.group._interval
    cached = graph.edges
    word = []
    stack = [iter(_edges(graph, _node(graph, x)))]
    while stack:
        for t, i in stack[-1]:
            if letters is not None and t not in letters:
                continue
            below = cached.get(i)
            if below is None:
                below = _edges(graph, i)
            if below:
                word.append(t)
                stack.append(iter(below))
            else:
                yield (*word, t)
            break
        else:
            stack.pop()
            if stack:
                word.pop()


class RedSet(namedtuple("RedSet", "words truncated")):
    """Reduced reflection words of one element, possibly truncated at a cap."""

    __slots__ = ()


def reduced_expressions(x: Element, cap: int = DEFAULT_RED_CAP) -> RedSet:
    """Collect reduced words with an explicit truncation flag.

    At most ``cap`` words are returned; ``truncated`` reports whether more
    exist.  Truncation is never silent: callers that need the complete set
    must check the flag.
    """
    words = []
    truncated = False
    for word in iter_reduced(x):
        if len(words) >= cap:
            truncated = True
            break
        words.append(word)
    return RedSet(tuple(words), truncated)


def parabolic_closure(x: Element) -> subgroups.ReflectionSubgroup:
    """Smallest parabolic subgroup containing x.

    Its reflections are exactly those below x, a set already closed under
    conjugation; its rank equals the reflection length of x and it contains x.
    """
    return subgroups._get_subgroup(x.group, below_reflections(x))

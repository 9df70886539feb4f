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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from . import subgroups
from .coxeter import Element
from .errors import MixedGroupsError
from .limits import DEFAULT_RED_CAP


def _dihedral_class(x: Element) -> int:
    """0 identity, 1 reflection, 2 nontrivial rotation."""
    if x.is_identity():
        return 0
    m = x.group.dihedral_m
    i0 = x.images[0] >> 1
    i1 = x.images[1] >> 1
    return 2 if (i0 + 1) % m == i1 else 1


def _moved_roots(x: Element) -> frozenset:
    """Indices of the roots whose orbit under x sums to zero (linear models)."""
    coords = x.group.simple_coordinates
    images = x.images
    seen = set()
    moved = set()
    for t in range(len(images)):
        if t in seen:
            continue
        cycle = [t]
        total = coords[t]
        e = images[t]
        i, neg = e >> 1, e & 1
        while i != t:
            cycle.append(i)
            total = tuple(map(sub if neg else add, total, coords[i]))
            e = images[i]
            i, neg = e >> 1, neg ^ (e & 1)
        seen.update(cycle)
        if neg or not any(total):
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

    The combinatorial dihedral model has no root coordinates: there the
    identity has nothing below it, a reflection only itself, and a rotation
    every reflection.
    """
    g = x.group
    cached = g._below_cache.get(x.images)
    if cached is None:
        if g.is_linear:
            cached = _moved_roots(x)
        else:
            cls = _dihedral_class(x)
            if cls == 0:
                cached = frozenset()
            elif cls == 1:
                cached = frozenset({g.reflection_index(x)})
            else:
                cached = frozenset(range(g.n_reflections))
        g._below_cache[x.images] = cached
    return cached


def first_reduced_word(x: Element, letters=None) -> tuple:
    """Lexicographically least reduced reflection word for x.

    With ``letters`` given, only those reflection indices may be used; the
    set must be the full reflection set of a subgroup containing x, which
    guarantees the greedy walk never gets stuck.
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


def iter_reduced(x: Element, letters=None):
    """Yield every reduced reflection word of x, in lexicographic order.

    Each word (t_1, ..., t_k) satisfies t_1 t_2 ... t_k = x with k the
    reflection length; prepending a below-reflection and recursing emits each
    word exactly once.
    """
    if x.is_identity():
        yield ()
        return
    pool = below_reflections(x)
    if letters is not None:
        pool = pool & letters
    refl = x.group.reflections
    for t in sorted(pool):
        for tail in iter_reduced(refl[t] * x, letters):
            yield (t,) + tail


@dataclass(frozen=True)
class RedSet:
    """Reduced reflection words of one element, possibly truncated at a cap."""

    words: tuple
    truncated: bool


def reduced_expressions(x: Element, cap: int = DEFAULT_RED_CAP,
                        letters=None) -> RedSet:
    """Collect reduced words with an explicit truncation flag.

    At most ``cap`` words are returned; ``truncated`` reports whether more
    exist.  Truncation is never silent: callers that need the complete set
    must check the flag.
    """
    words = []
    truncated = False
    for word in iter_reduced(x, letters):
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

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
generates, and are found by closing the letter set of each listed word.
The words come from the cached interval graph of ``dual``, so an element
whose words were listed before is listed again without forming a product.
The tests keep a search along single moves as the oracle, and the
``orbit-subgroup-count`` suite counts orbits by a union-find over moves.

Whether the action is transitive is read off one reduced word: the subgroup
it generates is parabolic exactly when it is the parabolic closure of w.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dual, subgroups
from .coxeter import Element
from .errors import CapExceededError
from .limits import DEFAULT_RED_CAP


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
    """One orbit on the reduced words: members, representative, generated subgroup."""

    representative: tuple
    size: int
    members: tuple
    subgroup: subgroups.ReflectionSubgroup


def hurwitz_orbits(x: Element, cap: int = DEFAULT_RED_CAP):
    """Partition of all reduced words of x into braid orbits.

    Each orbit is the set of words generating one reflection subgroup, by
    Carter's length lemma and the transitivity theorem of Baumeister, Gobet,
    Roberts and Wegener (see the module docstring).  The listing is
    lexicographic, so every orbit's members come out sorted, its first word
    is its representative, and the orbits come out sorted by
    representative.  If the words cannot all be enumerated under the cap no
    partial answer is produced.
    """
    red = dual.reduced_expressions(x, cap)
    if red.truncated:
        raise CapExceededError(
            f"reduced-word enumeration exceeded the cap of {cap}; "
            "raise it with --cap or DUALCOX_CAP",
            cap=cap,
        )
    buckets: dict[subgroups.ReflectionSubgroup, list] = {}  # subgroup -> its words
    bucket_of: dict[frozenset, list] = {}  # letter set -> its subgroup's words
    for w in red.words:
        letters = frozenset(w)
        bucket = bucket_of.get(letters)
        if bucket is None:
            sub = subgroups.reflection_closure(x.group, letters)
            bucket = bucket_of[letters] = buckets.setdefault(sub, [])
        bucket.append(w)
    return [
        HurwitzOrbit(
            representative=members[0],
            size=len(members),
            members=tuple(members),
            subgroup=sub,
        )
        for sub, members in buckets.items()
    ]


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

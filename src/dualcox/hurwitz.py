"""Braid-group moves on reduced reflection words and their orbits.

The k-strand braid group acts on the reduced reflection words of an element
of length k: the i-th generator replaces the adjacent pair (t_i, t_(i+1)) by
(t_i t_(i+1) t_i, t_i), keeping the product fixed.  Orbits are computed by
enumerating all reduced words and merging across single moves with a
union-find; the forward moves alone already cover every edge because
repeating one move returns to the start word, so its inverse is a power of
itself.

Whether the action is transitive is detected without orbit enumeration: take
any one reduced word and test whether the reflections in it generate a
parabolic subgroup.  The equivalence of the two routes is swept exhaustively
in the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dual, subgroups
from .coxeter import Element
from .errors import CapExceededError, InternalInvariantError
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

    Orbits are sorted by their lexicographically least member; the orbit
    sizes add up to the number of reduced words.  If the words cannot all be
    enumerated under the cap no partial answer is produced.
    """
    red = dual.reduced_expressions(x, cap)
    if red.truncated:
        raise CapExceededError(
            f"reduced-word enumeration exceeded the cap of {cap}; "
            "raise it with --cap or DUALCOX_CAP",
            cap=cap,
        )
    words = red.words
    index = {w: i for i, w in enumerate(words)}
    dsu = subgroups.DisjointSet(len(words))
    g = x.group
    for wi, w in enumerate(words):
        for i in range(1, len(w)):
            dsu.union(wi, index[hurwitz_move(g, w, i)])
    buckets: dict[int, list] = {}
    for wi, w in enumerate(words):
        buckets.setdefault(dsu.find(wi), []).append(w)
    orbits = []
    for members in buckets.values():
        members.sort()
        rep = members[0]
        orbits.append(
            HurwitzOrbit(
                representative=rep,
                size=len(members),
                members=tuple(members),
                subgroup=subgroups.reflection_closure(g, set(rep)),
            )
        )
    orbits.sort(key=lambda o: o.representative)
    return orbits


def is_parabolic_quasi_coxeter(x: Element) -> bool:
    """Whether some (equivalently, by transitivity, every) reduced word of x
    generates a parabolic subgroup.

    Only one reduced word is inspected; the expression independence is a
    tested property, not an assumption baked in here.
    """
    word = dual.first_reduced_word(x)
    return subgroups.is_parabolic(
        subgroups.reflection_closure(x.group, set(word))
    )


def is_quasi_coxeter(x: Element) -> bool:
    """Whether some reduced word of x generates the whole group."""
    return (
        dual.reflection_length(x) == x.group.rank
        and is_parabolic_quasi_coxeter(x)
    )


def orbit_subgroup_correspondence(x: Element, cap: int = DEFAULT_RED_CAP):
    """Pairs (orbit, generated subgroup); the subgroups are pairwise distinct.

    Distinctness is guaranteed by the theory; a repeat would mean a bug, so
    it is enforced here.
    """
    pairs = [(orbit, orbit.subgroup) for orbit in hurwitz_orbits(x, cap)]
    seen = set()
    for _, sub in pairs:
        if sub.refl_set in seen:
            raise InternalInvariantError(
                "two distinct orbits generated the same reflection subgroup"
            )
        seen.add(sub.refl_set)
    return pairs

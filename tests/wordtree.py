"""Oracles for the word and orbit code in ``dual``, ``hurwitz`` and ``cycles``.

Reduced words by walking the whole word tree, forming one product per tree
node; Hurwitz orbits by joining the listed words across single braid moves,
and by bucketing the listed words by the subgroup their letters generate;
and indecomposability by sweeping every element of the group.  They share
only below-sets, reflection length and the word listing with the code under
test; letter sets are closed by a conjugation search of their own, and only
the finished set is turned into a subgroup.
"""

from functools import reduce

from dualcox import (
    below_reflections,
    enumerate_group,
    reduced_expressions,
    reflection_length,
)
from dualcox.subgroups import _get_subgroup


def close(g, letters, seed=()):
    """Reflections of the subgroup generated by reflections: conjugate the
    letters, and a seed of reflections already inside it, by the letters
    until no new reflection appears."""
    rows = [g.reflections[a].images for a in letters]
    closed = set(seed).union(letters)
    queue = list(closed)
    while queue:
        b = queue.pop()
        for row in rows:
            c = row[2 * b] >> 1  # a b a
            if c not in closed:
                closed.add(c)
                queue.append(c)
    return frozenset(closed)


def closure(g, letters):
    """Subgroup generated by reflections."""
    return _get_subgroup(g, close(g, letters))


def iter_reduced_by_tree(x, letters=None):
    """Every reduced reflection word of x, in lexicographic order.

    Prepending a below-reflection t and recursing on t x emits each word
    exactly once.
    """
    if x.is_identity():
        yield ()
        return
    pool = below_reflections(x)
    if letters is not None:
        pool = pool & letters
    refl = x.group.reflections
    for t in sorted(pool):
        for tail in iter_reduced_by_tree(refl[t] * x, letters):
            yield (t,) + tail


def is_indecomposable_over_group(x):
    """Whether no u in the whole group splits x commutingly with additive lengths."""
    total = reflection_length(x)
    if total == 0:
        return False
    if total == 1:
        return True
    for u in enumerate_group(x.group):
        lu = reflection_length(u)
        if not 0 < lu < total:
            continue
        if reflection_length(u.inv() * x) != total - lu:
            continue
        if u * x == x * u:
            return False
    return True


def orbits_by_moves(x):
    """Braid orbits of x as (members, representative, size, subgroup) tuples.

    Each orbit is searched from its least unvisited word along forward and
    inverse moves, (a, b) -> (a b a, a) and (a, b) -> (b, b a b); members
    are sorted, orbits come in order of their least member, and the
    subgroup is the closure of the representative's letters.
    """
    g = x.group

    def conj(a, b):  # index of the reflection a b a
        return g.reflections[a].images[2 * b] >> 1

    red = reduced_expressions(x, cap=10**6)
    assert not red.truncated
    words = red.words
    seen = set()
    orbits = []
    for start in sorted(words):
        if start in seen:
            continue
        seen.add(start)
        members, queue = [start], [start]
        while queue:
            w = queue.pop()
            for p in range(len(w) - 1):
                a, b = w[p], w[p + 1]
                for pair in ((conj(a, b), a), (b, conj(b, a))):
                    moved = w[:p] + pair + w[p + 2:]
                    if moved not in seen:
                        seen.add(moved)
                        members.append(moved)
                        queue.append(moved)
        members.sort()
        rep = members[0]
        subgroup = closure(g, set(rep))
        orbits.append((tuple(members), rep, len(members), subgroup))
    return orbits


def orbits_by_letter_sets(x, cap=10**6):
    """Braid orbits of x as (members, representative, size, subgroup) tuples.

    The listed words are bucketed by the closure of their letter set, once
    per distinct letter set; buckets come in order of their first (least)
    word.  A letter set is closed along the prefixes of its first word:
    each closed set extended by a letter is closed once, seeded with the
    set, so words sharing a prefix share the closed sets along it.
    """
    g = x.group
    red = reduced_expressions(x, cap)
    assert not red.truncated
    entries = {}  # closed set -> (it, letters generating it, its extensions)

    def entry(closed, letters):
        return entries.setdefault(closed, (closed, letters, {}))

    def extend(e, t):
        closed, letters, extensions = e
        ext = extensions.get(t)
        if ext is None:
            new = closed if t in closed else close(g, letters + (t,), closed)
            ext = extensions[t] = entry(new, letters + (t,))
        return ext

    root = entry(frozenset(), ())
    buckets = {}  # closed set -> its words
    bucket_of = {}  # letter set -> its closed set's words
    for w in red.words:
        letters = frozenset(w)
        bucket = bucket_of.get(letters)
        if bucket is None:
            closed = reduce(extend, w, root)[0]
            bucket = bucket_of[letters] = buckets.setdefault(closed, [])
        bucket.append(w)
    return [(tuple(members), members[0], len(members), _get_subgroup(g, closed))
            for closed, members in buckets.items()]

"""Oracles for the word and orbit code in ``dual``, ``hurwitz`` and ``cycles``.

Reduced words by walking the whole word tree, forming one product per tree
node; Hurwitz orbits by joining the listed words across single braid moves,
and by bucketing the listed words by the subgroup their letters generate;
and indecomposability by sweeping every element of the group.  They share
only below-sets, reflection length, the word listing and subgroup closure
with the code under test.
"""

from dualcox import (
    below_reflections,
    enumerate_group,
    reduced_expressions,
    reflection_closure,
    reflection_length,
)


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
        return g.reflections[a].images[b] >> 1

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
        subgroup = reflection_closure(g, set(rep))
        orbits.append((tuple(members), rep, len(members), subgroup))
    return orbits


def orbits_by_letter_sets(x, cap=10**6):
    """Braid orbits of x as (members, representative, size, subgroup) tuples.

    The listed words are bucketed by the closure of their letter set, one
    closure per distinct letter set; buckets come in order of their first
    (least) word.
    """
    red = reduced_expressions(x, cap)
    assert not red.truncated
    buckets = {}  # subgroup -> its words
    bucket_of = {}  # letter set -> its subgroup's words
    for w in red.words:
        letters = frozenset(w)
        bucket = bucket_of.get(letters)
        if bucket is None:
            sub = reflection_closure(x.group, letters)
            bucket = bucket_of[letters] = buckets.setdefault(sub, [])
        bucket.append(w)
    return [(tuple(members), members[0], len(members), sub)
            for sub, members in buckets.items()]

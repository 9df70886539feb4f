"""Oracles for the interval-graph code in ``dual`` and ``cycles``.

Reduced words by walking the whole word tree, forming one product per tree
node, and indecomposability by sweeping every element of the group.  They
share only below-sets and reflection length with the code under test.
"""

from dualcox import below_reflections, enumerate_group, reflection_length


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

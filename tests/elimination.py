"""Exact elimination oracle for absolute order and parabolicity.

The library reads reflection length, below-sets, parabolicity and membership
in parabolic subgroups off sums of root orbits.  These helpers derive the
same facts independently, by Gaussian elimination over Q(sqrt 5): the moved
space of w is the column space of w - 1, and a subgroup is parabolic when no
reflection outside it fixes its common fixed space pointwise.
"""

from construction import _ambient_simples_and_form

from dualcox import reflection_closure
from dualcox.algebra import Matrix, _rref, kernel_basis, vec_dot


def rank(m: Matrix) -> int:
    """Exact rank via Gaussian elimination."""
    rows = [list(r) for r in m.rows]
    _, pivots = _rref(rows)
    return len(pivots)


def fixed_space_dim(m: Matrix) -> int:
    """dim ker(m - I) for a square matrix."""
    if m.n_rows != m.n_cols:
        raise ValueError("fixed_space_dim requires a square matrix")
    return m.n_rows - rank(m - Matrix.identity(m.n_rows))


def in_span(v, basis) -> bool:
    """Whether v lies in the exact linear span of the given vectors."""
    basis = list(basis)
    if any(len(b) != len(v) for b in basis):
        raise ValueError("dimension mismatch")
    if not basis:
        return not any(v)
    rows = [list(b) for b in basis]
    rred, pivots = _rref(rows)
    return reduces_to_zero(v, rred, pivots)


def reduces_to_zero(v, rref_rows, pivots) -> bool:
    """Span test against an already reduced basis (rows in rref form)."""
    residue = list(v)
    for row, p in zip(rref_rows, pivots):
        c = residue[p]
        if c:
            residue = [x - c * y for x, y in zip(residue, row)]
    return not any(residue)


def row_space_rref(vectors):
    """RREF basis of the span of the given vectors: (rows, pivot columns)."""
    rows = [list(v) for v in vectors]
    if not rows:
        return [], []
    rred, pivots = _rref(rows)
    return rred[: len(pivots)], pivots


def moved_space(x):
    """(rref rows, pivots) of Mov(x), the column space of x - 1."""
    g = x.group
    delta = x.matrix() - Matrix.identity(g.ambient_dim)
    return row_space_rref(delta.columns())


def length_and_below(x):
    """Reflection length dim Mov(x) and the reflections whose root lies in Mov(x)."""
    g = x.group
    rows, pivots = moved_space(x)
    below = frozenset(
        t for t in range(g.n_reflections)
        if reduces_to_zero(g.roots[t], rows, pivots)
    )
    return len(rows), below


def is_parabolic_by_fixed_space(sub) -> bool:
    """Whether the reflections fixing the subgroup's fixed space are its own."""
    g = sub.ambient
    _, form = _ambient_simples_and_form(g.descriptor)

    def form_row(alpha):
        """u with dot(u, v) equal to the invariant form of alpha and v."""
        return alpha if form is None else tuple(vec_dot(row, alpha) for row in form)

    gens = sorted(sub.canonical_gens)
    if gens:
        fixed = kernel_basis(Matrix([form_row(g.roots[t]) for t in gens]))
    else:
        fixed = Matrix.identity(g.ambient_dim).rows
    stabilizing = frozenset(
        t for t in range(g.n_reflections)
        if all(not vec_dot(form_row(g.roots[t]), e) for e in fixed)
    )
    return stabilizing == sub.refl_set


def all_reflection_subgroups(g):
    """Every reflection subgroup of g, grown one reflection at a time."""
    found = {frozenset(): reflection_closure(g, ())}
    frontier = [frozenset()]
    while frontier:
        grown = []
        for refl_set in frontier:
            for t in range(g.n_reflections):
                if t in refl_set:
                    continue
                sub = reflection_closure(g, refl_set | {t})
                if sub.refl_set not in found:
                    found[sub.refl_set] = sub
                    grown.append(sub.refl_set)
        frontier = grown
    return list(found.values())

"""Simple-root tables and classical constants.

Every simple root is stated in integers, twice over, so the half-integer
coordinates of E8 and F4 become +-1 and every other coordinate +-2.
Crystallographic families use their classical coordinates, where the
invariant form is the standard dot product:

* ``A_n``   in the sum-zero hyperplane of Q^(n+1);
* ``B_n``   with short root e1 first, then e_i - e_(i+1);
* ``D_n``   with e1 + e2 first, then e_i - e_(i+1) (the fork sits at index 2
  for n = 4, matching the convention that s2 commutes with no other
  generator);
* ``E6/7/8`` with the usual half-integer coordinates in Q^8;
* ``F4, G2`` with their standard integer embeddings.

``H3`` and ``H4`` do not fit in rational coordinates; they use the basis of
simple roots itself, and the invariant form, with entries -cos(pi/m) in
Q(sqrt 5), is given by the Coxeter orders m of the pairs of simple roots.
Dihedral types ``I2(m)`` other than ``A2``, ``B2`` and ``G2`` are handled by
a combinatorial model elsewhere and have no entry here.
"""

from __future__ import annotations

from math import factorial


def _e(i, dim):
    v = [0] * dim
    v[i] = 2
    return v


def _diff(i, j, dim):
    v = [0] * dim
    v[i] = 2
    v[j] = -2
    return v


def simple_root_block(family: str, n: int):
    """(ambient dimension, doubled simple roots, Coxeter orders or None).

    The orders ``{(i, j): m}``, i < j, with m = 2 left out, give the
    invariant form on the simple-root basis; ``None`` means the standard
    dot product on the ambient coordinates.
    """
    if family == "A":
        dim = n + 1
        roots = [_diff(i, i + 1, dim) for i in range(n)]
        return dim, roots, None
    if family == "B":
        # s0 is the sign change on the first coordinate, s_i the transposition
        # (i, i+1); the root signs are chosen to make all pairs obtuse.
        roots = [_e(0, n)] + [_diff(i, i - 1, n) for i in range(1, n)]
        return n, roots, None
    if family == "D":
        # s0 is the paired sign change on the first two coordinates, s_i the
        # transposition (i, i+1); the fork of the diagram sits at s2.
        first = [0] * n
        first[0] = first[1] = -2
        roots = [first] + [_diff(i - 1, i, n) for i in range(1, n)]
        return n, roots, None
    if family == "E":
        dim = 8
        roots = [
            [1, -1, -1, -1, -1, -1, -1, 1],
            [2, 2, 0, 0, 0, 0, 0, 0],
            [-2, 2, 0, 0, 0, 0, 0, 0],
            _diff(2, 1, dim),
            _diff(3, 2, dim),
            _diff(4, 3, dim),
            _diff(5, 4, dim),
            _diff(6, 5, dim),
        ]
        return dim, roots[:n], None
    if family == "F":
        roots = [
            [0, 2, -2, 0],
            [0, 0, 2, -2],
            [0, 0, 0, 2],
            [1, -1, -1, -1],
        ]
        return 4, roots, None
    if family == "G":
        return 3, [[2, -2, 0], [-4, 2, 2]], None
    if family == "H":
        orders = {(0, 1): 5, (1, 2): 3, (2, 3): 3}
        orders = {k: v for k, v in orders.items() if k[1] < n}
        roots = [_e(i, n) for i in range(n)]
        return n, roots, orders
    raise ValueError(f"unknown family {family!r}")


_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
    ("H", 3): 120,
    ("H", 4): 14400,
}

_EXCEPTIONAL_ROOT_COUNTS = {
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
    ("H", 3): 15,
    ("H", 4): 60,
}


def component_order(family: str, n: int) -> int:
    """Classical order of the component group."""
    if family == "A":
        return factorial(n + 1)
    if family == "B":
        return 2**n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    if family == "I":
        return 2 * n
    return _EXCEPTIONAL_ORDERS[(family, n)]


def component_root_count(family: str, n: int) -> int:
    """Classical number of positive roots of the component."""
    if family == "A":
        return n * (n + 1) // 2
    if family == "B":
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "I":
        return n
    return _EXCEPTIONAL_ROOT_COUNTS[(family, n)]

"""Permutation and signed-permutation models for types A, B and D.

These are independent of the root-system machinery: elements convert to
window notation by reading their matrices, composition is plain index
composition, and cycle decompositions are computed combinatorially.  They
serve as differential-testing oracles for the dual-order code.

Cycle text follows the signed convention: ``(1,-2,-1,2)`` maps 1 to -2,
-2 to -1, -1 to 2 and 2 back to 1.  Cycles moving i and -i in one orbit
appear once; mirror-pair orbits are printed from their positive entry point.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .algebra import Matrix, Scalar
from .coxeter import CoxeterSystem, Element, element_from_matrix
from .errors import WordParseError

_ONE = Scalar(1)
_MINUS_ONE = Scalar(-1)


class Permutation(namedtuple("Permutation", "images")):
    """Bijection of {1, ..., n}; images[i] is the image of i+1."""

    __slots__ = ()

    def __new__(cls, images):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a bijection")
        return super().__new__(cls, images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(tuple(self(other(i)) for i in range(1, len(self.images) + 1)))

    @property
    def n(self) -> int:
        return len(self.images)


class SignedPermutation(namedtuple("SignedPermutation", "window")):
    """Signed bijection of {1, ..., n}: window[i] = w(i+1) in {+-1, ..., +-n}.

    Negatives obey w(-i) = -w(i).  The even-signs subfamily is the type D
    group inside type B.
    """

    __slots__ = ()

    def __new__(cls, window):
        if sorted(abs(v) for v in window) != list(range(1, len(window) + 1)):
            raise ValueError("window entries must use each of 1..n once, up to sign")
        return super().__new__(cls, window)

    def __call__(self, i: int) -> int:
        return self.window[i - 1] if i > 0 else -self.window[-i - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return SignedPermutation(
            tuple(self(other(i)) for i in range(1, len(self.window) + 1))
        )

    @property
    def n(self) -> int:
        return len(self.window)

    @property
    def negative_count(self) -> int:
        return sum(1 for v in self.window if v < 0)


def _single_family(g: CoxeterSystem, families: str) -> str:
    if len(g.descriptor.components) != 1:
        raise ValueError(f"{g.type_string} is not a single component of type {families}")
    family = g.descriptor.components[0][0]
    if family not in families:
        raise ValueError(f"{g.type_string} has no {families}-type permutation model")
    return family


def to_permutation(x: Element) -> Permutation:
    """Permutation model of an element of a type A group (acting on n+1 points)."""
    _single_family(x.group, "A")
    m = x.matrix()
    images = [0] * m.n_cols
    for j in range(m.n_cols):
        col = m.column(j)
        k = next(i for i, e in enumerate(col) if e)
        if col[k] != _ONE or any(e for i, e in enumerate(col) if i != k):
            raise ValueError("matrix is not a permutation matrix")
        images[j] = k + 1
    return Permutation(tuple(images))


def to_signed(x: Element) -> SignedPermutation:
    """Signed-permutation model of an element of a type B or D group."""
    family = _single_family(x.group, "BD")
    m = x.matrix()
    window = [0] * m.n_cols
    for j in range(m.n_cols):
        col = m.column(j)
        k = next(i for i, e in enumerate(col) if e)
        if col[k] not in (_ONE, _MINUS_ONE) or any(
            e for i, e in enumerate(col) if i != k
        ):
            raise ValueError("matrix is not a signed permutation matrix")
        window[j] = (k + 1) if col[k] == _ONE else -(k + 1)
    sp = SignedPermutation(tuple(window))
    if family == "D" and sp.negative_count % 2:
        raise ValueError("type D elements must have an even number of sign changes")
    return sp


def element_from_permutation(g: CoxeterSystem, p: Permutation) -> Element:
    """Inverse of :func:`to_permutation`."""
    _single_family(g, "A")
    n = p.n
    if n != g.ambient_dim:
        raise ValueError("permutation size does not match the group")
    rows = [[Scalar(1 if p(j + 1) == i + 1 else 0) for j in range(n)] for i in range(n)]
    return element_from_matrix(g, Matrix(rows))


def element_from_signed(g: CoxeterSystem, sp: SignedPermutation) -> Element:
    """Inverse of :func:`to_signed`."""
    family = _single_family(g, "BD")
    n = sp.n
    if n != g.ambient_dim:
        raise ValueError("signed permutation size does not match the group")
    if family == "D" and sp.negative_count % 2:
        raise ValueError("odd number of sign changes does not lie in the type D group")
    rows = [[Scalar(0)] * n for _ in range(n)]
    for j in range(n):
        v = sp(j + 1)
        rows[abs(v) - 1][j] = Scalar(1 if v > 0 else -1)
    return element_from_matrix(g, Matrix(rows))


def classical_cycles(p: Permutation):
    """Nontrivial cycles of a permutation, least point first, sorted."""
    seen = set()
    cycles = []
    for start in range(1, p.n + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = p(start)
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = p(cur)
        if len(cycle) >= 2:
            cycles.append(tuple(cycle))
    return cycles


def signed_cycles(sp: SignedPermutation):
    """Nontrivial signed cycles, each traced from its least positive entry.

    An orbit through both i and -i yields a single cycle visiting signed
    values; an orbit avoiding negatives of its own support represents its
    mirror pair too and is listed once.
    """
    seen = set()
    cycles = []
    for start in range(1, sp.n + 1):
        if start in seen:
            continue
        if sp(start) == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        cur = sp(start)
        while cur != start:
            cycle.append(cur)
            seen.add(abs(cur))
            cur = sp(cur)
        cycles.append(tuple(cycle))
    return cycles


def perm_reflection_length(p: Permutation) -> int:
    """n minus the number of cycles (fixed points included)."""
    seen = set()
    n_cycles = 0
    for start in range(1, p.n + 1):
        if start in seen:
            continue
        n_cycles += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = p(cur)
    return p.n - n_cycles


def cycles_str(cycles) -> str:
    """Text form of a cycle list; the identity prints as ``()``."""
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(v) for v in c) + ")" for c in cycles)


_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str):
    """Parse ``(1,-2)(3,4)`` into a list of integer tuples."""
    text = text.strip()
    if text in ("", "()"):
        return []
    pos = 0
    cycles = []
    for m in _CYCLE_TOKEN.finditer(text):
        if m.start() != pos:
            raise WordParseError("malformed cycle form", position=pos)
        body = m.group(1).strip()
        if not body:
            pos = m.end()
            continue
        try:
            entries = tuple(int(v.strip()) for v in body.split(","))
        except ValueError:
            raise WordParseError("cycle entries must be integers",
                                 position=m.start()) from None
        if any(v == 0 for v in entries):
            raise WordParseError("cycle entries must be nonzero", position=m.start())
        cycles.append(entries)
        pos = m.end()
    if pos != len(text):
        raise WordParseError("malformed cycle form", position=pos)
    return cycles


def signed_from_cycles(n: int, cycles) -> SignedPermutation:
    """Signed permutation on n letters from parsed cycles."""
    images = {}

    def set_image(a, b):
        for src, dst in ((a, b), (-a, -b)):
            if src in images and images[src] != dst:
                raise WordParseError(f"conflicting images for {src} in cycle form")
            images[src] = dst

    for cycle in cycles:
        for v in cycle:
            if abs(v) > n:
                raise WordParseError(f"cycle entry {v} exceeds the rank {n}")
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            set_image(a, b)
    window = tuple(images.get(i, i) for i in range(1, n + 1))
    return SignedPermutation(window)

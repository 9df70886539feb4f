"""Permutation and signed-permutation models for types A, B and D.

Elements convert to windows along their simple-reflection words, and back
by mapping every root through the window, with no matrix; composition is
plain index composition, and cycle decompositions are computed
combinatorially.  They serve as differential-testing oracles for the
dual-order code.

Cycle text follows the signed convention: ``(1,-2,-1,2)`` maps 1 to -2,
-2 to -1, -1 to 2 and 2 back to 1.  Cycles moving i and -i in one orbit
appear once; mirror-pair orbits are printed from their positive entry point.
"""

from __future__ import annotations

import re
from collections import namedtuple

from . import rootdata
from .coxeter import CoxeterSystem, Element, _element_from_root_map
from .errors import WordParseError


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


def _window(x: Element) -> list:
    """Signed images of the axes 1..n, composed along ``x.s_word()``.

    A simple root of ``rootdata`` is a positive multiple of c_a e_a + c_b e_b,
    or of c_a e_a taken with b = a, for signs c; its reflection sends e_a to
    -c_a c_b e_b and e_b to -c_a c_b e_a.
    """
    g = x.group
    moves = []
    for root in rootdata.simple_root_block(*g.descriptor.components[0])[1]:
        (a, ca), *other = [(k, 1 if c > 0 else -1) for k, c in enumerate(root) if c]
        (b, cb), = other or [(a, ca)]
        moves.append((a, b, -ca * cb))
    window = list(range(1, g.ambient_dim + 1))
    for i in x.s_word():  # window = window * s_i
        a, b, c = moves[i]
        window[a], window[b] = c * window[b], c * window[a]
    return window


def to_permutation(x: Element) -> Permutation:
    """Permutation model of an element of a type A group (acting on n+1 points)."""
    _single_family(x.group, "A")
    return Permutation(tuple(_window(x)))


def to_signed(x: Element) -> SignedPermutation:
    """Signed-permutation model of an element of a type B or D group."""
    _single_family(x.group, "BD")
    return SignedPermutation(tuple(_window(x)))


def _from_window(g: CoxeterSystem, window) -> Element:
    if len(window) != g.ambient_dim:
        raise ValueError("window size does not match the group")

    def image(root):
        img = [None] * len(window)
        for c, v in zip(root, window):
            img[abs(v) - 1] = c if v > 0 else -c
        return tuple(img)

    # twice the ambient coordinates, one int per axis: A, B and D have no phi
    index = {tuple(p for p, in a): t for t, a in enumerate(g._ambient)}
    return _element_from_root_map(g, index, image)


def element_from_permutation(g: CoxeterSystem, p: Permutation) -> Element:
    """Inverse of :func:`to_permutation`."""
    _single_family(g, "A")
    return _from_window(g, p.images)


def element_from_signed(g: CoxeterSystem, sp: SignedPermutation) -> Element:
    """Inverse of :func:`to_signed`."""
    family = _single_family(g, "BD")
    if family == "D" and sp.negative_count % 2:
        raise ValueError("odd number of sign changes does not lie in the type D group")
    return _from_window(g, sp.window)


def classical_cycles(p: Permutation):
    """Nontrivial cycles of a permutation, least point first, sorted: the
    signed cycles of p read as a signed permutation with no sign change."""
    return signed_cycles(SignedPermutation(p.images))


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
    """n minus the number of cycles: a k-cycle adds k - 1, a fixed point 0."""
    return sum(len(c) - 1 for c in classical_cycles(p))


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

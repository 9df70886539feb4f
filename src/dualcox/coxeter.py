"""Finite Coxeter systems and exact group elements.

A group is built once from its descriptor.  For types with a linear model the
positive roots are generated to closure from the simple roots, sorted
lexicographically by coordinates so repeated builds index reflections
identically, and every element is stored as a signed permutation of the
positive roots: ``w(alpha_i) = +-alpha_j``.  Matrices in the reflection
representation are reconstructed on demand from that action and cached.

``I2(m)`` for m not in {3, 4, 5, 6} has no model over Q(sqrt 5); those groups
use a combinatorial dihedral model that still exposes the signed action on m
abstract "positive roots" (the mirrors), so all word, subgroup and orbit
machinery works unchanged.  Only matrix-based operations are unavailable
there.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import reduce

from . import rootdata
from .algebra import (
    Matrix,
    Scalar,
    Vector,
    invert,
    kernel_basis,
    vec_dot,
    vec_neg,
    vec_scale,
    vec_sub,
    vector,
)
from .errors import (
    GroupTooLargeError,
    MixedGroupsError,
    NoLinearModelError,
    UnsupportedTypeError,
)
from .limits import DEFAULT_ENUM_CAP, MAX_ROOTS

ReflWord = tuple  # tuple[int, ...]: reflection indices

_FAMILY_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
    "H": (3, 4),
    "I": (3, None),
}

# dihedral types that coincide with crystallographic rank-2 types
_I2_ALIASES = {3: ("A", 2), 4: ("B", 2), 6: ("G", 2)}


@dataclass(frozen=True, order=True)
class CoxeterDescriptor:
    """Normalized product of finite-type components.

    Components are (family letter, rank-or-parameter) pairs, sorted so equal
    products compare equal.  ``I2(3)``, ``I2(4)`` and ``I2(6)`` normalize to
    ``A2``, ``B2`` and ``G2``.
    """

    components: tuple[tuple[str, int], ...]

    _COMPONENT_RE = re.compile(r"^(?:([ABDEFGH])(\d+)|I2\((\d+)\))$")

    @classmethod
    def parse(cls, text: str) -> "CoxeterDescriptor":
        components = []
        pos = 0
        for piece in text.split("x"):
            m = cls._COMPONENT_RE.match(piece)
            if m is None:
                raise UnsupportedTypeError(
                    f"cannot parse type component {piece!r}", position=pos
                )
            if m.group(1) is not None:
                family, n = m.group(1), int(m.group(2))
            else:
                family, n = "I", int(m.group(3))
            lo, hi = _FAMILY_BOUNDS[family]
            if n < lo or (hi is not None and n > hi):
                raise UnsupportedTypeError(
                    f"rank {n} out of range for family {family}", position=pos
                )
            if family == "I" and n in _I2_ALIASES:
                family, n = _I2_ALIASES[n]
            components.append((family, n))
            pos += len(piece) + 1
        if not components:
            raise UnsupportedTypeError("empty type string", position=0)
        components.sort()
        dihedral = [c for c in components if c[0] == "I"]
        if dihedral and len(components) > 1:
            raise UnsupportedTypeError(
                "I2(m) with m >= 7 is only supported as a standalone type"
            )
        return cls(tuple(components))

    @property
    def rank(self) -> int:
        return sum(2 if f == "I" else n for f, n in self.components)

    @property
    def is_dihedral_model(self) -> bool:
        return self.components[0][0] == "I"

    def __str__(self):
        return "x".join(
            f"I2({n})" if f == "I" else f"{f}{n}" for f, n in self.components
        )


def classical_order(descriptor) -> int:
    """Order of the group, from the classical product formulas."""
    descriptor = _as_descriptor(descriptor)
    order = 1
    for family, n in descriptor.components:
        order *= rootdata.component_order(family, n)
    return order


def classical_root_count(descriptor) -> int:
    """Number of positive roots, from the classical tables."""
    descriptor = _as_descriptor(descriptor)
    return sum(rootdata.component_root_count(f, n) for f, n in descriptor.components)


def _as_descriptor(d) -> CoxeterDescriptor:
    return d if isinstance(d, CoxeterDescriptor) else CoxeterDescriptor.parse(d)


class Element:
    """Group element as a signed permutation of the positive roots.

    ``images[i]`` encodes the image of root i as ``(j << 1) | neg``: the root
    index in the high bits and the sign in the lowest bit.
    """

    __slots__ = ("group", "images", "_hash", "_matrix")

    def __init__(self, group: "CoxeterSystem", images: tuple):
        self.group = group
        self.images = images
        self._hash = None
        self._matrix = None

    def __mul__(self, other: "Element") -> "Element":
        if self.group is not other.group:
            raise MixedGroupsError("cannot multiply elements of different groups")
        xi = self.images
        return Element(
            self.group, tuple(xi[e >> 1] ^ (e & 1) for e in other.images)
        )

    def inv(self) -> "Element":
        out = [0] * len(self.images)
        for j, e in enumerate(self.images):
            out[e >> 1] = (j << 1) | (e & 1)
        return Element(self.group, tuple(out))

    def order(self) -> int:
        k, x = 1, self
        ident = self.group.identity
        while x != ident:
            x = x * self
            k += 1
        return k

    def is_identity(self) -> bool:
        return self.images == self.group.identity.images

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.group is other.group
            and self.images == other.images
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def root_image(self, t: int) -> tuple[int, int]:
        """Image of the t-th positive root: (root index, sign)."""
        e = self.images[t]
        return e >> 1, -1 if e & 1 else 1

    def conjugate_reflection(self, t: int) -> int:
        """Index of self * t * self^-1, read off the root action."""
        return self.images[t] >> 1

    def matrix(self) -> Matrix:
        """Exact matrix on the ambient space of the root coordinates."""
        g = self.group
        if not g.is_linear:
            raise NoLinearModelError(
                f"{g.type_string} has no linear model; it uses the "
                "combinatorial dihedral representation"
            )
        if self._matrix is None:
            cols = []
            for k in g.simple_ids:
                e = self.images[k]
                root = g.roots[e >> 1]
                cols.append(vec_neg(root) if e & 1 else root)
            cols.extend(g._complement)
            self._matrix = Matrix.from_columns(cols) @ g._basis_inv
        return self._matrix

    def s_word(self) -> tuple:
        """Canonical reduced word in the simple generators (descent walk).

        Repeatedly strips the smallest right descent; the collected letters,
        reversed, multiply back to the element.
        """
        g = self.group
        letters = []
        x = self
        ident = g.identity
        while x != ident:
            for i, k in enumerate(g.simple_ids):
                if x.images[k] & 1:
                    break
            else:  # pragma: no cover - impossible for a nonidentity element
                raise RuntimeError("nonidentity element with no descent")
            letters.append(i)
            x = x * g.simple[i]
        return tuple(reversed(letters))

    def __repr__(self):
        word = " ".join(str(i) for i in self.s_word())
        return f"<{self.group.type_string}: s-word [{word}]>"


class CoxeterSystem:
    """Immutable context for one finite Coxeter group.

    Do not call the constructor directly; use :func:`build_group`, which
    caches systems so elements of equal descriptors share one context.
    """

    def __init__(self, descriptor: CoxeterDescriptor):
        n_roots = classical_root_count(descriptor)
        if n_roots > MAX_ROOTS:
            raise GroupTooLargeError(
                f"{descriptor} has {n_roots} positive roots; building its "
                f"reflection table is limited to {MAX_ROOTS}",
                cap=MAX_ROOTS,
            )
        self.descriptor = descriptor
        self.is_linear = not descriptor.is_dihedral_model
        self.dihedral_m = None if self.is_linear else descriptor.components[0][1]
        if self.is_linear:
            self._build_linear()
        else:
            self._build_dihedral()
        self.identity = Element(
            self, tuple(j << 1 for j in range(self.n_reflections))
        )
        self.reflections = tuple(
            Element(self, images) for images in self._reflection_images
        )
        del self._reflection_images
        self.simple = tuple(self.reflections[k] for k in self.simple_ids)
        self.rank = len(self.simple_ids)
        self.coxeter_matrix = self._coxeter_matrix()
        # caches shared by the higher layers
        self._refl_lookup = {r.images: t for t, r in enumerate(self.reflections)}
        self._below_cache = {}
        self._all_elements = None
        self._subgroup_registry = {}

    # -- construction -----------------------------------------------------

    def _build_linear(self):
        blocks = [
            rootdata.simple_root_block(f, n) for f, n in self.descriptor.components
        ]
        dim = sum(b[0] for b in blocks)
        simples: list[Vector] = []
        forms = []
        offset = 0
        for bdim, roots, form in blocks:
            for r in roots:
                simples.append(vector([0] * offset + list(r) + [0] * (dim - offset - bdim)))
            forms.append((offset, bdim, form))
            offset += bdim
        self.ambient_dim = dim
        if all(f is None for _, _, f in forms):
            self.form = None
        else:
            rows = [[Scalar(0)] * dim for _ in range(dim)]
            for off, bdim, form in forms:
                for i in range(bdim):
                    for j in range(bdim):
                        if form is None:
                            rows[off + i][off + j] = Scalar(1 if i == j else 0)
                        else:
                            rows[off + i][off + j] = form[i][j]
            self.form = tuple(tuple(r) for r in rows)

        norms = {a: self._pair(a, a) for a in simples}
        pos = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for beta in frontier:
                for alpha in simples:
                    if beta == alpha:
                        continue  # would flip to the negative root
                    img = self._reflect(beta, alpha, norms[alpha])
                    if img not in pos:
                        pos.add(img)
                        nxt.append(img)
            frontier = nxt
        if any(vec_neg(r) in pos for r in pos):
            # only possible if the root table is not a genuine simple system
            raise RuntimeError(
                f"root closure for {self.descriptor} mixed signs; bad root table"
            )
        self.roots = tuple(sorted(pos))
        self.n_reflections = len(self.roots)
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self.simple_ids = tuple(self.root_index[a] for a in simples)

        images = []
        for alpha in self.roots:
            norm = self._pair(alpha, alpha)
            row = []
            for beta in self.roots:
                img = self._reflect(beta, alpha, norm)
                k = self.root_index.get(img)
                row.append((k << 1) if k is not None
                           else (self.root_index[vec_neg(img)] << 1) | 1)
            images.append(tuple(row))
        self._reflection_images = images

        # ambient basis: simple roots extended by the form-orthogonal
        # complement, which every group element fixes pointwise
        rows = [self._form_row(a) for a in simples]
        self._complement = tuple(kernel_basis(Matrix(rows)))
        basis = Matrix.from_columns(list(simples) + list(self._complement))
        self._basis_inv = invert(basis)

    def _build_dihedral(self):
        m = self.dihedral_m
        self.ambient_dim = None
        self.form = None
        self.roots = None
        self.root_index = None
        self.n_reflections = m
        # mirror j sits at angle j*pi/m; its root at j*pi/m + pi/2.  The
        # reflection in mirror j sends root k to the vector at (2j - k)*pi/m
        # + pi/2 - pi, i.e. root (2j - k) mod m with a sign from the wrap.
        images = []
        for j in range(m):
            row = []
            for k in range(m):
                kk = (2 * j - k) % m
                q = (2 * j - k - kk) // m - 1
                row.append((kk << 1) | (q & 1))
            images.append(tuple(row))
        self._reflection_images = images
        self.simple_ids = (0, m - 1)
        self._complement = ()
        self._basis_inv = None

    def _pair(self, u: Vector, v: Vector) -> Scalar:
        if self.form is None:
            return vec_dot(u, v)
        return vec_dot(u, tuple(vec_dot(row, v) for row in self.form))

    def _form_row(self, alpha: Vector) -> Vector:
        """Vector u with standard-dot(u, v) = pairing(alpha, v)."""
        if self.form is None:
            return alpha
        return tuple(vec_dot(row, alpha) for row in self.form)

    def _reflect(self, v: Vector, alpha: Vector, alpha_norm: Scalar) -> Vector:
        c = (self._pair(alpha, v) * 2) / alpha_norm
        return vec_sub(v, vec_scale(c, alpha))

    def _coxeter_matrix(self):
        if not self.is_linear:
            m = self.dihedral_m
            return ((1, m), (m, 1))
        rows = []
        for a in self.simple:
            row = []
            for b in self.simple:
                row.append(1 if a == b else (a * b).order())
            rows.append(tuple(row))
        return tuple(rows)

    # -- conveniences -------------------------------------------------------

    @property
    def type_string(self) -> str:
        return str(self.descriptor)

    @property
    def order(self) -> int:
        return classical_order(self.descriptor)

    @property
    def positive_roots(self):
        return self.roots

    @property
    def simple_roots(self):
        if not self.is_linear:
            return None
        return tuple(self.roots[k] for k in self.simple_ids)

    def reflection_index(self, x: Element) -> int | None:
        """Index of x among the reflections, or None if x is not one."""
        return self._refl_lookup.get(x.images)

    def __repr__(self):
        return f"CoxeterSystem({self.type_string})"


_BUILD_CACHE: dict[CoxeterDescriptor, CoxeterSystem] = {}


def build_group(descriptor) -> CoxeterSystem:
    """Build (or fetch the cached) system for a descriptor or type string."""
    descriptor = _as_descriptor(descriptor)
    system = _BUILD_CACHE.get(descriptor)
    if system is None:
        system = _BUILD_CACHE[descriptor] = CoxeterSystem(descriptor)
    return system


def element_from_simple_word(g: CoxeterSystem, word) -> Element:
    """Product of simple reflections, leftmost letter first."""
    for i in word:
        if not 0 <= i < g.rank:
            raise IndexError(f"simple index {i} out of range for {g.type_string}")
    return reduce(lambda acc, i: acc * g.simple[i], word, g.identity)


def element_from_refl_word(g: CoxeterSystem, word) -> Element:
    """Product of reflections t_1 t_2 ... t_k, leftmost letter first."""
    for t in word:
        if not 0 <= t < g.n_reflections:
            raise IndexError(
                f"reflection index {t} out of range for {g.type_string}"
            )
    return reduce(lambda acc, t: acc * g.reflections[t], word, g.identity)


def enumerate_group(g: CoxeterSystem, cap: int = DEFAULT_ENUM_CAP):
    """Every element exactly once, by BFS over the simple generators.

    The full listing is cached on the system after the first successful
    sweep.  Raises GroupTooLargeError when the group has more than ``cap``
    elements.
    """
    if g._all_elements is not None:
        if len(g._all_elements) > cap:
            raise GroupTooLargeError(
                f"{g.type_string} has {len(g._all_elements)} elements, "
                f"above the cap of {cap}",
                cap=cap,
            )
        return g._all_elements
    elements = [g.identity]
    seen = {g.identity.images}
    queue = deque(elements)
    while queue:
        x = queue.popleft()
        for s in g.simple:
            y = x * s
            if y.images not in seen:
                if len(seen) >= cap:
                    raise GroupTooLargeError(
                        f"{g.type_string} is too large for exhaustive mode "
                        f"(cap {cap})",
                        cap=cap,
                    )
                seen.add(y.images)
                elements.append(y)
                queue.append(y)
    g._all_elements = tuple(elements)
    return g._all_elements


def element_from_matrix(g: CoxeterSystem, m: Matrix) -> Element:
    """Element of g whose reflection-representation matrix is m.

    The matrix must map every positive root to a signed positive root;
    otherwise it does not define an element of the group.
    """
    if not g.is_linear:
        raise NoLinearModelError(f"{g.type_string} has no matrix model")
    if m.n_rows != g.ambient_dim or m.n_cols != g.ambient_dim:
        raise ValueError("matrix has the wrong shape for this group")
    images = []
    for root in g.roots:
        img = m.apply(root)
        k = g.root_index.get(img)
        if k is not None:
            images.append(k << 1)
            continue
        k = g.root_index.get(vec_neg(img))
        if k is None:
            raise ValueError("matrix does not permute the root system")
        images.append((k << 1) | 1)
    if len({e >> 1 for e in images}) != g.n_reflections:
        raise ValueError("matrix action on roots is not a bijection")
    return Element(g, tuple(images))


def embed_by_roots(x: Element, target: CoxeterSystem) -> Element:
    """Transport x to a group whose root system contains the source roots.

    Both groups must share ambient coordinates (for instance the long roots
    of B_n form a D_n system in the same space).  The element is matched by
    its exact matrix.
    """
    g = x.group
    if not g.is_linear or not target.is_linear:
        raise NoLinearModelError("root embedding needs linear models on both sides")
    if g.ambient_dim != target.ambient_dim:
        raise ValueError("ambient dimensions differ; no common root coordinates")
    return element_from_matrix(target, x.matrix())


def is_conjugate(x: Element, y: Element, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Conjugacy test by sweeping the whole (capped) group."""
    if x.group is not y.group:
        raise MixedGroupsError("conjugacy is only defined within one group")
    return any((g * x) * g.inv() == y for g in enumerate_group(x.group, cap))

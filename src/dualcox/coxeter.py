"""Finite Coxeter systems and exact group elements.

A group is built once from its descriptor, in integers only.  For types
with a linear model the Cartan entries <alpha_j, alpha_i^vee> = 2 (alpha_j,
alpha_i) / (alpha_i, alpha_i) are read off ``rootdata``: from the dot
products of its doubled integer simple roots, or as -2 cos(pi/m) from the
Coxeter orders of an H block.  They lie in Z for the crystallographic types
and in Z[phi] = {p + q*phi}, phi the golden ratio, for H3 and H4, so every
root has integer coordinates in the basis of simple roots: a flat int tuple
with one int per simple root, or an interleaved (p, q) pair per simple root
when some entry is irrational.  The positive roots are generated by
breadth-first search from the simple roots with s_i(beta) = beta - <beta,
alpha_i^vee> alpha_i (Humphreys, *Reflection Groups and Coxeter Groups*,
sections 1-2).

Each root is mapped once to twice its ambient coordinates, an integer
p + q*phi per axis, and the roots are sorted by their real values, compared
by an exact integer sign test, so repeated builds index reflections
identically; the ``Scalar`` roots in Q or Q(sqrt 5) are built from these on
first use.  Every element is stored as its permutation of the
2N signed roots, point 2j being +alpha_j and point 2j + 1 being -alpha_j.
Up to 256 points (N <= 128, E8 included) the permutation is ``bytes``, one
byte an entry, and a product is one ``bytes.translate``; above that it is a
tuple whose entries are picked from one shared ``tuple(range(2N))``, one
8-byte pointer an entry and no int object of its own, and a product is one
C-level ``itemgetter``.  Each group chooses its container once, and every
element of it uses that one.  The rows of the simple reflections are read
off the search; the reflection in any other root s_i(beta) is the conjugate
s_i s_beta s_i, a product of rows that needs no arithmetic; the rows are
composed as tuples and packed into the container once.  The Coxeter
matrix is read off these tables for every model: m_ij is the number of
reflections in the dihedral subgroup <s_i, s_j>.  Matrices in the
reflection representation are computed from the root action on each call.

``I2(m)`` for m not in {3, 4, 6} uses a combinatorial dihedral model that
still exposes the signed action on m abstract "positive roots" (the
mirrors), so all word, subgroup and orbit machinery works unchanged.  Only
matrix-based operations are unavailable there.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, cmp_to_key, reduce
from itertools import count
from operator import attrgetter, itemgetter, mul

from . import rootdata
from .algebra import Matrix, Scalar, invert, kernel_basis, vec_neg
from .errors import (
    GroupTooLargeError,
    MixedGroupsError,
    NoLinearModelError,
    UnsupportedTypeError,
)
from .limits import DEFAULT_ENUM_CAP, MAX_ROOTS, read_int

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


class CoxeterDescriptor(namedtuple("CoxeterDescriptor", "components")):
    """Normalized product of finite-type components.

    Components are (family letter, rank-or-parameter) pairs, sorted so equal
    products compare equal.  ``I2(3)``, ``I2(4)`` and ``I2(6)`` normalize to
    ``A2``, ``B2`` and ``G2``.
    """

    __slots__ = ()
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
            family = m.group(1) or "I"
            n = read_int(m.group(2) or m.group(3), UnsupportedTypeError, pos)
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
        dihedral = [n for f, n in components if f == "I"]
        if dihedral and len(components) > 1:
            raise UnsupportedTypeError(
                f"I2({dihedral[0]}) is only supported as a standalone type"
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
    """Group element as a permutation of the 2N signed roots.

    Point 2i is the positive root i and point 2i + 1 its negative, so
    ``images[2i]`` encodes the image of root i as ``(j << 1) | neg``, the
    root index in the high bits and the sign in the lowest bit, and
    ``images[2i + 1] == images[2i] ^ 1``.  ``images`` is ``bytes`` when
    2N <= 256 and a tuple otherwise, the same for every element of a group;
    either gives an int when indexed.
    """

    __slots__ = ("group", "images")

    def __init__(self, group: "CoxeterSystem", images: bytes | tuple):
        self.group = group
        self.images = images

    def __mul__(self, other: "Element") -> "Element":
        g = self.group
        if g is not other.group:
            raise MixedGroupsError("cannot multiply elements of different groups")
        pad = g._pad
        if pad is None:
            return Element(g, itemgetter(*other.images)(self.images))
        return Element(g, other.images.translate(self.images + pad))

    def inv(self) -> "Element":
        out = [0] * len(self.images)
        for p, e in enumerate(self.images):
            out[e] = p
        return self.group._element(tuple(out))

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
        return hash(self.images)

    def conjugate_reflection(self, t: int) -> int:
        """Index of self * t * self^-1, read off the root action."""
        return self.images[2 * t] >> 1

    def matrix(self) -> Matrix:
        """Exact matrix on the ambient space of the root coordinates."""
        g = self.group
        if not g.is_linear:
            raise NoLinearModelError(
                f"{g.type_string} has no linear model; it uses the "
                "combinatorial dihedral representation"
            )
        cols = []
        for k in g.simple_ids:
            e = self.images[2 * k]
            root = g.roots[e >> 1]
            cols.append(vec_neg(root) if e & 1 else root)
        cols.extend(g._complement)
        return Matrix.from_columns(cols) @ g._basis_inv

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
                if x.images[2 * k] & 1:
                    break
            else:  # only a root permutation outside W has no descent
                raise ValueError("not in the group: the descent walk stops before 1")
            letters.append(i)
            x = x * g.simple[i]
        return tuple(reversed(letters))

    def __repr__(self):
        word = " ".join(str(i) for i in self.s_word())
        return f"<{self.group.type_string}: s-word [{word}]>"


def _times(c: tuple[int, int], j: int, width: int):
    """Integer rows of v -> c * v_j, one per slot, on flat coordinates.

    Coordinate j of a flat vector is the slot j*width (its integer part)
    and, for width 2, the slot j*width + 1 (its phi part).  Terms are
    (slot, coefficient) pairs with zero coefficients left out.
    """
    p, q = c
    if width == 1:
        rows = ([(j, p)],)
    else:
        rows = ([(2 * j, p), (2 * j + 1, q)], [(2 * j, q), (2 * j + 1, p + q)])
    return [[t for t in row if t[1]] for row in rows]


def _on_signed_points(codes, points) -> tuple:
    """Images of the 2N signed points, from the N codes of the positive
    roots, as entries of ``points``, the identity's images."""
    return itemgetter(*[e ^ neg for e in codes for neg in (0, 1)])(points)


def _half_scalar(value: tuple) -> Scalar:
    """The number (p + q*phi) / 2 for value (p,) or (p, q)."""
    p, q = value[0], value[1] if len(value) > 1 else 0
    return Scalar(Fraction(2 * p + q, 4), Fraction(q, 4))


def _sign(p: int, q: int) -> int:
    """Exact sign of p + q*phi, the sign of a + q*sqrt5 with a = 2p + q: the
    term of larger square decides."""
    big = 2 * p + q if (2 * p + q) ** 2 > 5 * q * q else q
    return (big > 0) - (big < 0)


# -2 cos(pi/m) = p + q*phi for the Coxeter orders of an H block
_NEG_2COS = {2: (0, 0), 3: (-1, 0), 5: (0, -1)}


def _cartan(i: int, j: int, roots, orders) -> tuple[int, int]:
    """<alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i) in
    one block, as a Z[phi] pair, from its doubled roots or Coxeter orders."""
    if orders is None:
        a, b = roots[i], roots[j]
        return 2 * sum(map(mul, a, b)) // sum(map(mul, a, a)), 0
    if i == j:
        return 2, 0
    return _NEG_2COS[orders.get((min(i, j), max(i, j)), 2)]


def _search_roots(cartan, rank: int, width: int):
    """Positive roots in flat simple-root coordinates, by breadth-first search.

    Returns the roots in discovery order (simple roots first), the parent
    (i, b) of every other root, which is s_i applied to root b, and for
    each i the encoded image of every root under s_i.
    """
    coroots = [[[] for _ in range(width)] for _ in range(rank)]
    for (i, j), c in cartan.items():
        for slot, terms in zip(coroots[i], _times(c, j, width)):
            slot.extend(terms)
    coords = [tuple(int(m == i * width) for m in range(rank * width))
              for i in range(rank)]
    index = {c: b for b, c in enumerate(coords)}
    parent = [None] * rank
    simple_rows = [[] for _ in range(rank)]
    for b, beta in enumerate(coords):  # coords grows as roots are found
        for i, coroot in enumerate(coroots):
            if b == i:
                simple_rows[i].append((b << 1) | 1)
                continue
            c = [sum(k * beta[m] for m, k in terms) for terms in coroot]
            if not any(c):
                simple_rows[i].append(b << 1)
                continue
            img = list(beta)
            for s, cs in enumerate(c):
                img[i * width + s] -= cs
            img = tuple(img)
            k = index.get(img)
            if k is None:
                k = index[img] = len(coords)
                coords.append(img)
                parent.append((i, b))
            simple_rows[i].append(k << 1)
    return coords, parent, simple_rows


# the interval graph of ``dual``: node ids by ``images``; the node, its edges
# and its orbit table (of ``hurwitz``) by id; and the source of fresh ids
_IntervalGraph = namedtuple("_IntervalGraph", "nodes elements edges tables ids")


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
        self.n_reflections = n_roots
        self.is_linear = not descriptor.is_dihedral_model
        # bytes.translate takes a 256-entry table: the points past 2N map
        # to themselves
        self._pad = bytes(range(2 * n_roots, 256)) if 2 * n_roots <= 256 else None
        self.identity = self._element(tuple(range(2 * n_roots)))
        if self.is_linear:
            self._build_linear()
        else:
            self._build_dihedral()
        self.reflections = tuple(map(self._element, self._reflection_images))
        del self._reflection_images
        self.simple = tuple(self.reflections[k] for k in self.simple_ids)
        self.rank = len(self.simple_ids)
        self.coxeter_matrix = tuple(
            tuple(len(_close_under_conjugation(self, {a, b})) for b in self.simple_ids)
            for a in self.simple_ids
        )
        self._refl_lookup = {r.images: t for t, r in enumerate(self.reflections)}
        self._subgroup_registry = {}
        self.clear_caches()

    # -- construction -----------------------------------------------------

    def _build_linear(self):
        cartan = {}
        axes = []  # per ambient axis, (simple root, doubled coordinate) pairs
        rank = 0
        for family, n in self.descriptor.components:
            bdim, roots, orders = rootdata.simple_root_block(family, n)
            for i in range(n):
                for j in range(n):
                    c = _cartan(i, j, roots, orders)
                    if any(c):
                        cartan[rank + i, rank + j] = c
            axes.extend([(rank + i, a[k]) for i, a in enumerate(roots) if a[k]]
                        for k in range(bdim))
            rank += n
        self.ambient_dim = len(axes)
        width = 2 if any(q for _, q in cartan.values()) else 1
        coords, parent, simple_rows = _search_roots(cartan, rank, width)
        if len(coords) != self.n_reflections:
            raise RuntimeError(
                f"root search for {self.descriptor} found {len(coords)} roots; "
                "bad root table"
            )

        # twice the ambient coordinates, as one (p,) or (p, q) per axis
        ambient = [
            tuple(tuple(sum(x * beta[j * width + s] for j, x in axis)
                        for s in range(width))
                  for axis in axes)
            for beta in coords
        ]
        if width == 1:
            key = ambient.__getitem__
        else:  # few distinct values occur: sort those once by real value
            values = sorted({v for a in ambient for v in a},
                            key=cmp_to_key(lambda u, v: _sign(u[0] - v[0], u[1] - v[1])))
            rank_of = {v: r for r, v in enumerate(values)}
            key = lambda b: tuple(map(rank_of.__getitem__, ambient[b]))
        order = sorted(range(len(coords)), key=key)
        pos = [0] * len(order)
        for t, b in enumerate(order):
            pos[b] = t
        self._ambient = tuple(ambient[b] for b in order)
        self.simple_ids = tuple(pos[:rank])
        self.simple_coordinates = tuple(coords[b] for b in order)

        points = self.identity.images
        table = [None] * len(order)
        for i, row in enumerate(simple_rows):
            codes = [(pos[row[b] >> 1] << 1) | (row[b] & 1) for b in order]
            table[pos[i]] = _on_signed_points(codes, points)
        for b in range(rank, len(coords)):  # parents come first
            i, beta = parent[b]
            s, r = table[pos[i]], table[pos[beta]]
            table[pos[b]] = itemgetter(*s)(itemgetter(*r)(s))  # s r s
        self._reflection_images = table

    def _build_dihedral(self):
        m = self.n_reflections
        self.ambient_dim = None
        self.roots = None
        self.root_index = None
        self.simple_coordinates = None
        # mirror j sits at angle j*pi/m; its root at j*pi/m + pi/2.  The
        # reflection in mirror j sends root k to the vector at (2j - k)*pi/m
        # + pi/2 - pi, i.e. root (2j - k) mod m with a sign from the wrap.
        points = self.identity.images
        images = []
        for j in range(m):
            row = []
            for k in range(m):
                kk = (2 * j - k) % m
                q = (2 * j - k - kk) // m - 1
                row.append((kk << 1) | (q & 1))
            images.append(_on_signed_points(row, points))
        self._reflection_images = images
        self.simple_ids = (0, m - 1)

    def _element(self, images: tuple) -> Element:
        """Element with these images, packed into the group's container."""
        return Element(self, images if self._pad is None else bytes(images))

    # ambient basis for matrices: the simple roots extended by their
    # dot-product complement, which every group element fixes pointwise.  H3
    # and H4 blocks use the simple-root basis, so their roots span their own
    # block and the complement lies in the blocks whose form is the dot product.

    @cached_property
    def roots(self):
        """The positive roots as ambient ``Scalar`` vectors, in index order."""
        halves = {v: _half_scalar(v) for v in set().union(*self._ambient)}
        return tuple(tuple(map(halves.__getitem__, a)) for a in self._ambient)

    @cached_property
    def root_index(self):
        return {r: t for t, r in enumerate(self.roots)}

    @cached_property
    def _complement(self):
        return tuple(kernel_basis(Matrix(self.simple_roots)))

    @cached_property
    def _basis_inv(self):
        basis = Matrix.from_columns(list(self.simple_roots) + list(self._complement))
        return invert(basis)

    # -- conveniences -------------------------------------------------------

    @property
    def type_string(self) -> str:
        return str(self.descriptor)

    @property
    def order(self) -> int:
        return classical_order(self.descriptor)

    @property
    def simple_roots(self):
        if not self.is_linear:
            return None
        return tuple(self.roots[k] for k in self.simple_ids)

    def clear_caches(self):
        """Drop the below-sets, the interval graph with the orbit tables of
        its nodes, the interned closed reflection sets with their joins, and
        the element listing.

        They are rebuilt on demand; interned subgroups are kept.
        """
        self._below_cache = {}
        self._interval = _IntervalGraph({}, {}, {}, {}, count())
        self._closed_sets = {}
        self._all_elements = None

    def reflection_index(self, x: Element) -> int | None:
        """Index of x among the reflections, or None if x is not one."""
        return self._refl_lookup.get(x.images)

    def __repr__(self):
        return f"CoxeterSystem({self.type_string})"


def _close_under_conjugation(g: CoxeterSystem, gens) -> frozenset:
    """Reflections of the subgroup generated by gens: their orbit under it.

    Every reflection of the subgroup is conjugate inside it to one of the
    generating reflections, so conjugating by the generators alone reaches
    all of them.
    """
    closed = set(gens)
    rows = [g.reflections[s].images for s in closed]
    queue = list(closed)
    while queue:
        r = queue.pop()
        for row in rows:
            new = row[2 * r] >> 1
            if new not in closed:
                closed.add(new)
                queue.append(new)
    return frozenset(closed)


_BUILD_CACHE: dict[CoxeterDescriptor, CoxeterSystem] = {}


def build_group(descriptor) -> CoxeterSystem:
    """Build (or fetch the cached) system for a descriptor or type string.

    Threads that build the same group at once all get the system stored
    first, so their elements can be multiplied together.
    """
    descriptor = _as_descriptor(descriptor)
    system = _BUILD_CACHE.get(descriptor)
    if system is None:
        system = _BUILD_CACHE.setdefault(descriptor, CoxeterSystem(descriptor))
    return system


def _word_product(g: CoxeterSystem, letters: tuple, word, kind: str) -> Element:
    """Product of ``letters[i]`` over the word, leftmost letter first."""
    for i in word:
        if not 0 <= i < len(letters):
            raise IndexError(f"{kind} index {i} out of range for {g.type_string}")
    return reduce(lambda acc, i: acc * letters[i], word, g.identity)


def element_from_simple_word(g: CoxeterSystem, word) -> Element:
    """Product of simple reflections, leftmost letter first."""
    return _word_product(g, g.simple, word, "simple")


def element_from_refl_word(g: CoxeterSystem, word) -> Element:
    """Product of reflections t_1 t_2 ... t_k, leftmost letter first."""
    return _word_product(g, g.reflections, word, "reflection")


def breadth_first(root, step, cap: int, overflow,
                  key=attrgetter("images")) -> list:
    """(element, distance) for every element reachable from ``root``.

    ``step(x)`` yields the neighbours of x; the seen-set is keyed by
    ``key(x)``: ``images``, or ``int`` for the node ids of ``dual``.  When
    a new element would make more than ``cap``, ``overflow(built,
    distance)`` builds the error raised, from the number of elements built
    so far and the distance being reached.
    """
    seen = {key(root)}
    found = [(root, 0)]
    for x, d in found:  # grows as elements are found
        for y in step(x):
            k = key(y)
            if k not in seen:
                if len(seen) >= cap:
                    raise overflow(len(seen), d + 1)
                seen.add(k)
                found.append((y, d + 1))
    return found


def cayley_bfs(g: CoxeterSystem, gens, cap: int = DEFAULT_ENUM_CAP) -> list:
    """(element, distance) for every element the generators reach.

    Breadth-first from the identity, multiplying on the right, so distances
    are word lengths over ``gens``.  Raises GroupTooLargeError when more than
    ``cap`` elements are reached.
    """
    return breadth_first(
        g.identity,
        lambda x: map(x.__mul__, gens),
        cap,
        lambda built, d: GroupTooLargeError(
            f"{g.type_string} is too large for exhaustive mode (cap {cap}); "
            f"stopped after reaching {built} elements, at distance {d}",
            cap=cap,
        ),
    )


def enumerate_group(g: CoxeterSystem, cap: int = DEFAULT_ENUM_CAP):
    """Every element exactly once, by BFS over the simple generators.

    The full listing is cached on the system after the first successful
    sweep.  Raises GroupTooLargeError, from the group's order and before
    any sweep, when the group has more than ``cap`` elements.
    """
    if g.order > cap:
        raise GroupTooLargeError(
            f"{g.type_string} has {g.order} elements, above the cap of {cap}", cap=cap
        )
    if g._all_elements is None:
        g._all_elements = tuple(x for x, _ in cayley_bfs(g, g.simple, cap))
    return g._all_elements


def _element_from_root_map(g: CoxeterSystem, index, image) -> Element:
    """Element of g sending each root of ``index``, a dict from the positive
    roots in index order to their indices, to the signed root ``image(root)``.

    Raises ValueError unless the map permutes the roots and its descent walk
    reaches 1: -I permutes the roots of A2, but is not in W.
    """
    images = []
    for root in index:
        img = image(root)
        k = index.get(img)
        if k is not None:
            images.append(k << 1)
            continue
        k = index.get(vec_neg(img))
        if k is None:
            raise ValueError("the map does not permute the root system")
        images.append((k << 1) | 1)
    if len({e >> 1 for e in images}) != g.n_reflections:
        raise ValueError("the map is not a bijection on the roots")
    x = g._element(_on_signed_points(images, g.identity.images))
    x.s_word()
    return x


def element_from_matrix(g: CoxeterSystem, m: Matrix) -> Element:
    """Element of g whose reflection-representation matrix is m.

    Raises ValueError when m is not the matrix of an element of W.
    """
    if not g.is_linear:
        raise NoLinearModelError(f"{g.type_string} has no matrix model")
    if m.n_rows != g.ambient_dim or m.n_cols != g.ambient_dim:
        raise ValueError("matrix has the wrong shape for this group")
    x = _element_from_root_map(g, g.root_index, m.apply)
    # every element fixes the complement of the roots' span pointwise
    if any(m.apply(v) != v for v in g._complement):
        raise ValueError("matrix moves the complement of the roots' span")
    return x

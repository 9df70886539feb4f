"""Exact scalar arithmetic in Q(sqrt 5) and small dense linear algebra over it.

Scalars are pairs of ``fractions.Fraction``; rational values are the ``b == 0``
subcase.  Elimination stays inside the field, so kernels and inverses are
exact; it serves the matrices of elements.  Pivoting
picks the first nonzero entry in column order: with exact arithmetic there
is no reason to prefer large pivots.
"""

from __future__ import annotations

from fractions import Fraction

Rat = int | Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Scalar:
    """The number a + b*sqrt(5) with rational a and b.

    Instances are immutable by convention and hashable; equality is structural
    equality of the reduced fractions, which coincides with numeric equality
    because sqrt(5) is irrational.  Comparisons order by real value, exactly.
    """

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a: Rat = 0, b: Rat = 0):
        self.a = _frac(a)
        self.b = _frac(b)
        self._hash = None

    # -- text form ------------------------------------------------------

    def __str__(self):
        if not self.b:
            return str(self.a)
        head = str(self.a)
        tail = str(abs(self.b))
        sign = "+" if self.b > 0 else "-"
        return f"{head}{sign}{tail}*sqrt5"

    def __repr__(self):
        return f"Scalar({self.a!r}, {self.b!r})" if self.b else f"Scalar({self.a!r})"

    # -- ring and field operations -------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.b and not other.b:
            return Scalar(self.a * other.a)
        return Scalar(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # (a + b*sqrt5)^-1 = (a - b*sqrt5) / (a^2 - 5 b^2); the denominator
        # vanishes only for 0 because sqrt5 is irrational.
        if not self.b:
            return Scalar(1 / self.a)
        d = self.a * self.a - 5 * self.b * self.b
        return Scalar(self.a / d, -self.b / d)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            # agree with hash(Fraction) on rational values so mixed-key
            # dictionaries behave
            self._hash = hash(self.a) if not self.b else hash((self.a, self.b))
        return self._hash

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0 or 1."""
        a, b = self.a, self.b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: decided by comparing a^2 against 5 b^2
        big_a = a * a > 5 * b * b
        if a > 0:
            return 1 if big_a else -1
        return -1 if big_a else 1

    def __lt__(self, other):
        other = _coerce(other)
        return (self - other).sign() < 0

    def __le__(self, other):
        other = _coerce(other)
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = _coerce(other)
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = _coerce(other)
        return (self - other).sign() >= 0


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)


# -- vectors -----------------------------------------------------------

Vector = tuple  # tuple[Scalar, ...]


def vector(entries) -> Vector:
    return tuple(e if isinstance(e, Scalar) else Scalar(e) for e in entries)


def vec_neg(u: Vector) -> Vector:
    return tuple(-x for x in u)


def vec_dot(u: Vector, v: Vector) -> Scalar:
    acc = ZERO
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


# -- matrices ----------------------------------------------------------


class Matrix:
    """Dense exact matrix.  Dimensions and entries are fixed at construction."""

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, rows):
        rows = tuple(vector(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.rows = rows
        self.n_rows = len(rows)
        self.n_cols = width

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        cols = [vector(c) for c in cols]
        return cls(list(zip(*cols))) if cols else cls([])

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.n_cols)]

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.n_cols:
            raise ValueError("dimension mismatch")
        return tuple(vec_dot(r, v) for r in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch")
        cols = other.columns()
        return Matrix([[vec_dot(r, c) for c in cols] for r in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)

    def __repr__(self):
        return f"Matrix({self.n_rows}x{self.n_cols})"


def _rref(rows: list) -> tuple[list, list[int]]:
    """Reduce a list of row lists to reduced row echelon form, in place.

    Returns the rows together with the pivot column indices.  Pivot choice is
    the first nonzero entry in column order.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pr = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        piv_row = rows[r]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], piv_row)]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel_basis(m: Matrix) -> list[Vector]:
    """Exact basis of ker(m), one vector per free column, in column order."""
    if m.n_rows == 0 or m.n_cols == 0:
        return [tuple(ONE if i == j else ZERO for i in range(m.n_cols))
                for j in range(m.n_cols)]
    rows = [list(r) for r in m.rows]
    rred, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.n_cols):
        if free in pivot_set:
            continue
        v = [ZERO] * m.n_cols
        v[free] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rred[r][free]
        basis.append(tuple(v))
    return basis


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on singular input."""
    if m.n_rows != m.n_cols:
        raise ValueError("only square matrices can be inverted")
    n = m.n_rows
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)]
           for i, r in enumerate(m.rows)]
    rred, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix([row[n:] for row in rred[:n]])

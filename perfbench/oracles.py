"""Answers the benchmark checks dualcox against, computed without dualcox.

Nothing here imports dualcox.  The facts come from three independent places:

* classical exponents m_1..m_n of each type, which give |W| = prod(m_i + 1),
  the number of reflections sum(m_i), the Coxeter number h = max(m_i) + 1,
  the reflection-length histogram prod(1 + m_i q) (Shephard-Todd) and the
  Deligne-Chapoton count h^n n! / |W| of reduced reflection words of a
  Coxeter element;
* permutation (type A) and signed-permutation (types B, D) models built from
  simple words in dualcox's generator conventions, where reflection length
  is n minus the number of cycles (A) or of paired cycles (B, D);
* a rational matrix model for F4 and G2, where reflection length is the rank
  of w - 1 (Carter's lemma).

Reduced reflection words of a model element are counted with the recursion
#Red(w) = sum over reflections t with l(tw) = l(w) - 1 of #Red(tw).
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
    ("H", 3): (1, 5, 9),
    ("H", 4): (1, 11, 19, 29),
}

_COMPONENT_RE = re.compile(r"^(?:([ABDEFGH])(\d+)|I2\((\d+)\))$")


def components(type_string: str):
    """(family, n) pairs of a product type, in the order written."""
    out = []
    for piece in type_string.split("x"):
        m = _COMPONENT_RE.match(piece)
        if m is None:
            raise ValueError(f"bad type component {piece!r}")
        out.append((m.group(1), int(m.group(2))) if m.group(1) else ("I", int(m.group(3))))
    return out


def component_exponents(family: str, n: int) -> tuple:
    if family == "A":
        return tuple(range(1, n + 1))
    if family == "B":
        return tuple(range(1, 2 * n, 2))
    if family == "D":
        return tuple(sorted(tuple(range(1, 2 * n - 2, 2)) + (n - 1,)))
    if family == "I":
        return (1, n - 1)
    return _EXPONENTS[(family, n)]


def exponents(type_string: str) -> tuple:
    return tuple(m for c in components(type_string) for m in component_exponents(*c))


def group_order(type_string: str) -> int:
    return prod(m + 1 for m in exponents(type_string))


def n_reflections(type_string: str) -> int:
    return sum(exponents(type_string))


def length_histogram(type_string: str) -> list:
    """Coefficients of prod(1 + m_i q): element counts by reflection length."""
    coeffs = [1]
    for m in exponents(type_string):
        coeffs = [a + m * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def coxeter_word_count(type_string: str) -> int:
    """Deligne-Chapoton: reduced reflection words of a Coxeter element."""
    exps = exponents(type_string)
    rank, h = len(exps), coxeter_number(type_string)
    count, rem = divmod(h**rank * factorial(rank), group_order(type_string))
    if rem:
        raise ArithmeticError(f"h^n n!/|W| is not an integer for {type_string}")
    return count


def coxeter_number(type_string: str) -> int:
    (family, n), = components(type_string)
    return max(component_exponents(family, n)) + 1


# -- Coxeter matrices in dualcox's generator numbering ---------------------


def _component_bonds(family: str, n: int) -> dict:
    if family == "A":
        return {(i, i + 1): 3 for i in range(n - 1)}
    if family == "B":
        return {(0, 1): 4, **{(i, i + 1): 3 for i in range(1, n - 1)}}
    if family == "D":
        return {(0, 2): 3, **{(i, i + 1): 3 for i in range(1, n - 1)}}
    if family == "E":
        return {(0, 2): 3, (1, 3): 3, **{(i, i + 1): 3 for i in range(2, n - 1)}}
    if family == "F":
        return {(0, 1): 3, (1, 2): 4, (2, 3): 3}
    if family == "G":
        return {(0, 1): 6}
    if family == "H":
        return {(0, 1): 5, **{(i, i + 1): 3 for i in range(1, n - 1)}}
    return {(0, 1): n}  # I2(n)


def coxeter_matrix(type_string: str) -> tuple:
    """Block-diagonal Coxeter matrix; components sorted as dualcox sorts them."""
    comps = sorted(components(type_string))
    rank = sum(2 if f == "I" else n for f, n in comps)
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    offset = 0
    for family, n in comps:
        for (i, j), m in _component_bonds(family, n).items():
            rows[offset + i][offset + j] = rows[offset + j][offset + i] = m
        offset += 2 if family == "I" else n
    return tuple(tuple(r) for r in rows)


def spell(word, cmatrix, rng) -> tuple:
    """Another reduced word for the same element: random braid moves."""
    word = list(word)
    for _ in range(3 * len(word)):
        if len(word) < 2:
            break
        p = rng.randrange(len(word) - 1)
        a, b = word[p], word[p + 1]
        if a == b:
            continue
        m = cmatrix[a][b]
        run = [(a, b)[k % 2] for k in range(m)]
        if word[p:p + m] == run:
            word[p:p + m] = [(b, a)[k % 2] for k in range(m)]
    return tuple(word)


# -- permutation and signed-permutation models -----------------------------
#
# An element is a tuple w with w[i-1] = w(i).  In type A the points are
# 1..n+1 and s_i swaps i+1 and i+2.  In types B and D the points are +-1..+-n,
# s_i (i >= 1) swaps i and i+1, s_0 is 1 -> -1 in type B and 1 -> -2, 2 -> -1
# in type D.  Products compose right to left: (p*q)(i) = p(q(i)), so the
# simple word (a, b, ...) is s_a s_b ... as in dualcox.


def _apply(w: tuple, i: int) -> int:
    return w[i - 1] if i > 0 else -w[-i - 1]


def compose(p: tuple, q: tuple) -> tuple:
    return tuple(_apply(p, v) for v in q)


class PermModel:
    """Type A_n, B_n or D_n as (signed) permutations of n or n+1 points."""

    def __init__(self, type_string: str):
        (family, n), = components(type_string)
        if family not in "ABD":
            raise ValueError(f"{type_string} has no permutation model")
        self.family = family
        self.points = n + 1 if family == "A" else n
        ident = tuple(range(1, self.points + 1))
        self.identity = ident
        gens = []
        for i in range(n):
            w = list(ident)
            if family == "A":
                w[i], w[i + 1] = w[i + 1], w[i]
            elif i == 0 and family == "B":
                w[0] = -1
            elif i == 0:
                w[0], w[1] = -2, -1
            else:
                w[i - 1], w[i] = w[i], w[i - 1]
            gens.append(tuple(w))
        self.simple = tuple(gens)
        self.reflections = self._reflections()

    def _reflections(self):
        n, ident, out = self.points, self.identity, []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                signs = (1,) if self.family == "A" else (1, -1)
                for s in signs:
                    w = list(ident)
                    w[i - 1], w[j - 1] = s * j, s * i
                    out.append(tuple(w))
            if self.family == "B":
                w = list(ident)
                w[i - 1] = -i
                out.append(tuple(w))
        return tuple(out)

    def from_word(self, word) -> tuple:
        w = self.identity
        for i in word:
            w = compose(w, self.simple[i])
        return w

    def cycles(self, w: tuple):
        """Nontrivial cycles as tuples of signed points, each from its least |point|."""
        seen, out = set(), []
        for start in range(1, self.points + 1):
            if start in seen or w[start - 1] == start:
                continue
            cyc, cur = [start], _apply(w, start)
            seen.add(start)
            while cur != start and cur != -start:
                cyc.append(cur)
                seen.add(abs(cur))
                cur = _apply(w, cur)
            if cur == -start:  # balanced: the orbit runs through -start
                cyc += [-v for v in cyc]
            out.append(tuple(cyc))
        return out

    def reflection_length(self, w: tuple) -> int:
        """A k-cycle costs k - 1 reflections; a balanced cycle on k points costs k."""
        return sum(len(c) // 2 if _balanced(c) else len(c) - 1 for c in self.cycles(w))

    def count_reduced(self, w: tuple) -> int:
        return _count_reduced(w, self.identity, self.reflections,
                              self.reflection_length, compose)

    def elements(self):
        """Every element, by breadth-first search over the simple generators."""
        seen = {self.identity}
        queue = deque(seen)
        while queue:
            w = queue.popleft()
            for s in self.simple:
                y = compose(w, s)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    def shortest_word(self, target: tuple) -> tuple:
        """A reduced simple word for target, by breadth-first search."""
        prev = {self.identity: None}
        queue = deque([self.identity])
        while queue:
            w = queue.popleft()
            if w == target:
                word = []
                while prev[w] is not None:
                    w, i = prev[w]
                    word.append(i)
                return tuple(reversed(word))
            for i, s in enumerate(self.simple):
                y = compose(w, s)
                if y not in prev:
                    prev[y] = (w, i)
                    queue.append(y)
        raise ValueError(f"{target} is not in the group")


def inverse(w: tuple) -> tuple:
    out = [0] * len(w)
    for i, v in enumerate(w, 1):
        out[abs(v) - 1] = i if v > 0 else -i
    return tuple(out)


def is_indecomposable(model: PermModel, w: tuple) -> bool:
    """No u with 0 < l(u) < l(w), l(u) + l(u^-1 w) = l(w) and uw = wu."""
    length = model.reflection_length
    total = length(w)
    if total <= 1:
        return total == 1
    for u in model.elements():
        lu = length(u)
        if 0 < lu < total and lu + length(compose(inverse(u), w)) == total \
                and compose(u, w) == compose(w, u):
            return False
    return True


def _balanced(cycle) -> bool:
    return any(-v in cycle for v in cycle)


def signed_from_cycles(n: int, text: str) -> tuple:
    """Window of a signed cycle form such as ``(1,-2,-1,2)(3,4,-3,-4)``."""
    images = {}
    for body in re.findall(r"\(([^()]*)\)", text):
        cyc = [int(v) for v in body.split(",")]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a], images[-a] = b, -b
    return tuple(images.get(i, i) for i in range(1, n + 1))


def _count_reduced(w, identity, reflections, length, mul) -> int:
    @lru_cache(maxsize=None)
    def count(x):
        if x == identity:
            return 1
        k = length(x)
        total = 0
        for t in reflections:
            y = mul(t, x)
            if length(y) == k - 1:
                total += count(y)
        return total

    return count(w)


# -- rational matrix model for F4 and G2 ---------------------------------

_SIMPLE_ROOTS = {
    "F4": ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1),
           (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))),
    "G2": ((1, -1, 0), (-2, 1, 1)),
}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _positive(v):
    """The root of v's pair +-v whose first nonzero coordinate is positive."""
    return v if next(c for c in v if c) > 0 else tuple(-c for c in v)


def matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank, cols = 0, len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = Fraction(rows[r][c]) / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class MatrixModel:
    """F4 or G2 as exact orthogonal matrices on its ambient space."""

    def __init__(self, type_string: str):
        simples = [tuple(Fraction(c) for c in r) for r in _SIMPLE_ROOTS[type_string]]
        dim = len(simples[0])
        self.dim = dim
        self.identity = tuple(tuple(Fraction(int(i == j)) for j in range(dim))
                              for i in range(dim))
        roots = {_positive(a) for a in simples}
        frontier = list(roots)
        while frontier:
            nxt = []
            for beta in frontier:
                for alpha in simples:
                    img = _positive(self._reflect(alpha, beta))
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
            frontier = nxt
        self.simple = tuple(self._matrix(a) for a in simples)
        self.reflections = tuple(self._matrix(a) for a in sorted(roots))

    @staticmethod
    def _reflect(alpha, v):
        c = 2 * _dot(alpha, v) / _dot(alpha, alpha)
        return tuple(x - c * a for x, a in zip(v, alpha))

    def _matrix(self, alpha):
        cols = [self._reflect(alpha, e) for e in self.identity]
        return tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim))

    def from_word(self, word):
        w = self.identity
        for i in word:
            w = matmul(w, self.simple[i])
        return w

    def reflection_length(self, w) -> int:
        return _rank([[w[i][j] - self.identity[i][j] for j in range(self.dim)]
                      for i in range(self.dim)])

    def count_reduced(self, w) -> int:
        return _count_reduced(w, self.identity, self.reflections,
                              self.reflection_length, matmul)

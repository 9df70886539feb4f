"""Exact scalar arithmetic, the small linear algebra kit and the elimination oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dualcox.algebra import Matrix, Scalar, invert, kernel_basis, vector
from elimination import fixed_space_dim, identity, in_span, rank, zero

small_fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
scalars = st.builds(Scalar, small_fractions, small_fractions)


class TestScalar:
    @given(scalars, scalars)
    def test_addition_subtraction_roundtrip(self, x, y):
        assert (x + y) - y == x

    @given(scalars, scalars)
    def test_multiplication_division_roundtrip(self, x, y):
        if y != Scalar(0):
            assert (x * y) / y == x

    def test_text_forms(self):
        # the root coordinate forms the README documents for --roots
        assert str(Scalar(Fraction(1, 2))) == "1/2"
        assert str(Scalar(-1)) == "-1"
        assert str(Scalar(Fraction(-3, 4))) == "-3/4"
        assert str(Scalar(Fraction(1, 4), Fraction(1, 4))) == "1/4+1/4*sqrt5"
        assert str(Scalar(0, -2)) == "0-2*sqrt5"
        assert str(Scalar(Fraction(6, 2), Fraction(-1, 3))) == "3-1/3*sqrt5"

    def test_inverse_is_exact(self):
        x = Scalar(Fraction(3, 7), Fraction(-2, 5))
        assert x * x.inverse() == Scalar(1)
        with pytest.raises(ZeroDivisionError):
            Scalar(0).inverse()

    @given(scalars, scalars)
    def test_comparison_matches_floats(self, x, y):
        # float sqrt(5) is an independent check; only trust it away from ties
        fx = float(x.a) + float(x.b) * math.sqrt(5)
        fy = float(y.a) + float(y.b) * math.sqrt(5)
        if abs(fx - fy) > 1e-6:
            assert (x < y) == (fx < fy)

    def test_known_orderings(self):
        golden = Scalar(Fraction(1, 2), Fraction(1, 2))
        assert Scalar(0) < golden < Scalar(2)
        assert Scalar(0, 1) > Scalar(2)  # sqrt5 > 2
        assert Scalar(0, 1) < Scalar(3)
        assert Scalar(9, -4) > Scalar(0)  # 9 - 4 sqrt5 = 9 - 8.94...
        assert Scalar(4, -2) < Scalar(0)

    def test_rational_hash_agreement(self):
        assert hash(Scalar(3)) == hash(Fraction(3)) == hash(3)
        assert Scalar(3) == 3
        assert Scalar(1, 1) != 1


class TestRank:
    def test_identity(self):
        assert rank(identity(4)) == 4

    def test_zero(self):
        assert rank(zero(3, 3)) == 0

    def test_duplicated_row(self):
        assert rank(Matrix([[1, 1], [1, 1]])) == 1

    @given(st.lists(st.lists(scalars, min_size=3, max_size=3),
                    min_size=2, max_size=4))
    def test_rank_plus_nullity(self, rows):
        m = Matrix(rows)
        assert rank(m) + len(kernel_basis(m)) == m.n_cols

    @given(
        st.lists(st.lists(scalars, min_size=3, max_size=3), min_size=2, max_size=3),
        scalars,
    )
    def test_rank_scale_invariant(self, rows, c):
        if c == Scalar(0):
            return
        m = Matrix(rows)
        scaled = Matrix([[c * e for e in row] for row in rows])
        assert rank(m) == rank(scaled)


class TestFixedSpace:
    def test_identity_fixes_everything(self):
        assert fixed_space_dim(identity(5)) == 5

    def test_rational_rotation_by_two_thirds_pi(self):
        # order-3 rotation of the plane; no nonzero fixed vectors
        m = Matrix([[0, -1], [1, -1]])
        assert fixed_space_dim(m) == 0

    def test_reflection_in_rank_three(self):
        m = Matrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert fixed_space_dim(m) == 2

    def test_g2_double_rotation_fixes_only_the_axis(self):
        # the roots of G2 span a plane inside Q^3, so an order-3 rotation of
        # that plane fixes exactly the orthogonal line
        from dualcox import build_group, element_from_simple_word

        g = build_group("G2")
        w = element_from_simple_word(g, [0, 1, 0, 1])
        assert fixed_space_dim(w.matrix()) == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            fixed_space_dim(zero(2, 3))


class TestSpanAndKernel:
    def test_zero_vector_in_empty_span(self):
        assert in_span(vector([0, 0]), []) is True
        assert in_span(vector([1, 0]), []) is False

    def test_examples(self):
        assert in_span(vector([1, 0]), [vector([0, 1])]) is False
        assert in_span(
            vector([1, 1, 0]), [vector([1, 0, 0]), vector([0, 1, 0])]
        ) is True

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_span(vector([1, 0]), [vector([1, 0, 0])])

    def test_kernel_of_zero_and_identity(self):
        assert len(kernel_basis(zero(2, 2))) == 2
        assert kernel_basis(identity(2)) == []

    def test_kernel_of_rank_one(self):
        basis = kernel_basis(Matrix([[1, 1], [1, 1]]))
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == Scalar(0) and v != vector([0, 0])


class TestInverse:
    def test_inverse_is_exact(self):
        m = Matrix([[2, 1, 0], [1, Fraction(1, 3), 1], [0, 5, -2]])
        assert m @ invert(m) == identity(3)
        assert invert(m) @ m == identity(3)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            invert(Matrix([[1, 1], [1, 1]]))

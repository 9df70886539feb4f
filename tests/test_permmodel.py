"""Permutation and signed-permutation oracles for types A, B, D."""

import random

import pytest

from dualcox import (
    Permutation,
    Scalar,
    SignedPermutation,
    build_group,
    classical_cycles,
    cycles_str,
    element_from_permutation,
    element_from_refl_word,
    element_from_signed,
    element_from_simple_word,
    enumerate_group,
    perm_reflection_length,
    reflection_length,
    signed_cycles,
    to_permutation,
    to_signed,
)
from dualcox.permmodel import parse_cycles, signed_from_cycles


class TestConversions:
    def test_identity(self):
        g = build_group("A3")
        assert to_permutation(g.identity).images == (1, 2, 3, 4)

    def test_simple_reflections_are_adjacent_transpositions(self):
        g = build_group("A3")
        for i in range(g.rank):
            p = to_permutation(g.simple[i])
            moved = [k for k in range(1, 5) if p(k) != k]
            assert moved == [i + 1, i + 2]

    def test_conversion_is_a_homomorphism(self):
        g = build_group("A3")
        elements = enumerate_group(g)
        for x in elements:
            for y in elements[:8]:
                assert to_permutation(x * y).images == (
                    to_permutation(x) * to_permutation(y)
                ).images

    def test_signed_conversion_is_a_homomorphism(self):
        g = build_group("B2")
        elements = enumerate_group(g)
        for x in elements:
            for y in elements:
                assert to_signed(x * y).window == (
                    to_signed(x) * to_signed(y)
                ).window

    def test_roundtrips(self):
        a3 = build_group("A3")
        for x in enumerate_group(a3):
            assert element_from_permutation(a3, to_permutation(x)) == x
        d4 = build_group("D4")
        for x in list(enumerate_group(d4))[:40]:
            assert element_from_signed(d4, to_signed(x)) == x

    def test_wrong_family_is_rejected(self):
        b2 = build_group("B2")
        with pytest.raises(ValueError):
            to_permutation(b2.identity)
        a2 = build_group("A2")
        with pytest.raises(ValueError):
            to_signed(a2.identity)

    def test_type_d_parity_invariant(self):
        d4 = build_group("D4")
        for x in enumerate_group(d4):
            assert to_signed(x).negative_count % 2 == 0
        odd = SignedPermutation((-1, 2, 3, 4))
        with pytest.raises(ValueError):
            element_from_signed(d4, odd)


def window_from_matrix(x) -> tuple:
    """Signed window read off the columns of x's Fraction matrix.

    Column j of a signed permutation matrix is +-1 at row k alone when x
    sends axis j + 1 to +-(k + 1).  The conversions read windows off the
    root action instead; this is their oracle.
    """
    window = []
    for col in x.matrix().columns():
        (k, c), = [(k, c) for k, c in enumerate(col) if c]
        assert c in (Scalar(1), Scalar(-1))
        window.append(k + 1 if c == Scalar(1) else -(k + 1))
    return tuple(window)


def oracle_elements(name):
    """Every element of the small groups; 40 seeded products of 2 * rank
    random reflections on A12, B8 and D8."""
    g = build_group(name)
    if name not in ("A12", "B8", "D8"):
        return g, enumerate_group(g)
    rng = random.Random(name)
    words = [[rng.randrange(g.n_reflections) for _ in range(2 * g.rank)]
             for _ in range(40)]
    return g, [element_from_refl_word(g, w) for w in words]


class TestWindowsAgainstMatrices:
    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A12"])
    def test_permutations(self, name):
        g, elements = oracle_elements(name)
        for x in elements:
            images = window_from_matrix(x)
            assert to_permutation(x).images == images
            assert element_from_permutation(g, Permutation(images)) == x

    @pytest.mark.parametrize("name", ["B2", "B3", "B4", "D4", "B8", "D8"])
    def test_signed_permutations(self, name):
        g, elements = oracle_elements(name)
        for x in elements:
            window = window_from_matrix(x)
            assert to_signed(x).window == window
            assert element_from_signed(g, SignedPermutation(window)) == x


class TestCycles:
    def test_classical_examples(self):
        assert classical_cycles(Permutation((1, 2, 3))) == []
        assert classical_cycles(Permutation((2, 1, 3))) == [(1, 2)]
        assert classical_cycles(Permutation((2, 3, 1, 5, 4))) == [(1, 2, 3), (4, 5)]

    def test_reflection_length_examples(self):
        assert perm_reflection_length(Permutation((1, 2, 3, 4, 5))) == 0
        assert perm_reflection_length(Permutation((2, 3, 4, 5, 1))) == 4
        assert perm_reflection_length(Permutation((2, 3, 1, 5, 4))) == 3

    def test_length_matches_the_root_system_computation(self):
        for name in ("A2", "A3", "A4"):
            g = build_group(name)
            for x in enumerate_group(g):
                assert perm_reflection_length(to_permutation(x)) == reflection_length(x)

    def test_signed_cycle_text(self):
        sp = SignedPermutation((-2, 1, 4, -3))
        assert cycles_str(signed_cycles(sp)) == "(1,-2,-1,2)(3,4,-3,-4)"
        assert cycles_str(signed_cycles(SignedPermutation((1, 2)))) == "()"
        assert cycles_str(signed_cycles(SignedPermutation((2, 1)))) == "(1,2)"
        assert cycles_str(signed_cycles(SignedPermutation((-1, 2)))) == "(1,-1)"

    def test_cycle_parsing_roundtrip(self):
        text = "(1,-2,-1,2)(3,4,-3,-4)"
        sp = signed_from_cycles(4, parse_cycles(text))
        assert sp.window == (-2, 1, 4, -3)
        assert cycles_str(signed_cycles(sp)) == text
        assert parse_cycles("()") == [] and parse_cycles("") == []

    def test_cycle_parsing_errors(self):
        from dualcox import WordParseError

        with pytest.raises(WordParseError):
            parse_cycles("(1,2")
        with pytest.raises(WordParseError):
            parse_cycles("(1,x)")
        with pytest.raises(WordParseError):
            signed_from_cycles(2, parse_cycles("(1,3)"))
        with pytest.raises(WordParseError):
            signed_from_cycles(3, parse_cycles("(1,2)(1,3)"))


class TestAgainstTheB4Example:
    def test_embedded_element_window(self):
        from dualcox import embed_by_roots

        d4 = build_group("D4")
        w = element_from_simple_word(d4, [1, 2, 1, 2, 2, 0, 2, 3])
        b4 = build_group("B4")
        wb = embed_by_roots(w, b4)
        assert to_signed(wb).window == (-2, 1, 4, -3)
        assert element_from_signed(b4, to_signed(wb)) == wb

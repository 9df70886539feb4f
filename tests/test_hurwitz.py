"""Braid moves on reduced words, orbits, and the quasi-Coxeter tests."""

import pytest

from dualcox import (
    CapExceededError,
    build_group,
    element_from_simple_word,
    enumerate_group,
    hurwitz_move,
    hurwitz_orbits,
    is_parabolic_quasi_coxeter,
    is_quasi_coxeter,
    orbit_subgroup_correspondence,
    reduced_expressions,
    reflection_closure,
)


def stst():
    g = build_group("G2")
    return g, element_from_simple_word(g, [0, 1, 0, 1])


def sample_words(g, max_elements=24):
    """Reduced words of a few elements, as fodder for move identities."""
    words = []
    for x in enumerate_group(g)[:max_elements]:
        words.extend(reduced_expressions(x).words)
    return [w for w in words if len(w) >= 2]


class TestMoves:
    def test_self_conjugation_fixes_the_pair(self):
        g = build_group("A2")
        word = (1, 1)
        assert hurwitz_move(g, word, 1) == word

    def test_commuting_letters_swap(self):
        g = build_group("A3")
        s0, s2 = g.simple_ids[0], g.simple_ids[2]
        assert hurwitz_move(g, (s0, s2), 1) == (s2, s0)

    def test_a2_example(self):
        g = build_group("A2")
        s0, s1 = g.simple_ids
        s0s1s0 = g.simple[0].conjugate_reflection(s1)
        assert hurwitz_move(g, (s0, s1), 1) == (s0s1s0, s0)

    def test_moves_preserve_product_and_subgroup(self):
        g = build_group("B3")
        for word in sample_words(g):
            from dualcox import element_from_refl_word

            x = element_from_refl_word(g, word)
            before = reflection_closure(g, set(word)).refl_set
            for i in range(1, len(word)):
                moved = hurwitz_move(g, word, i)
                assert element_from_refl_word(g, moved) == x
                assert reflection_closure(g, set(moved)).refl_set == before

    def test_repeated_move_returns_to_the_start(self):
        # so each move's inverse is a power of itself, and the union-find
        # over forward moves alone finds whole orbits
        g = build_group("B3")
        for word in sample_words(g):
            for i in range(1, len(word)):
                moved = hurwitz_move(g, word, i)
                for _ in range(g.n_reflections ** 2):
                    if moved == word:
                        break
                    moved = hurwitz_move(g, moved, i)
                assert moved == word

    def test_braid_relation(self):
        g = build_group("B3")
        for word in sample_words(g):
            if len(word) < 3:
                continue
            for i in range(1, len(word) - 1):
                lhs = hurwitz_move(g, hurwitz_move(g, hurwitz_move(g, word, i), i + 1), i)
                rhs = hurwitz_move(g, hurwitz_move(g, hurwitz_move(g, word, i + 1), i), i + 1)
                assert lhs == rhs

    def test_distant_moves_commute(self):
        g = build_group("A4")
        w = element_from_simple_word(g, [0, 1, 2, 3])
        for word in reduced_expressions(w).words[:40]:
            assert hurwitz_move(g, hurwitz_move(g, word, 1), 3) == hurwitz_move(
                g, hurwitz_move(g, word, 3), 1
            )

    def test_position_bounds(self):
        g = build_group("A2")
        with pytest.raises(IndexError):
            hurwitz_move(g, (0, 1), 2)
        with pytest.raises(IndexError):
            hurwitz_move(g, (0,), 1)


class TestOrbits:
    def test_identity_and_reflection(self):
        g = build_group("A2")
        orbits = hurwitz_orbits(g.identity)
        assert len(orbits) == 1 and orbits[0].members == ((),)
        orbits = hurwitz_orbits(g.reflections[0])
        assert len(orbits) == 1 and orbits[0].members == (((0,)),)

    def test_g2_stst_two_orbits(self):
        g, w = stst()
        orbits = hurwitz_orbits(w)
        assert [o.size for o in orbits] == [3, 3]
        s, t = g.simple_ids
        tst = g.simple[1].conjugate_reflection(s)
        sts = g.simple[0].conjugate_reflection(t)
        assert {o.subgroup.refl_set for o in orbits} == {
            reflection_closure(g, {s, tst}).refl_set,
            reflection_closure(g, {t, sts}).refl_set,
        }

    def test_orbit_sizes_add_up(self):
        g = build_group("B3")
        for x in enumerate_group(g):
            orbits = hurwitz_orbits(x)
            assert sum(o.size for o in orbits) == len(reduced_expressions(x).words)
            members = [w for o in orbits for w in o.members]
            assert len(members) == len(set(members))

    def test_orbit_members_share_the_product(self):
        from dualcox import element_from_refl_word

        g, w = stst()
        for orbit in hurwitz_orbits(w):
            assert orbit.representative == min(orbit.members)
            for word in orbit.members:
                assert element_from_refl_word(g, word) == w
                assert (
                    reflection_closure(g, set(word)).refl_set
                    == orbit.subgroup.refl_set
                )

    def test_cap_refuses_partial_output(self):
        _, w = stst()
        with pytest.raises(CapExceededError):
            hurwitz_orbits(w, cap=3)


class TestQuasiCoxeter:
    def test_identity_is_parabolic_quasi_coxeter(self):
        g = build_group("B3")
        assert is_parabolic_quasi_coxeter(g.identity)
        assert not is_quasi_coxeter(g.identity)

    def test_every_symmetric_group_element_qualifies(self):
        g = build_group("A3")
        for x in enumerate_group(g):
            assert is_parabolic_quasi_coxeter(x)

    def test_g2_stst_fails(self):
        _, w = stst()
        assert not is_parabolic_quasi_coxeter(w)
        assert not is_quasi_coxeter(w)

    def test_coxeter_element_is_quasi_coxeter(self):
        g = build_group("D4")
        assert is_quasi_coxeter(element_from_simple_word(g, [0, 1, 2, 3]))

    def test_reflection_is_parabolic_but_not_quasi_coxeter(self):
        g = build_group("A2")
        assert is_parabolic_quasi_coxeter(g.reflections[0])
        assert not is_quasi_coxeter(g.reflections[0])


class TestCorrespondence:
    def test_reflection_has_one_pair(self):
        g = build_group("A2")
        pairs = orbit_subgroup_correspondence(g.reflections[1])
        assert len(pairs) == 1
        assert pairs[0][1].refl_set == {1}

    def test_stst_has_two_distinct_subgroups(self):
        _, w = stst()
        pairs = orbit_subgroup_correspondence(w)
        assert len(pairs) == 2
        assert pairs[0][1].refl_set != pairs[1][1].refl_set

    def test_dihedral_rotation_orbit_count(self):
        # rotations r^j of a dihedral group: the orbit count is gcd(j, m),
        # checked against the subgroup correspondence
        from math import gcd

        g = build_group("I2(8)")
        m = 8
        r = g.reflections[1] * g.reflections[0]
        x = g.identity
        for j in range(1, m):
            x = x * r
            assert len(hurwitz_orbits(x)) == gcd(j, m)

"""Braid moves on reduced words, orbits, and the quasi-Coxeter tests."""

import random
from itertools import count

import pytest
from wordtree import orbits_by_letter_sets, orbits_by_moves

from dualcox import (
    CapExceededError,
    CoxeterDescriptor,
    build_group,
    element_from_simple_word,
    enumerate_group,
    first_reduced_word,
    hurwitz_move,
    hurwitz_orbits,
    interval,
    is_parabolic,
    is_parabolic_quasi_coxeter,
    is_quasi_coxeter,
    orbit_search,
    reduced_expressions,
    reflection_closure,
    reflection_length,
)
from dualcox import dual, subgroups
from dualcox.coxeter import CoxeterSystem, _IntervalGraph
from dualcox.limits import DEFAULT_ENUM_CAP

# (group, reduced simple word) of the elements whose words the benchmark lists
WORDS_ELEMENTS = (
    ("A6", (0, 1, 2, 3, 4, 5)),
    ("B5", (0, 1, 2, 3, 4)),
    ("D5", (0, 1, 2, 3, 4)),
    ("F4", (0, 1, 2, 3)),
    ("H4", (0, 1, 2, 3)),
    ("E6", (0, 1, 2, 3, 4, 5)),
    ("B5", (0, 1, 2, 3, 4) * 5),
    ("F4", (0, 1, 2, 3) * 6),
    ("B4", (1, 0, 2, 1, 0, 1, 2, 3)),
    ("G2", (0, 1, 0, 1)),
    ("D4", (1, 2, 0, 1, 2, 3)),
)


def stst():
    g = build_group("G2")
    return g, element_from_simple_word(g, [0, 1, 0, 1])


def _table(g, x):
    """The stored (orbit table, bound) of x, through its interval node id."""
    graph = g._interval
    return graph.tables[graph.nodes[x.images]]


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
        # so each move's inverse is a power of itself, and the union-find of
        # the orbit-subgroup-count suite, over forward moves alone, finds
        # whole orbits
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

    def test_search_cap_error_says_how_far_it_got(self):
        # the cap bounds [1, c], which has 833 elements
        c = element_from_simple_word(build_group("E6"), range(6))
        with pytest.raises(
            CapExceededError,
            match=r"the interval \[1, w\] in E6 has more than 100 elements; "
                  r"stopped after building 100 of them, 2 of 6 levels below w",
        ) as info:
            orbit_search(c, cap=100)
        assert info.value.cap == 100

    def test_search_cap_holds_on_warm_tables(self):
        g = CoxeterSystem(CoxeterDescriptor.parse("E6"))  # private caches
        c = element_from_simple_word(g, range(6))
        assert [o.size for o in orbit_search(c)] == [41472]
        assert g._interval.nodes[c.images] in g._interval.tables
        with pytest.raises(CapExceededError, match="more than 100 elements"):
            orbit_search(c, cap=100)
        with pytest.raises(CapExceededError, match="more than 832 elements"):
            orbit_search(c, cap=832)
        assert [o.size for o in orbit_search(c, cap=833)] == [41472]

    @pytest.mark.parametrize("warmth", ["cold", "warm", "partial"])
    def test_search_cap_is_exact_on_any_tables(self, warmth):
        # [1, c] has 833 elements.  A search on a group without tables
        # walks all of [1, c] and stores that size as the bound of c; after
        # a child's tables the bound of c is far larger, so at cap 833 the
        # size is counted exactly, and stored, before the search answers
        for cap, levels in ((100, 2), (832, 6), (833, None)):
            g = CoxeterSystem(CoxeterDescriptor.parse("E6"))  # private caches
            c = element_from_simple_word(g, range(6))
            if warmth == "warm":
                orbit_search(c)
            elif warmth == "partial":  # the tables of a child of c first
                orbit_search(g.reflections[first_reduced_word(c)[0]] * c)
            if levels is None:
                assert [o.size for o in orbit_search(c, cap=cap)] == [41472]
                assert _table(g, c)[1] == cap
                continue
            with pytest.raises(
                CapExceededError,
                match=rf"the interval \[1, w\] in E6 has more than {cap} elements; "
                      rf"stopped after building {cap} of them, {levels} of 6 levels below w",
            ):
                orbit_search(c, cap=cap)
            assert [o.size for o in orbit_search(c)] == [41472]

    def test_search_inside_its_bound_walks_no_interval(self, monkeypatch):
        walks = []
        walk = dual._walk

        def spy(graph, x, cap):
            walks.append(x)
            return walk(graph, x, cap)

        monkeypatch.setattr(dual, "_walk", spy)
        g = CoxeterSystem(CoxeterDescriptor.parse("E6"))  # private caches
        c = element_from_simple_word(g, range(6))
        assert len(orbit_search(c, cap=833)) == 1 and not walks  # no table yet
        assert _table(g, c)[1] == 833  # the size of the walk, exact
        assert len(orbit_search(c, cap=833)) == 1 and not walks  # warm
        g = CoxeterSystem(CoxeterDescriptor.parse("E6"))
        c = element_from_simple_word(g, range(6))
        x = g.reflections[0] * c
        y = g.reflections[first_reduced_word(x)[0]] * x
        assert len(orbit_search(y)) == 1 and not walks  # no table yet
        assert len(orbit_search(x)) == 1 and not walks  # partial, bound within the cap
        assert len(orbit_search(x)) == 1 and not walks  # warm
        assert _table(g, x)[1] <= DEFAULT_ENUM_CAP
        assert len(orbit_search(c)) == 1 and walks == [c]  # bound above the cap
        assert _table(g, c)[1] == 833  # the size of that walk, exact
        assert len(orbit_search(c)) == 1 and walks == [c]  # warm

    def test_tables_go_with_their_graph(self, monkeypatch):
        # node ids mean something in one graph only, so the tables keyed by
        # them live in it: a fresh graph, as clear_caches swaps in, restarts
        # the ids with no table, and a search that a clear interrupts keeps
        # the graph it started on
        g = CoxeterSystem(CoxeterDescriptor.parse("B3"))  # private caches
        c = element_from_simple_word(g, (0, 1, 2))
        w = element_from_simple_word(g, (0, 1, 2) * 3)  # w0 = -1: several orbits

        def orbits(x):
            return [(o.representative, o.size) for o in orbit_search(x)]

        expected = orbits(w)
        assert len(expected) > 1
        g.clear_caches()
        assert len(orbits(c)) == 1 and _table(g, c)
        g._interval = _IntervalGraph({}, {}, {}, {}, count())  # the graph only
        assert orbits(w) == expected
        g.clear_caches()
        join = subgroups.join
        cleared = []

        def clear_then_join(*args):
            if not cleared:
                cleared.append(g._interval)
                g.clear_caches()
            return join(*args)

        monkeypatch.setattr(subgroups, "join", clear_then_join)
        assert orbits(w) == expected and cleared[0] is not g._interval

    @pytest.mark.parametrize("cap", [100, 832])
    def test_refused_search_walks_once(self, monkeypatch, cap):
        # without tables the fill walk is the interval walk: it raises the
        # error of the interval walk itself, without calling it
        walks = []
        walk = dual._walk

        def spy(graph, x, cap):
            walks.append(x)
            return walk(graph, x, cap)

        monkeypatch.setattr(dual, "_walk", spy)
        g = CoxeterSystem(CoxeterDescriptor.parse("E6"))  # private caches
        c = element_from_simple_word(g, range(6))
        with pytest.raises(CapExceededError) as refused:
            orbit_search(c, cap=cap)
        assert not walks
        with pytest.raises(CapExceededError) as walked:
            interval(c, cap)
        assert str(refused.value) == str(walked.value)

    def test_word_cap_error_names_the_word_total(self):
        # [1, c] (833 elements) fits under the cap, the words do not
        c = element_from_simple_word(build_group("E6"), range(6))
        with pytest.raises(CapExceededError,
                           match="has 41472 reduced words, above the cap of 1000"):
            hurwitz_orbits(c, cap=1000)

    def test_search_lists_no_word(self):
        _, w = stst()
        assert [o.members for o in orbit_search(w)] == [None, None]


def _as_tuples(orbits):
    return [(o.members, o.representative, o.size, o.subgroup) for o in orbits]


def _searched(x):
    return [(o.representative, o.size, o.subgroup) for o in orbit_search(x)]


def _without_members(orbits):
    return [(rep, size, sub) for _, rep, size, sub in orbits]


class TestOrbitsAgainstMoves:
    """Orbits keyed by generated subgroup against orbits joined by moves."""

    @pytest.mark.parametrize(
        "name", ["A4", "B3", "B4", "D4", "F4", "H3", "G2", "I2(7)", "I2(8)", "B2xB2"]
    )
    def test_every_element(self, name):
        g = build_group(name)
        for x in enumerate_group(g):
            by_moves = orbits_by_moves(x)
            assert _as_tuples(hurwitz_orbits(x)) == by_moves
            assert _searched(x) == _without_members(by_moves)

    @pytest.mark.parametrize("name,word", WORDS_ELEMENTS)
    def test_benchmark_elements(self, name, word):
        x = element_from_simple_word(build_group(name), word)
        by_moves = orbits_by_moves(x)
        assert _as_tuples(hurwitz_orbits(x)) == by_moves
        assert _searched(x) == _without_members(by_moves)


@pytest.mark.parametrize("name", ["F4", "B4", "H3"])
def test_search_in_either_order_on_fresh_tables(name):
    """Every element's orbits, its tables filled from below (enumeration
    order) or from above (reverse order), against the search along moves."""
    expected = {
        x.images: [(rep, size, sub.refl_set) for _, rep, size, sub in orbits_by_moves(x)]
        for x in enumerate_group(build_group(name))
    }
    for step in (1, -1):
        g = CoxeterSystem(CoxeterDescriptor.parse(name))  # private caches
        for x in enumerate_group(g)[::step]:
            found = [(o.representative, o.size, o.subgroup.refl_set)
                     for o in orbit_search(x)]
            assert found == expected[x.images]


def _check_representatives_and_bounds(x):
    for orbit in orbit_search(x):
        assert orbit.representative == first_reduced_word(
            x, letters=orbit.subgroup.refl_set)
    assert _table(x.group, x)[1] >= len(interval(x))


@pytest.mark.parametrize("name", ["F4", "B4", "H3"])
def test_representatives_read_off_the_graph_on_every_element(name):
    """The representative read off the interval graph against the greedy
    word over the orbit's subgroup, and the stored bound against |[1, x]|."""
    for x in enumerate_group(build_group(name)):
        _check_representatives_and_bounds(x)


def test_representatives_read_off_the_graph_on_random_e6_elements():
    g = build_group("E6")
    rng = random.Random(1401)
    for _ in range(100):
        _check_representatives_and_bounds(
            element_from_simple_word(g, [rng.randrange(g.rank) for _ in range(40)]))


@pytest.mark.parametrize("name,seed", [("E6", 1106), ("H4", 1104)])
def test_search_against_letter_sets_on_random_elements(name, seed):
    """The search against the bucketing of listed words, on 100 elements."""
    g = build_group(name)
    rng = random.Random(seed)
    for _ in range(100):
        x = element_from_simple_word(g, [rng.randrange(g.rank) for _ in range(40)])
        assert _searched(x) == _without_members(orbits_by_letter_sets(x))


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

    @pytest.mark.parametrize(
        "name",
        ["A4", "B4", "D4", "F4", "H3", "G2", "I2(7)", "I2(8)",
         "B2xB2", "A2xA2", "B3xA1", "H3xA1"],
    )
    def test_matches_the_parabolicity_of_the_word_subgroup(self, name):
        g = build_group(name)
        for x in enumerate_group(g):
            word = first_reduced_word(x)
            expected = is_parabolic(reflection_closure(g, set(word)))
            assert is_parabolic_quasi_coxeter(x) == expected
            full_rank = reflection_length(x) == g.rank
            assert is_quasi_coxeter(x) == (expected and full_rank)


class TestCorrespondence:
    def test_reflection_has_one_pair(self):
        g = build_group("A2")
        orbits = hurwitz_orbits(g.reflections[1])
        assert len(orbits) == 1
        assert orbits[0].subgroup.refl_set == {1}

    def test_stst_has_two_distinct_subgroups(self):
        _, w = stst()
        orbits = hurwitz_orbits(w)
        assert len(orbits) == 2
        assert orbits[0].subgroup.refl_set != orbits[1].subgroup.refl_set

    def test_dihedral_rotation_orbit_count(self):
        # rotations r^j of a dihedral group: the orbit count is gcd(j, m)
        from math import gcd

        g = build_group("I2(8)")
        m = 8
        r = g.reflections[1] * g.reflections[0]
        x = g.identity
        for j in range(1, m):
            x = x * r
            assert len(hurwitz_orbits(x)) == gcd(j, m)

"""Reflection length, absolute order, reduced words, parabolic closure."""

import sys
import threading
from collections import deque
from itertools import islice
from math import factorial
from random import Random

import pytest
from elimination import (
    is_parabolic_by_fixed_space,
    length_and_below,
    minus_identity,
    moved_space,
)
from wordtree import iter_reduced_by_tree

from dualcox import (
    CapExceededError,
    CoxeterDescriptor,
    CoxeterSystem,
    Element,
    absolute_leq,
    below_reflections,
    build_group,
    contains_element,
    count_reduced,
    element_from_simple_word,
    enumerate_group,
    first_reduced_word,
    hurwitz_orbits,
    interval,
    is_parabolic,
    iter_reduced,
    orbit_search,
    parabolic_closure,
    reduced_expressions,
    reflection_below,
    reflection_length,
)
from dualcox.permmodel import element_from_signed, parse_cycles, signed_from_cycles


def bfs_reflection_distance(g):
    """Independent oracle: Cayley distance over all reflections."""
    dist = {g.identity.images: 0}
    queue = deque([g.identity])
    while queue:
        x = queue.popleft()
        for t in g.reflections:
            y = t * x
            if y.images not in dist:
                dist[y.images] = dist[x.images] + 1
                queue.append(y)
    return dist


def coxeter_element(g):
    return element_from_simple_word(g, range(g.rank))


def d4_example():
    g = build_group("D4")
    return g, element_from_simple_word(g, [1, 2, 1, 2, 2, 0, 2, 3])


class TestReflectionLength:
    def test_identity_and_reflections(self):
        g = build_group("B3")
        assert reflection_length(g.identity) == 0
        assert all(reflection_length(t) == 1 for t in g.reflections)

    def test_g2_double_rotation(self):
        g = build_group("G2")
        assert reflection_length(element_from_simple_word(g, [0, 1, 0, 1])) == 2

    def test_d4_example_has_full_length(self):
        _, w = d4_example()
        assert reflection_length(w) == 4

    @pytest.mark.parametrize("name", ["A3", "G2", "I2(7)"])
    def test_matches_cayley_distance(self, name):
        g = build_group(name)
        dist = bfs_reflection_distance(g)
        for x in enumerate_group(g):
            assert reflection_length(x) == dist[x.images]

    def test_mov_dimensions_add_up(self):
        from dualcox.algebra import kernel_basis

        g = build_group("B3")
        for x in enumerate_group(g):
            mov_rows, _ = moved_space(x)
            fixed = kernel_basis(minus_identity(x.matrix()))
            assert len(fixed) + len(mov_rows) == g.ambient_dim
            assert len(mov_rows) == reflection_length(x)


class TestAgainstElimination:
    @pytest.mark.parametrize("name", ["A4", "B3", "D4", "F4", "H3", "B2xB2"])
    def test_orbit_sums_match_elimination(self, name):
        # below-sets from root-orbit sums and lengths from closure ranks
        # against the span of w - 1, on every element
        g = build_group(name)
        for x in enumerate_group(g):
            length, below = length_and_below(x)
            assert below_reflections(x) == below
            assert reflection_length(x) == length

    @pytest.mark.parametrize("name", [
        "E7", "E8", "H4", "B8", "D8", "A12", "B2xH3", "A15", "A16", "B11", "B12",
    ])
    def test_random_words_on_large_types(self, name):
        # A15 and B11 hold their elements as bytes (2N <= 256 signed
        # points), A16 and B12 as tuples
        g = build_group(name)
        rng = Random(sum(map(ord, name)))
        for _ in range(4):
            word = [rng.randrange(g.rank) for _ in range(rng.randint(1, 3 * g.rank))]
            x = element_from_simple_word(g, word)
            length, below = length_and_below(x)
            assert below_reflections(x) == below
            assert reflection_length(x) == length
            closure = parabolic_closure(x)
            assert is_parabolic(closure) == is_parabolic_by_fixed_space(closure)
            assert contains_element(closure, x)


class TestAbsoluteOrder:
    def test_identity_below_everything(self):
        g = build_group("A3")
        for x in enumerate_group(g):
            assert absolute_leq(g.identity, x)
            assert absolute_leq(x, x)

    def test_distinct_reflections_incomparable(self):
        g = build_group("A2")
        assert not absolute_leq(g.simple[0], g.simple[1])

    def test_two_routes_to_the_reflection_layer_agree(self):
        # membership of a root in the moved space against the defining
        # length equation, on full sweeps
        for name in ("A3", "B2", "G2"):
            g = build_group(name)
            for x in enumerate_group(g):
                for t in range(g.n_reflections):
                    assert reflection_below(t, x) == absolute_leq(g.reflections[t], x)


class TestReflectionBelow:
    def test_below_identity_is_empty(self):
        g = build_group("B3")
        assert below_reflections(g.identity) == frozenset()

    def test_reflection_below_itself(self):
        g = build_group("B3")
        for t in range(g.n_reflections):
            assert reflection_below(t, g.reflections[t])

    def test_every_reflection_below_the_d4_example(self):
        g, w = d4_example()
        assert below_reflections(w) == frozenset(range(g.n_reflections))


class TestReducedExpressions:
    def test_identity_and_single_reflection(self):
        g = build_group("A2")
        assert reduced_expressions(g.identity).words == ((),)
        assert reduced_expressions(g.reflections[1]).words == ((1,),)

    def test_g2_stst_has_six_words(self):
        g = build_group("G2")
        w = element_from_simple_word(g, [0, 1, 0, 1])
        # oracle: exhaustive search over ordered reflection pairs
        expected = sorted(
            (a, b)
            for a in range(g.n_reflections)
            for b in range(g.n_reflections)
            if g.reflections[a] * g.reflections[b] == w
        )
        assert len(expected) == 6
        assert list(reduced_expressions(w).words) == expected

    def test_lexicographic_order_and_first_word(self):
        g = build_group("B3")
        w = element_from_simple_word(g, [0, 1, 2])
        words = reduced_expressions(w).words
        assert list(words) == sorted(words)
        assert first_reduced_word(w) == words[0]

    def test_subword_property(self):
        g = build_group("B3")
        w = element_from_simple_word(g, [0, 1, 2])
        for word in reduced_expressions(w).words:
            prefix = g.identity
            for k, t in enumerate(word, start=1):
                prefix = prefix * g.reflections[t]
                assert reflection_length(prefix) == k
                assert absolute_leq(prefix, w)

    def test_truncation_is_flagged(self):
        g = build_group("G2")
        w = element_from_simple_word(g, [0, 1, 0, 1])
        red = reduced_expressions(w, cap=4)
        assert red.truncated and len(red.words) == 4
        assert not reduced_expressions(w, cap=6).truncated

    def test_restriction_to_the_closure_changes_nothing(self):
        # reduced words only ever use reflections below the element, so
        # restricting the alphabet to its parabolic closure is invisible
        g = build_group("B3")
        for x in enumerate_group(g):
            full = set(iter_reduced(x))
            restricted = set(iter_reduced(x, letters=parabolic_closure(x).refl_set))
            assert full == restricted


class TestParabolicClosure:
    def test_trivial_cases(self):
        g = build_group("B3")
        assert parabolic_closure(g.identity).rank == 0
        for t in range(g.n_reflections):
            sub = parabolic_closure(g.reflections[t])
            assert sub.refl_set == {t} and sub.rank == 1

    def test_d4_example_closes_to_the_whole_group(self):
        g, w = d4_example()
        sub = parabolic_closure(w)
        assert sub.refl_set == frozenset(range(g.n_reflections))
        assert sub.rank == 4

    def test_rank_equals_length_on_a_sweep(self):
        for name in ("A3", "B3", "I2(8)"):
            g = build_group(name)
            for x in enumerate_group(g):
                assert parabolic_closure(x).rank == reflection_length(x)

    def test_element_lies_in_its_closure(self):
        from dualcox import contains_element

        g = build_group("B3")
        for x in enumerate_group(g):
            assert contains_element(parabolic_closure(x), x)


WORD_GROUPS = ["A4", "B3", "B4", "D4", "F4", "H3", "G2", "I2(7)", "B2xB2"]

# (type, Coxeter number h, group order |W|), from the classical tables
COXETER_NUMBERS = (
    [(f"A{n}", n + 1, factorial(n + 1)) for n in range(4, 9)]
    + [(f"B{n}", 2 * n, 2**n * factorial(n)) for n in range(4, 9)]
    + [(f"D{n}", 2 * n - 2, 2 ** (n - 1) * factorial(n)) for n in range(4, 9)]
    + [("F4", 12, 1152), ("H3", 10, 120), ("H4", 30, 14400),
       ("E6", 12, 51840), ("E7", 18, 2903040)]
)


class TestIntervalGraph:
    @pytest.mark.parametrize("name", WORD_GROUPS)
    def test_listing_matches_the_word_tree(self, name):
        # same words in the same order, with and without a letter set that
        # leaves dead ends in the graph
        g = build_group(name)
        letters = frozenset(t for t in range(g.n_reflections) if t % 3 != 1)
        for x in enumerate_group(g):
            assert list(iter_reduced(x)) == list(iter_reduced_by_tree(x))
            assert (list(iter_reduced(x, letters))
                    == list(iter_reduced_by_tree(x, letters)))

    @pytest.mark.parametrize("label", ["B4 cycles", "D4 quasi-Coxeter", "G2 stst", "F4 w0"])
    def test_listing_of_the_words_elements_matches_the_word_tree(self, label):
        # the non-Coxeter elements of the benchmark's ``words`` workload; the
        # letter set leaves dead ends: an allowed first letter below x from
        # which no word over the letters reaches 1
        if label == "B4 cycles":
            g = build_group("B4")
            x = element_from_signed(
                g, signed_from_cycles(4, parse_cycles("(1,-2,-1,2)(3,4,-3,-4)")))
        else:
            name, word = {"D4 quasi-Coxeter": ("D4", (1, 2, 1, 2, 2, 0, 2, 3)),
                          "G2 stst": ("G2", (0, 1, 0, 1)),
                          "F4 w0": ("F4", (0, 1, 2, 3) * 6)}[label]
            g = build_group(name)
            x = element_from_simple_word(g, word)
        letters = frozenset(t for t in range(g.n_reflections) if t % 3 != 1)
        assert any(not list(iter_reduced_by_tree(g.reflections[t] * x, letters))
                   for t in letters & below_reflections(x))
        assert list(iter_reduced(x)) == list(iter_reduced_by_tree(x))
        restricted = list(iter_reduced(x, letters))
        assert restricted == list(iter_reduced_by_tree(x, letters)) and restricted

    def test_threads_share_one_numbering(self):
        g = CoxeterSystem(CoxeterDescriptor.parse("E6"))  # private caches
        c = coxeter_element(g)
        barrier = threading.Barrier(4)
        found = []

        def listing():
            barrier.wait()
            found.append(reduced_expressions(c).words)

        threads = [threading.Thread(target=listing) for _ in range(4)]
        interval_s = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval_s)
        assert not any(th.is_alive() for th in threads)
        assert len(found) == 4 and all(words == found[0] for words in found)
        assert len(found[0]) == 41472
        graph = g._interval
        assert len(graph.nodes) == len(graph.elements) == 833
        assert all(graph.elements[i].images == images for images, i in graph.nodes.items())
        assert set(graph.edges) <= set(graph.elements)

    def test_warm_graph_forms_no_product(self, monkeypatch):
        g = CoxeterSystem(CoxeterDescriptor.parse("E6"))  # private caches
        c = coxeter_element(g)
        words = reduced_expressions(c).words
        nodes = len(g._interval.nodes)
        products = []
        multiply = Element.__mul__

        def counted(a, b):
            products.append(1)
            return multiply(a, b)

        monkeypatch.setattr(Element, "__mul__", counted)
        assert count_reduced(c) == len(words) == 41472
        assert len(interval(c)) == nodes == 833
        assert [o.size for o in orbit_search(c)] == [41472]
        assert [o.members for o in hurwitz_orbits(c)] == [words]
        assert not products and len(g._interval.nodes) == nodes

    @pytest.mark.parametrize("name", WORD_GROUPS)
    def test_truncation_matches_the_word_tree(self, name):
        g = build_group(name)
        for x in enumerate_group(g):
            tree = list(islice(iter_reduced_by_tree(x), 8))
            for cap in (1, 2, 7):
                red = reduced_expressions(x, cap)
                assert red.words == tuple(tree[:cap])
                assert red.truncated == (len(tree) > cap)

    def test_interval_is_the_absolute_interval(self):
        # nodes against absolute order over the whole group, distances
        # against drops in reflection length
        g = build_group("B3")
        for x in enumerate_group(g):
            got = {y.images: d for y, d in interval(x)}
            want = {
                u.images: reflection_length(x) - reflection_length(u)
                for u in enumerate_group(g)
                if absolute_leq(u, x)
            }
            assert got == want

    @pytest.mark.parametrize("name,h,order", COXETER_NUMBERS,
                             ids=[c[0] for c in COXETER_NUMBERS])
    def test_count_matches_deligne_chapoton(self, name, h, order):
        # a Coxeter element has h^n n! / |W| reduced reflection words
        g = build_group(name)
        n = g.rank
        assert h**n * factorial(n) % order == 0
        assert count_reduced(coxeter_element(g)) == h**n * factorial(n) // order

    @pytest.mark.parametrize("name", ["H3", "B3", "A4", "F4"])
    def test_count_matches_the_listing(self, name):
        g = build_group(name)
        for x in enumerate_group(g):
            assert count_reduced(x) == len(list(iter_reduced(x)))

    def test_cap_error_says_how_far_it_got(self):
        g = build_group("E6")
        c = coxeter_element(g)
        with pytest.raises(CapExceededError,
                           match="stopped after building 100 of them") as info:
            count_reduced(c, cap=100)
        assert info.value.cap == 100
        assert len(interval(c)) == 833
        assert count_reduced(c) == 41472

    def test_clear_caches_empties_them_and_answers_stay(self):
        g = CoxeterSystem(CoxeterDescriptor.parse("B3"))  # private caches
        c = coxeter_element(g)
        words = reduced_expressions(c).words
        w = element_from_simple_word(g, (0, 1, 2) * 3)  # w0 = -1: several orbits
        orbits = hurwitz_orbits(w)
        enumerate_group(g)
        graph = g._interval
        assert g._below_cache and graph.nodes and graph.elements and graph.edges
        assert g._closed_sets and any(joins for _, _, joins in g._closed_sets.values())
        node = graph.nodes[w.images]
        assert node in graph.tables and len(graph.tables[node][0]) == len(orbits)
        assert g._all_elements is not None
        g.clear_caches()
        graph = g._interval
        assert not (g._below_cache or graph.nodes or graph.elements or graph.edges)
        assert not (g._closed_sets or graph.tables)
        assert g._all_elements is None
        assert reduced_expressions(c).words == words
        assert count_reduced(c) == len(words) == 27
        assert hurwitz_orbits(w) == orbits and len(orbits) > 1

    def test_listing_outlives_a_clear(self):
        # a suspended listing keeps the graph, and its ids, it started on
        g = CoxeterSystem(CoxeterDescriptor.parse("B3"))  # private caches
        c = coxeter_element(g)
        words = reduced_expressions(c).words
        g.clear_caches()
        listing = iter_reduced(c)
        first = next(listing)
        g.clear_caches()
        assert count_reduced(element_from_simple_word(g, (0, 1, 2) * 3)) > 0
        assert (first, *listing) == words

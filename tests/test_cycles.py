"""The commuting cycle decomposition and its verifier."""

import random

import pytest
from wordtree import is_indecomposable_over_group

from dualcox import (
    CoxeterDescriptor,
    CoxeterSystem,
    NotQuasiCoxeterError,
    all_decompositions,
    build_group,
    cycle_decomposition,
    decomposition_in_subgroup,
    element_from_simple_word,
    enumerate_group,
    full_subgroup,
    is_indecomposable,
    is_indecomposable_brute,
    is_parabolic_quasi_coxeter,
    iter_reduced,
    parabolic_closure,
    reflection_closure,
    reflection_length,
    verify_decomposition,
)
from dualcox import cycles


def stst():
    g = build_group("G2")
    return g, element_from_simple_word(g, [0, 1, 0, 1])


class TestCycleDecomposition:
    def test_identity_has_no_factors(self):
        g = build_group("A3")
        dec = cycle_decomposition(g.identity)
        assert dec.factors == ()

    def test_commuting_transpositions(self):
        g = build_group("A3")
        x = element_from_simple_word(g, [0, 2])
        dec = cycle_decomposition(x)
        assert len(dec.factors) == 2
        assert all(reflection_length(f) == 1 for f in dec.factors)
        assert [c.type_string for c in dec.factor_closures] == ["A1", "A1"]

    def test_factors_multiply_and_commute(self):
        g = build_group("B3")
        for x in enumerate_group(g):
            if not is_parabolic_quasi_coxeter(x):
                continue
            dec = cycle_decomposition(x)
            product = g.identity
            for f in dec.factors:
                product = product * f
            assert product == x
            assert sum(reflection_length(f) for f in dec.factors) == reflection_length(x)
            for i in range(len(dec.factors)):
                for j in range(i + 1, len(dec.factors)):
                    assert dec.factors[i] * dec.factors[j] == dec.factors[j] * dec.factors[i]

    def test_non_quasi_coxeter_is_rejected(self):
        _, w = stst()
        with pytest.raises(NotQuasiCoxeterError):
            cycle_decomposition(w)

    def test_word_independence_in_b2(self):
        g = build_group("B2")
        for x in enumerate_group(g):
            if not is_parabolic_quasi_coxeter(x):
                continue
            reference = cycle_decomposition(x)
            closure = parabolic_closure(x)
            for word in iter_reduced(x):
                dec = cycles._decompose_along(x, word, closure, full_subgroup(g))
                assert dec.factors == reference.factors

    def test_type_a_factors_are_the_classical_cycles(self):
        from dualcox import classical_cycles, to_permutation

        g = build_group("A3")
        for x in enumerate_group(g):
            dec = cycle_decomposition(x)
            expected = sorted(classical_cycles(to_permutation(x)))
            got = sorted(
                classical_cycles(to_permutation(f))[0] for f in dec.factors
            )
            assert got == expected

    @pytest.mark.parametrize("name", ["B3", "D4", "H3", "G2", "B2xB2", "A2xA2"])
    def test_factor_closures_are_the_components_themselves(self, name):
        g = build_group(name)
        for x in enumerate_group(g):
            decs = [(orbit.subgroup, dec) for orbit, dec in all_decompositions(x).entries]
            if is_parabolic_quasi_coxeter(x):
                decs.append((parabolic_closure(x), cycle_decomposition(x)))
            for container, dec in decs:
                for closure in dec.factor_closures:
                    assert any(closure is c for c in container.components)


class TestDecompositionInSubgroup:
    def test_stst_in_its_orbit_subgroup(self):
        g, w = stst()
        s, _ = g.simple_ids
        tst = g.simple[1].conjugate_reflection(s)
        amb = reflection_closure(g, {s, tst})
        dec = decomposition_in_subgroup(w, amb)
        assert dec.factors == (w,)
        assert dec.ambient is amb

    def test_rejects_wrong_subgroups(self):
        g, w = stst()
        # w is not quasi-Coxeter in the full group
        with pytest.raises(NotQuasiCoxeterError):
            decomposition_in_subgroup(w, full_subgroup(g))
        # and does not even lie in a single-reflection subgroup
        with pytest.raises(NotQuasiCoxeterError):
            decomposition_in_subgroup(w, reflection_closure(g, {0}))

    def test_matches_cycle_decomposition_on_the_closure(self):
        from dualcox import parabolic_closure

        g = build_group("B3")
        for x in enumerate_group(g):
            if not is_parabolic_quasi_coxeter(x) or x.is_identity():
                continue
            via_closure = decomposition_in_subgroup(x, parabolic_closure(x))
            assert via_closure.factors == cycle_decomposition(x).factors


class TestAllDecompositions:
    def test_single_orbit_elements_have_one_entry(self):
        g = build_group("A3")
        x = element_from_simple_word(g, [0, 1, 2])
        report = all_decompositions(x)
        assert len(report.entries) == 1
        assert report.entries[0][1].factors == cycle_decomposition(x).factors

    def test_stst_repeats_factors_with_distinct_closures(self):
        _, w = stst()
        report = all_decompositions(w)
        assert len(report.entries) == 2
        assert all(dec.factors == (w,) for _, dec in report.entries)
        assert report.equal_factor_pairs == ((0, 1),)
        assert report.closure_sets_distinct

    def test_closure_multisets_always_differ_across_orbits(self):
        for name in ("B3", "G2", "I2(8)"):
            g = build_group(name)
            for x in enumerate_group(g):
                assert all_decompositions(x).closure_sets_distinct


class TestReducibleAmbient:
    def test_coxeter_element_of_b2xb2_splits_into_two_factors(self):
        g = build_group("B2xB2")
        full = full_subgroup(g)
        assert full.type_string == "B2xB2"
        c = element_from_simple_word(g, [0, 1, 2, 3])
        dec = cycle_decomposition(c)
        assert len(dec.factors) == 2
        assert [cl.type_string for cl in dec.factor_closures] == ["B2", "B2"]
        assert verify_decomposition(c, dec.factors).passed

    def test_transitivity_equivalence_holds_in_a_product_group(self):
        from dualcox import hurwitz_orbits

        g = build_group("B2xB2")
        for x in enumerate_group(g):
            assert (len(hurwitz_orbits(x)) == 1) == is_parabolic_quasi_coxeter(x)


class TestIndecomposability:
    def test_identity_and_reflections(self):
        g = build_group("A3")
        assert not is_indecomposable(g.identity)
        assert is_indecomposable(g.reflections[0])

    def test_fast_path_agrees_with_brute_force(self):
        for name in ("A3", "B2", "B3", "G2"):
            g = build_group(name)
            for x in enumerate_group(g):
                assert is_indecomposable(x) == is_indecomposable_brute(x)

    @pytest.mark.parametrize(
        "name",
        ["A4", "B4", "D4", "F4", "H3", "G2", "I2(7)", "I2(8)",
         "B2xB2", "A2xA2", "B3xA1", "H3xA1"],
    )
    def test_closure_components_match_the_factor_count(self, name):
        g = build_group(name)
        for x in enumerate_group(g):
            if is_parabolic_quasi_coxeter(x) and not x.is_identity():
                assert is_indecomposable(x) == (len(cycle_decomposition(x)) == 1)

    @pytest.mark.parametrize("name", ["B4", "D4", "F4", "H3"])
    def test_interval_search_matches_the_group_sweep(self, name):
        g = build_group(name)
        for x in enumerate_group(g):
            assert is_indecomposable_brute(x) == is_indecomposable_over_group(x)

    @pytest.mark.parametrize("name,size", [("H4", 6), ("E6", 3)])
    def test_interval_search_matches_the_group_sweep_on_samples(self, name, size):
        # a private system, so the sweep's caches go with it
        g = CoxeterSystem(CoxeterDescriptor.parse(name))
        rng = random.Random(7)
        sample = [
            element_from_simple_word(g, [rng.randrange(g.rank) for _ in range(40)])
            for _ in range(size)
        ]
        answers = [is_indecomposable_over_group(x) for x in sample]
        assert [is_indecomposable_brute(x) for x in sample] == answers
        assert set(answers) == {True, False}

    def test_commuting_product_is_decomposable(self):
        g = build_group("A3")
        x = element_from_simple_word(g, [0, 2])
        assert not is_indecomposable(x)


class TestVerifier:
    def test_computed_decompositions_pass(self):
        g = build_group("B3")
        for x in list(enumerate_group(g))[:20]:
            if not is_parabolic_quasi_coxeter(x):
                continue
            dec = cycle_decomposition(x)
            assert verify_decomposition(x, dec.factors).passed

    def test_unsplit_decomposable_element_fails(self):
        g = build_group("A3")
        x = element_from_simple_word(g, [0, 2])
        report = verify_decomposition(x, [x])
        failed = {name for name, ok, _ in report.checks if not ok}
        assert failed == {"factors_indecomposable"}

    def test_wrong_product_fails(self):
        g = build_group("A3")
        report = verify_decomposition(g.simple[0], [g.simple[1]])
        assert not report.passed
        assert any(name == "product" and not ok for name, ok, _ in report.checks)

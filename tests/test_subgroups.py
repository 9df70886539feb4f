"""Reflection subgroup closure, canonical generators, components, parabolicity."""

from itertools import combinations

import pytest
from elimination import all_reflection_subgroups, is_parabolic_by_fixed_space

from dualcox import (
    CoxeterDescriptor,
    CoxeterSystem,
    GroupTooLargeError,
    MixedGroupsError,
    build_group,
    canonical_generators,
    contains_element,
    enumerate_group,
    full_subgroup,
    is_parabolic,
    iter_reduced,
    reflection_closure,
)


def g2_sub_indices():
    """Reflection indices of s, t, tst and sts in G2."""
    g = build_group("G2")
    s, t = g.simple_ids
    tst = g.simple[1].conjugate_reflection(s)
    sts = g.simple[0].conjugate_reflection(t)
    return g, s, t, tst, sts


class TestClosure:
    def test_single_reflection(self):
        g = build_group("B3")
        sub = reflection_closure(g, {4})
        assert sub.refl_set == {4} and sub.rank == 1
        assert sub.type_string == "A1"

    def test_all_simples_close_to_the_full_group(self):
        for name in ("A3", "B3", "G2", "H3", "I2(7)"):
            g = build_group(name)
            sub = reflection_closure(g, set(g.simple_ids))
            assert sub.refl_set == frozenset(range(g.n_reflections))
            assert sub.canonical_gens == frozenset(g.simple_ids)
            assert sub.type_string == g.type_string

    def test_g2_a2_subgroup(self):
        g, s, t, tst, sts = g2_sub_indices()
        sub = reflection_closure(g, {s, tst})
        assert len(sub.refl_set) == 3
        assert sub.type_string == "A2"
        assert sub.canonical_gens == {s, tst}

    def test_closure_is_idempotent(self):
        g = build_group("B3")
        for size in (1, 2, 3):
            for gens in combinations(range(g.n_reflections), size):
                sub = reflection_closure(g, gens)
                assert reflection_closure(g, sub.refl_set).refl_set == sub.refl_set

    def test_closure_matches_brute_force_membership(self):
        # pairwise-conjugation closure equals the reflections that lie in the
        # subgroup generated, by brute force enumeration, over every subset
        for name in ("A3", "B3", "G2"):
            g = build_group(name)
            reflections = list(range(g.n_reflections))
            for size in range(g.n_reflections + 1):
                for gens in combinations(reflections, size):
                    sub = reflection_closure(g, gens)
                    members = sub.elements()
                    brute = {
                        t for t in reflections if g.reflections[t] in members
                    }
                    assert brute == sub.refl_set


class TestCanonicalGenerators:
    def test_single_and_full(self):
        g = build_group("B3")
        assert canonical_generators(g, frozenset({2})) == {2}
        full = frozenset(range(g.n_reflections))
        assert canonical_generators(g, full) == frozenset(g.simple_ids)

    def test_each_generator_has_one_internal_inversion(self):
        for name in ("A3", "B3", "G2", "H3"):
            g = build_group(name)
            for size in (1, 2):
                for gens in combinations(range(g.n_reflections), size):
                    sub = reflection_closure(g, gens)
                    for t in sub.canonical_gens:
                        row = g.reflections[t].images
                        assert sum(row[j] & 1 for j in sub.refl_set) == 1

    def test_canonical_generators_generate(self):
        g = build_group("B3")
        for gens in combinations(range(g.n_reflections), 2):
            sub = reflection_closure(g, gens)
            regenerated = reflection_closure(g, sub.canonical_gens)
            assert regenerated.refl_set == sub.refl_set


class TestComponents:
    def test_full_a2_is_one_block(self):
        g = build_group("A2")
        assert len(full_subgroup(g).components) == 1

    def test_commuting_transpositions_split(self):
        g = build_group("A3")
        # s0 and s2 commute; their subgroup is two A1 blocks
        sub = reflection_closure(g, {g.simple_ids[0], g.simple_ids[2]})
        assert [c.label for c in sub.components] == ["A1", "A1"]
        assert sub.type_string == "A1xA1"

    def test_b2xb2_inside_b4(self):
        g = build_group("B4")
        by_coord = {root: i for i, root in enumerate(g.roots)}
        from dualcox.algebra import vector

        gens = {
            by_coord[vector([1, 0, 0, 0])],
            by_coord[vector([0, 1, 0, 0])],
            by_coord[vector([0, 0, 1, 0])],
            by_coord[vector([0, 0, 0, 1])],
        }
        # add the two swaps to tie each pair into a B2
        swaps = [v for v in g.roots if sorted(v) == sorted(vector([1, -1, 0, 0]))]
        gens |= {
            by_coord[v]
            for v in swaps
            if (v[0] and v[1]) or (v[2] and v[3])
        }
        sub = reflection_closure(g, gens)
        assert sub.type_string == "B2xB2"
        assert len(sub.refl_set) == 8
        assert [c.label for c in sub.components] == ["B2", "B2"]

    def test_component_reflections_partition(self):
        g = build_group("B3")
        for gens in combinations(range(g.n_reflections), 3):
            sub = reflection_closure(g, gens)
            union = set()
            total = 0
            for c in sub.components:
                union |= c.reflections
                total += len(c.reflections)
            assert union == sub.refl_set and total == len(sub.refl_set)


class TestParabolicity:
    def test_trivial_and_full_are_parabolic(self):
        g = build_group("B3")
        assert is_parabolic(reflection_closure(g, set()))
        assert is_parabolic(full_subgroup(g))

    def test_g2_a2_subgroup_is_not_parabolic(self):
        # its mirrors intersect only in the origin of the reflection plane,
        # and the pointwise stabilizer of that is the whole group
        g, s, t, tst, sts = g2_sub_indices()
        assert not is_parabolic(reflection_closure(g, {s, tst}))
        assert not is_parabolic(reflection_closure(g, {t, sts}))

    def test_sign_changes_in_b2_are_not_parabolic(self):
        g = build_group("B2")
        short_roots = [
            i for i, r in enumerate(g.roots) if sum(1 for c in r if c) == 1
        ]
        sub = reflection_closure(g, set(short_roots))
        assert sub.type_string == "A1xA1"
        assert not is_parabolic(sub)

    def test_standard_parabolics_are_parabolic(self):
        g = build_group("A3")
        sub = reflection_closure(g, {g.simple_ids[0], g.simple_ids[2]})
        assert is_parabolic(sub)

    @pytest.mark.parametrize("name", ["A3", "B3", "G2", "B2xB2"])
    def test_matches_the_fixed_space_rule(self, name):
        g = build_group(name)
        for sub in all_reflection_subgroups(g):
            assert is_parabolic(sub) == is_parabolic_by_fixed_space(sub)

    def test_parabolic_uniqueness_across_reduced_words(self):
        # all reduced words of one element whose letters generate a parabolic
        # subgroup generate the same one
        for name in ("A3", "B3"):
            g = build_group(name)
            for x in enumerate_group(g):
                parabolic_sets = {
                    sub.refl_set
                    for word in iter_reduced(x)
                    for sub in [reflection_closure(g, set(word))]
                    if is_parabolic(sub)
                }
                assert len(parabolic_sets) <= 1


class TestMembership:
    def test_g2_subgroup_misses_t(self):
        g, s, t, tst, sts = g2_sub_indices()
        sub = reflection_closure(g, {s, tst})
        assert not contains_element(sub, g.reflections[t])
        assert contains_element(sub, g.reflections[tst])

    def test_full_group_contains_everything(self):
        g = build_group("B2")
        full = full_subgroup(g)
        for x in enumerate_group(g):
            assert contains_element(full, x)

    def test_parabolic_shortcut_agrees_with_enumeration(self):
        g = build_group("A3")
        sub = reflection_closure(g, {g.simple_ids[0], g.simple_ids[2]})
        assert is_parabolic(sub)
        members = sub.elements()
        for x in enumerate_group(g):
            assert contains_element(sub, x) == (x in members)

    def test_every_parabolic_of_b3_agrees_with_enumeration(self):
        g = build_group("B3")
        elements = enumerate_group(g)
        for sub in all_reflection_subgroups(g):
            if not is_parabolic(sub):
                continue
            members = sub.elements()
            for x in elements:
                assert contains_element(sub, x) == (x in members)

    def test_mixed_ambient_rejected(self):
        a3, b2 = build_group("A3"), build_group("B2")
        with pytest.raises(MixedGroupsError):
            contains_element(full_subgroup(a3), b2.identity)
        assert full_subgroup(a3) != full_subgroup(b2)

    def test_subgroup_equality_ignores_generator_order(self):
        g, s, t, tst, sts = g2_sub_indices()
        assert reflection_closure(g, {s, tst}) == reflection_closure(g, {tst, s})

    def test_element_enumeration_cap(self):
        # a private system, so no other test has enumerated this subgroup yet
        g = CoxeterSystem(CoxeterDescriptor.parse("B3"))
        sub = reflection_closure(g, g.simple_ids[1:])  # type A2, six elements
        with pytest.raises(GroupTooLargeError):
            sub.elements(cap=5)
        assert len(sub.elements(cap=6)) == 6

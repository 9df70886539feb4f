"""Reflection subgroup closure, canonical generators, components, parabolicity."""

import random
import sys
import threading
import time
from itertools import combinations

import pytest
from diagrams import classify_diagram, diagram_edges, label_key
from elimination import all_reflection_subgroups, is_parabolic_by_fixed_space

from dualcox import (
    InternalInvariantError,
    MixedGroupsError,
    NotQuasiCoxeterError,
    ReflectionSubgroup,
    all_decompositions,
    build_group,
    canonical_generators,
    contains_element,
    coxeter,
    cycle_decomposition,
    decomposition_in_subgroup,
    element_from_refl_word,
    element_from_simple_word,
    embed_by_roots,
    enumerate_group,
    full_subgroup,
    is_parabolic,
    iter_reduced,
    orbit_search,
    parabolic_closure,
    permmodel,
    reflection_closure,
    subgroups,
)
from dualcox.coxeter import cayley_bfs, element_from_matrix


def listed(g, gens) -> set:
    """Elements of the subgroup generated by the given reflection indices."""
    return {x for x, _ in cayley_bfs(g, [g.reflections[t] for t in gens])}


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
        # subgroup generated, listed from the given generators, over every subset
        for name in ("A3", "B3", "G2"):
            g = build_group(name)
            reflections = list(range(g.n_reflections))
            for size in range(g.n_reflections + 1):
                for gens in combinations(reflections, size):
                    sub = reflection_closure(g, gens)
                    members = listed(g, gens)
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
                        assert sum(row[2 * j] & 1 for j in sub.refl_set) == 1

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
        assert [c.type_string for c in sub.components] == ["A1", "A1"]
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
        assert [c.type_string for c in sub.components] == ["B2", "B2"]

    def test_component_reflections_partition(self):
        g = build_group("B3")
        for gens in combinations(range(g.n_reflections), 3):
            sub = reflection_closure(g, gens)
            union = set()
            total = 0
            for c in sub.components:
                union |= c.refl_set
                total += len(c.refl_set)
            assert union == sub.refl_set and total == len(sub.refl_set)

    @pytest.mark.parametrize("name", ["B4", "D5", "F4", "H3", "B2xG2", "E6"])
    def test_components_are_interned_subgroups(self, name):
        g = build_group(name)
        assert reflection_closure(g, ()).components == ()
        for letters in letter_sets(g, 200, seed=sum(map(ord, name))):
            sub = reflection_closure(g, letters)
            for c in sub.components:
                assert c is subgroups._get_subgroup(g, c.refl_set)
                assert len(c.components) == 1 and c.components[0] is c
            if len(sub.components) == 1:
                assert sub.components[0] is sub

    @pytest.mark.parametrize("name", ["B6", "E6", "B6xE6", "H3xA1xB3", "D8"])
    def test_components_match_a_construction_from_scratch(self, name, monkeypatch):
        """Subgroups and their components, as interned by a closure, agree
        with subgroups built from their reflection sets alone."""
        g = build_group(name)
        monkeypatch.setattr(g, "_subgroup_registry", {})

        def summary(sub):
            return (sub.type_string, sub.canonical_gens, sub.rank,
                    [c.refl_set for c in sub.components], is_parabolic(sub))

        split = 0
        for letters in letter_sets(g, 150, seed=sum(map(ord, name))):
            sub = reflection_closure(g, letters)
            split += len(sub.components) > 1
            for s in (sub, *sub.components):
                scratch = subgroups.ReflectionSubgroup(g, s.refl_set)
                assert summary(s) == summary(scratch)
        assert split > 0


def handed_out(g) -> list:
    """Subgroups of B4 from every route that hands one out: closures,
    the full group, components, orbit subgroups and decomposition closures."""
    x = element_from_simple_word(g, [0, 2, 3])  # a parabolic closure A1xA2
    w = permmodel.element_from_signed(g, permmodel.signed_from_cycles(
        4, permmodel.parse_cycles("(1,-2,-1,2)(3,4,-3,-4)")))  # orbits D4, B2xB2
    orbit_subgroups = [o.subgroup for o in orbit_search(w)]
    found = [reflection_closure(g, [0, 2]), parabolic_closure(x), full_subgroup(g),
             *orbit_subgroups]
    found += [c for sub in list(found) for c in sub.components]
    decompositions = [cycle_decomposition(x), *(d for _, d in all_decompositions(w).entries),
                      decomposition_in_subgroup(w, orbit_subgroups[-1])]
    for dec in decompositions:
        found += [dec.ambient, *dec.factor_closures]
    return found


class TestInterning:
    def test_every_route_hands_out_the_registry_object(self, monkeypatch):
        assert "__eq__" not in vars(ReflectionSubgroup)
        assert "__hash__" not in vars(ReflectionSubgroup)
        monkeypatch.setattr(coxeter, "_BUILD_CACHE", {})
        barrier = threading.Barrier(4)
        runs = []

        def run():
            barrier.wait()
            runs.append(handed_out(build_group("B4")))

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and len(runs) == 4
        g = build_group("B4")
        runs.append(handed_out(g))
        g.clear_caches()
        runs.append(handed_out(g))
        registry = g._subgroup_registry
        first = runs[0]
        assert len({s.type_string for s in first}) >= 6
        for found in runs:
            assert len(found) == len(first)
            assert all(s is registry[s.refl_set] for s in found)
            assert all(s is t for s, t in zip(found, first))


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
        members = listed(g, {g.simple_ids[0], g.simple_ids[2]})
        for x in enumerate_group(g):
            assert contains_element(sub, x) == (x in members)

    def test_every_parabolic_of_b3_agrees_with_enumeration(self):
        g = build_group("B3")
        elements = enumerate_group(g)
        for sub in all_reflection_subgroups(g):
            if not is_parabolic(sub):
                continue
            members = listed(g, sub.refl_set)
            for x in elements:
                assert contains_element(sub, x) == (x in members)

    @pytest.mark.parametrize("name", ["B3", "G2", "B2xB2", "I2(8)", "A2xA1"])
    def test_every_reflection_subgroup_agrees_with_a_listing(self, name):
        g = build_group(name)
        elements = enumerate_group(g)
        subs = all_reflection_subgroups(g)
        # all of them parabolic only in type A
        assert any(not is_parabolic(sub) for sub in subs) == (name != "A2xA1")
        for sub in subs:
            members = listed(g, sub.refl_set)
            assert [contains_element(sub, x) for x in elements] == [
                x in members for x in elements
            ]

    def test_d8_inside_e8_answers_without_listing(self):
        # the D8 of the integer roots of E8 holds w0 = -1 but not the Coxeter
        # element; it has 2^7 8! elements, far above the enumeration cap
        g = build_group("E8")
        integral = {
            t for t, root in enumerate(g.roots)
            if all(c.a.denominator == 1 for c in root)
        }
        d8 = reflection_closure(g, integral)
        assert d8.type_string == "D8" and not is_parabolic(d8)
        coxeter_element = element_from_simple_word(g, range(8))
        w0 = element_from_simple_word(g, list(range(8)) * 15)  # c^(h/2), h = 30
        start = time.perf_counter()
        assert contains_element(d8, w0)
        assert not contains_element(d8, coxeter_element)
        for x in (w0, coxeter_element):
            with pytest.raises(NotQuasiCoxeterError):
                decomposition_in_subgroup(x, d8)
        assert time.perf_counter() - start < 1.0

    def test_mixed_ambient_rejected(self):
        a3, b2 = build_group("A3"), build_group("B2")
        with pytest.raises(MixedGroupsError):
            contains_element(full_subgroup(a3), b2.identity)
        assert full_subgroup(a3) != full_subgroup(b2)

    def test_subgroup_equality_ignores_generator_order(self):
        g, s, t, tst, sts = g2_sub_indices()
        assert reflection_closure(g, {s, tst}) == reflection_closure(g, {tst, s})


def letter_sets(g, count, seed):
    """Seeded random sets of 1 to rank + 1 reflection indices."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, min(g.rank + 1, g.n_reflections))
        yield rng.sample(range(g.n_reflections), size)


def walked_type(sub) -> str:
    """The type string of the diagram walker, component by component."""
    labels = []
    for c in sub.components:
        gens = sorted(c.canonical_gens)
        labels.append(classify_diagram(gens, diagram_edges(sub.ambient, gens)))
    assert [c.type_string for c in sub.components] == labels
    return "x".join(sorted(labels, key=label_key)) or "1"


class TestComponentTypes:
    @pytest.mark.parametrize(
        "name",
        ["B3", "G2", "B2xB2", "I2(8)", "A2xA1", "B6", "E6", "I2(7)"],
    )
    def test_labels_match_the_diagram_walker(self, name):
        g = build_group(name)
        seen = set()
        for letters in letter_sets(g, 400, seed=sum(map(ord, name))):
            sub = reflection_closure(g, letters)
            assert sub.type_string == walked_type(sub)
            seen.update(c.type_string for c in sub.components)
        # B6 and E6 both have 36 reflections: the closures must reach the tie
        assert name not in ("B6", "E6") or name in seen

    @pytest.mark.parametrize(
        "name",
        ["A1", "A5", "A7", "B4", "B8", "D4", "D8", "E6", "E7", "E8", "F4",
         "G2", "H3", "H4", "I2(5)", "I2(8)", "H3xA1", "B3xA2", "B6xE6"],
    )
    def test_full_groups_are_named_as_their_descriptor(self, name):
        g = build_group(name)
        sub = full_subgroup(g)
        assert sub.type_string == walked_type(sub) == g.type_string

    @pytest.mark.parametrize(
        "name",
        ["A20", "B8", "D8", "E6", "E7", "E8", "F4", "H3", "H4", "G2", "I2(5)",
         "I2(12)", "B2xH3", "B6xE6"],
    )
    def test_bonds_read_off_the_root_action_match_the_orders(self, name):
        # bonded: a and b do not commute, order >= 3; simple: order 3
        g = build_group(name)
        gens = sorted(full_subgroup(g).canonical_gens)
        for a, b in combinations(gens, 2):
            m = (g.reflections[a] * g.reflections[b]).order()
            assert subgroups._bond(g, a, b) == subgroups._bond(g, b, a) == (m >= 3, m == 3)

    def test_counts_that_fit_no_type_are_an_invariant_violation(self):
        # no rank-3 family has 7 reflections, rank 5 has A5 and D5 at 15, 20
        for rank, n_refl in ((3, 7), (5, 16), (6, 37)):
            with pytest.raises(InternalInvariantError):
                subgroups._component_label(rank, n_refl, True)


def embedded_or_none(x, target, embed=embed_by_roots):
    try:
        return embed(x, target)
    except ValueError:
        return None


def matrix_image(x, target):
    return element_from_matrix(target, x.matrix())


class TestEmbedByRoots:
    """The walk over common roots against the image of x's matrix.

    Where ``element_from_matrix`` finds no element of the target, the walk
    must raise ValueError too: on half of B4 into D4, for instance.  H3xA1
    and B2xH3 have their H3 block on the same coordinates.
    """

    @pytest.mark.parametrize("source, target", [
        ("D4", "B4"), ("B4", "D4"), ("A2", "G2"), ("G2", "A2"), ("D4", "F4"),
        ("B4", "F4"), ("F4", "B4"), ("F4", "D4"), ("H3", "H3"),
        ("H3xA1", "B2xH3"),
    ])
    def test_whole_groups(self, source, target):
        t = build_group(target)
        for x in enumerate_group(build_group(source)):
            assert embedded_or_none(x, t) == embedded_or_none(x, t, matrix_image)

    @pytest.mark.parametrize("source, target", [
        ("E6", "E7"), ("E7", "E8"), ("D8", "E8"), ("A7", "E8"), ("B8", "E8"),
        ("E8", "D8"),
    ])
    def test_seeded_samples(self, source, target):
        # 12 products of 2 * rank random reflections per pair
        g, t = build_group(source), build_group(target)
        rng = random.Random(source + target)
        for _ in range(12):
            x = element_from_refl_word(
                g, [rng.randrange(g.n_reflections) for _ in range(2 * g.rank)])
            assert embedded_or_none(x, t) == embedded_or_none(x, t, matrix_image)

    @pytest.mark.parametrize("source, target", [
        ("B3", "H3"), ("H3", "B3"), ("B4", "H4"), ("H4", "F4"), ("H3xA1", "B2xA2"),
    ])
    def test_groups_under_different_forms_are_refused(self, source, target):
        # equal coordinates are different vectors: B3's s0 has root (1,0,0),
        # as H3's s0 has, but diag(-1,1,1) sends H3's root (phi,1,0) to no root
        g, t = build_group(source), build_group(target)
        for x in (g.identity, *g.simple):
            with pytest.raises(ValueError, match="H components differ"):
                embed_by_roots(x, t)

    def test_elements_outside_the_common_reflections_are_refused(self):
        # B2xB2 and D4 share only e0 +- e1 and e2 +- e3: their reflections
        # give 16 of the 32 elements of B2xB2 whose matrices D4 holds
        g, d4 = build_group("B2xB2"), build_group("D4")
        images = {x: embedded_or_none(x, d4) for x in enumerate_group(g)}
        oracle = {x: embedded_or_none(x, d4, matrix_image) for x in images}
        assert sum(y is not None for y in images.values()) == 16
        assert sum(y is not None for y in oracle.values()) == 32
        assert all(y is None or y == oracle[x] for x, y in images.items())
        with pytest.raises(ValueError, match="roots B2xB2 shares with D4"):
            embed_by_roots(g.simple[0] * g.simple[2], d4)

    def test_half_of_b4_lies_outside_d4(self):
        d4 = build_group("D4")
        images = [embedded_or_none(x, d4) for x in enumerate_group(build_group("B4"))]
        assert images.count(None) == 192
        assert set(images) - {None} == set(enumerate_group(d4))

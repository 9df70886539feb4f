"""Group construction, elements, and the two word constructors."""

import ast
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from construction import _ambient_simples_and_form, _compose, reference_tables

from dualcox import (
    CoxeterDescriptor,
    GroupTooLargeError,
    MixedGroupsError,
    NoLinearModelError,
    UnsupportedTypeError,
    build_group,
    classical_order,
    classical_root_count,
    element_from_refl_word,
    element_from_simple_word,
    enumerate_group,
)
from dualcox import (
    cli, coxeter, cycles, dual, full_subgroup, hurwitz, permmodel, reflection_closure,
    subgroups, suites,
)
from dualcox.algebra import Matrix, Scalar, vec_dot
from dualcox.coxeter import CoxeterSystem, element_from_matrix

LINEAR_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5",
    "D6", "E6", "E7", "E8", "F4", "G2", "H3", "H4", "B2xB2", "A2xA2",
    "F4xA1", "H3xG2",
)


class TestDescriptor:
    def test_parse_and_normalize(self):
        assert str(CoxeterDescriptor.parse("A4")) == "A4"
        assert str(CoxeterDescriptor.parse("B2xA2")) == "A2xB2"
        assert CoxeterDescriptor.parse("B2xA2") == CoxeterDescriptor.parse("A2xB2")
        assert str(CoxeterDescriptor.parse("I2(6)")) == "G2"
        assert str(CoxeterDescriptor.parse("I2(3)")) == "A2"
        assert str(CoxeterDescriptor.parse("I2(4)")) == "B2"
        assert str(CoxeterDescriptor.parse("I2(7)")) == "I2(7)"

    @pytest.mark.parametrize(
        "bad", ["", "A0", "B1", "D3", "E9", "E5", "F5", "G3", "H2", "H5",
                "I2(2)", "Q5", "A2xx", "A2xI2(7)"]
    )
    def test_rejects_bad_types(self, bad):
        with pytest.raises(UnsupportedTypeError):
            CoxeterDescriptor.parse(bad)

    @pytest.mark.parametrize("text, component", [("B2xI2(5)", "I2(5)"),
                                                 ("I2(7)xA1", "I2(7)")])
    def test_dihedral_refusal_names_the_component(self, text, component):
        with pytest.raises(UnsupportedTypeError,
                           match=rf"^{re.escape(component)} is only supported as a standalone"):
            CoxeterDescriptor.parse(text)

    def test_build_cache_returns_same_system(self):
        assert build_group("G2") is build_group("I2(6)")

    def test_descriptors_sort_by_their_components(self):
        names = ["E6", "A2xB2", "A3", "B2", "A2", "G2", "I2(7)", "D4xA1", "H3xA1xB3",
                 "A1xA1"]
        assert [str(d) for d in sorted(map(CoxeterDescriptor.parse, names))] == [
            "A1xA1", "A1xB3xH3", "A1xD4", "A2", "A2xB2", "A3", "B2", "E6", "G2", "I2(7)"]


def _commuting_pair():
    """s0 s2 in A3: two commuting transpositions, reflection length 2."""
    return element_from_simple_word(build_group("A3"), [0, 2])


# each result record: a factory and its field names, in order
RECORDS = {
    "CoxeterDescriptor": (lambda: CoxeterDescriptor.parse("B2xA3"), ("components",)),
    "RedSet": (lambda: dual.reduced_expressions(_commuting_pair()),
               ("words", "truncated")),
    "HurwitzOrbit": (lambda: hurwitz.hurwitz_orbits(_commuting_pair())[0],
                     ("representative", "size", "members", "subgroup")),
    "CycleDecomposition": (lambda: cycles.cycle_decomposition(_commuting_pair()),
                           ("element", "ambient", "factors", "factor_closures")),
    "AllDecompositions": (lambda: cycles.all_decompositions(_commuting_pair()),
                          ("element", "entries", "equal_factor_pairs",
                           "closure_sets_distinct")),
    "DecompositionReport": (lambda: cycles.verify_decomposition(
                                _commuting_pair(), [_commuting_pair()]), ("checks",)),
    "Permutation": (lambda: permmodel.to_permutation(_commuting_pair()), ("images",)),
    "SignedPermutation": (lambda: permmodel.to_signed(
                              element_from_simple_word(build_group("B3"), [2, 1])),
                          ("window",)),
    "Check": (lambda: suites.Check("a check", True), ("name", "ok", "detail")),
}


class TestRecords:
    @pytest.mark.parametrize("name", list(RECORDS))
    def test_records_are_frozen_values(self, name):
        make, fields = RECORDS[name]
        record = make()
        assert type(record).__name__ == name
        values = {f: getattr(record, f) for f in fields}
        twin = type(record)(**values)
        assert twin is not record and twin == record and hash(twin) == hash(record)
        assert record == tuple(values.values())  # records are named tuples
        changed = record._replace(**{fields[-1]: None})
        assert type(changed) is type(record) and changed[:-1] == record[:-1]
        assert changed[-1] is None
        assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in values.items())})"
        for attr in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, values.get(attr))
        assert all(getattr(record, f) is v for f, v in values.items())


class TestBuild:
    @pytest.mark.parametrize(
        "name,n_roots,order",
        [
            ("A2", 3, 6),
            ("G2", 6, 12),
            ("D4", 12, 192),
            ("B2xB2", 8, 64),
            ("A1", 1, 2),
            ("I2(5)", 5, 10),
            ("I2(9)", 9, 18),
        ],
    )
    def test_counts(self, name, n_roots, order):
        g = build_group(name)
        assert g.n_reflections == n_roots
        assert classical_root_count(g.descriptor) == n_roots
        assert len(enumerate_group(g)) == order == classical_order(g.descriptor)

    def test_root_accessors(self):
        g = build_group("B2")
        assert len(g.simple_roots) == 2
        assert all(g.root_index[a] == k for a, k in zip(g.simple_roots, g.simple_ids))
        assert build_group("I2(7)").simple_roots is None

    def test_simple_reflections_negate_only_their_root(self):
        for name in ("A3", "B3", "G2", "H3"):
            g = build_group(name)
            for i, k in enumerate(g.simple_ids):
                s = g.simple[i]
                negated = [t for t in range(g.n_reflections) if s.images[2 * t] & 1]
                assert negated == [k]

    def test_d4_fork_sits_at_s2(self):
        m = build_group("D4").coxeter_matrix
        assert [m[2][j] for j in (0, 1, 3)] == [3, 3, 3]
        assert m[0][1] == m[0][3] == m[1][3] == 2

    @pytest.mark.parametrize(
        "name", LINEAR_TYPES + ("B2xH3", "H4xA2", "A12", "B8", "D8"))
    def test_tables_match_the_closure_oracle(self, name):
        roots, simple_ids, images, coxeter_matrix = reference_tables(name)
        g = build_group(name)
        assert g.roots == roots
        assert g.simple_ids == simple_ids
        assert tuple(tuple(r.images[0::2]) for r in g.reflections) == images
        assert all(tuple(r.images[1::2]) == tuple(e ^ 1 for e in r.images[0::2])
                   for r in g.reflections)
        assert g.coxeter_matrix == coxeter_matrix

    def test_integer_sign_matches_the_scalar_sign(self):
        # p + q*phi = (p + q/2) + (q/2) sqrt5
        for p in range(-40, 41):
            for q in range(-40, 41):
                half = Fraction(q, 2)
                assert coxeter._sign(p, q) == Scalar(p + half, half).sign(), (p, q)

    def test_construction_forms_no_scalar(self, capsys, monkeypatch):
        """Groups are built, and the hot verbs answer, in integers only."""

        def refuse(self, *args):
            raise AssertionError("a Scalar was formed")

        monkeypatch.setattr(coxeter, "_BUILD_CACHE", {})
        monkeypatch.setattr(Scalar, "__init__", refuse)
        for name in LINEAR_TYPES:
            build_group(name)
        for argv in (["reflen", "H4", "-w", "0 1 2 3 0"],
                     ["closure", "E6", "-w", "0 2 4"],
                     ["reds", "B4", "-w", "0 1 2 3", "--count"],
                     ["cycledec", "D5", "-w", "0 1 2 3 4"],
                     ["cycledec", "B4", "-c", "(1,-2,-1,2)(3,4,-3,-4)", "--all-orbits"],
                     ["cycledec", "D4", "-c", "(1,-2,-1,2)(3,-4,-3,4)"],
                     ["indec", "H3xG2", "-w", "0 1 2 3 4"],
                     ["perm", "A6", "-w", "0 1 0 3 5 4"],
                     ["perm", "D5", "-w", "0 1 2 3 4"]):
            assert cli.run(argv + ["--json"]) == 0, argv
        assert cli.run(["verify", "b4-embedding", "--json"]) == 0
        capsys.readouterr()
        embedded = 0
        for source, target in (("B4", "D4"), ("D4", "F4"), ("H3xA1", "B2xH3")):
            t = build_group(target)
            for x in enumerate_group(build_group(source)):
                try:
                    embedded += subgroups.embed_by_roots(x, t).group is t
                except ValueError:  # x is no product of the common reflections
                    pass
        assert embedded == 192 + 192 + 240
        with pytest.raises(AssertionError, match="a Scalar was formed"):
            build_group("B3").roots

    def test_only_coxeter_and_the_package_import_algebra(self):
        def imported(node):
            if isinstance(node, ast.Import):
                return {alias.name for alias in node.names}
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = "dualcox" + ("." + base if base else "")
                return {base} | {f"{base}.{alias.name}" for alias in node.names}
            return set()

        importers = {
            path.stem
            for path in Path(coxeter.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if "dualcox.algebra" in imported(node)
        }
        assert importers == {"coxeter", "__init__"}

    def test_concurrent_builds_share_one_system(self, monkeypatch):
        monkeypatch.setattr(coxeter, "_BUILD_CACHE", {})
        barrier = threading.Barrier(4)
        found = []

        def build():
            barrier.wait()
            g = build_group("D6")
            # without the fork node: A1, A1 and A3 components
            split = reflection_closure(g, g.simple_ids[:2] + g.simple_ids[3:])
            found.append((g, full_subgroup(g), split.components))

        threads = [threading.Thread(target=build) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(found) == 4
        assert len({id(g) for g, _, _ in found}) == 1
        assert len({id(sub) for _, sub, _ in found}) == 1
        g, _, components = found[0]
        assert sorted(c.type_string for c in components) == ["A1", "A1", "A3"]
        assert len({tuple(map(id, comps)) for _, _, comps in found}) == 1
        assert all(c is subgroups._get_subgroup(g, c.refl_set)
                   for _, _, comps in found for c in comps)
        assert (found[1][0].simple[0] * found[0][0].simple[0]).is_identity()

    def test_deterministic_indexing(self):
        g = build_group("B3")
        rebuilt = CoxeterSystem(g.descriptor)  # bypass the cache
        assert rebuilt.roots == g.roots
        assert [r.images for r in rebuilt.reflections] == [
            r.images for r in g.reflections
        ]


class TestWords:
    def test_empty_words_are_identity(self):
        g = build_group("A2")
        assert element_from_simple_word(g, []).is_identity()
        assert element_from_refl_word(g, []).is_identity()

    def test_single_letters(self):
        g = build_group("A2")
        s0 = element_from_simple_word(g, [0])
        assert s0 == g.simple[0]
        t = element_from_refl_word(g, [2])
        assert t == g.reflections[2]
        assert (t * t).is_identity()

    def test_s0s1s0_in_a2_is_the_third_reflection(self):
        g = build_group("A2")
        x = element_from_simple_word(g, [0, 1, 0])
        t = g.reflection_index(x)
        assert t is not None and t not in g.simple_ids

    def test_refl_word_matches_simple_word_in_g2(self):
        # the reflection word s * (t s t) multiplies out to s t s t
        g = build_group("G2")
        s, t = g.simple_ids
        tst = g.simple[1].conjugate_reflection(s)
        assert element_from_refl_word(g, [s, tst]) == element_from_simple_word(
            g, [0, 1, 0, 1]
        )
        # and rebuilding every element from any reduced reflection word is exact
        from dualcox import first_reduced_word

        for x in enumerate_group(g):
            assert element_from_refl_word(g, first_reduced_word(x)) == x

    def test_out_of_range_letters(self):
        g = build_group("A2")
        with pytest.raises(IndexError):
            element_from_simple_word(g, [2])
        with pytest.raises(IndexError):
            element_from_refl_word(g, [3])


class TestElementOps:
    def test_group_axioms_hold_on_a_sweep(self):
        g = build_group("B2")
        elements = enumerate_group(g)
        for x in elements:
            assert (x * x.inv()).is_identity()
        x, y, z = elements[1], elements[3], elements[5]
        assert (x * y) * z == x * (y * z)

    def test_orders(self):
        g = build_group("A2")
        assert g.identity.order() == 1
        assert (g.simple[0] * g.simple[1]).order() == 3

    @pytest.mark.parametrize("name", [
        "A1", "G2", "I2(7)", "B2xH3", "E8", "A20",
        # the last bytes group of each family, and the first tuple one
        "A15", "A16", "B11", "B12", "D11", "D12", "I2(128)", "I2(129)",
    ])
    def test_products_and_inverses_agree_with_root_codes(self, name):
        # the product on N root codes, (j << 1) | sign, is the oracle for
        # the one on 2N signed points, stored as bytes up to 256 points
        g = build_group(name)
        rng = random.Random(name)

        def random_element():
            word = [rng.randrange(g.n_reflections) for _ in range(rng.randrange(8))]
            return element_from_refl_word(g, word)

        for _ in range(200):
            x, y = random_element(), random_element()
            xy = (x * y).images
            assert tuple(xy[0::2]) == _compose(x.images[0::2], y.images[0::2])
            assert tuple(xy[1::2]) == tuple(e ^ 1 for e in xy[0::2])
            assert _compose(x.inv().images[0::2], x.images[0::2]) == tuple(
                j << 1 for j in range(g.n_reflections))

    @pytest.mark.parametrize("name", ["I2(128)", "I2(129)", "A15", "A16", "B11", "B12"])
    def test_every_element_path_keeps_the_group_container(self, name):
        # a tuple element in a bytes group would compare unequal to its
        # bytes twin, so every path that makes an element packs the same way
        g = build_group(name)
        kind = type(g.identity.images)
        assert kind is (bytes if 2 * g.n_reflections <= 256 else tuple)
        x = element_from_simple_word(g, [0, 1, 0, 1])
        made = [x, x.inv(), x * g.simple[0], element_from_refl_word(g, [1, 2, 0]),
                *g.reflections, *(y for y, _ in dual.interval(x))]
        family = g.descriptor.components[0][0]
        if family == "I":
            made.extend(enumerate_group(g))
        else:
            made.append(element_from_matrix(g, x.matrix()))
        if family == "A":
            made.append(permmodel.element_from_permutation(g, permmodel.to_permutation(x)))
        if family == "B":
            made.append(permmodel.element_from_signed(g, permmodel.to_signed(x)))
            cycles_list = permmodel.parse_cycles("(1,-2,-1,2)(3,4)")
            sp = permmodel.signed_from_cycles(g.ambient_dim, cycles_list)
            made.append(permmodel.element_from_signed(g, sp))
        assert {type(y.images) for y in made} == {kind}
        assert made[-1] == element_from_simple_word(g, made[-1].s_word())

    def test_an_element_is_its_group_and_root_action(self):
        assert coxeter.Element.__slots__ == ("group", "images")
        assert not hasattr(coxeter, "ReflWord")
        assert not hasattr(build_group("I2(7)"), "dihedral_m")
        for name in ("B3", "A16"):  # a bytes group and a tuple one
            x = element_from_simple_word(build_group(name), [0, 1, 2, 1])
            assert hash(x) == hash(x.images)
        x = element_from_simple_word(build_group("B3"), [0, 1, 2])
        assert x.matrix() is not x.matrix() and x.matrix() == x.matrix()

    def test_mixed_groups_rejected(self):
        a, b = build_group("A2"), build_group("B2")
        with pytest.raises(MixedGroupsError):
            a.identity * b.identity

    def test_matrix_agrees_with_root_action(self):
        # B2xH3 and H3xA1 mix a simple-root-basis block with dot-product ones.
        # The identity and the simple reflections act on every root as their
        # root action does, and every other element's matrix is its parent's
        # (one step nearer the identity) times a simple one: by induction on
        # length, every element's matrix acts on the roots as it does
        for name in ("A2", "G2", "H3", "B2xH3", "H3xA1"):
            g = build_group(name)
            simple = [s.matrix() for s in g.simple]
            for x, m in ((g.identity, g.identity.matrix()), *zip(g.simple, simple)):
                for t, e in enumerate(x.images[0::2]):
                    root = g.roots[e >> 1]
                    assert m.apply(g.roots[t]) == (tuple(-c for c in root) if e & 1 else root)
            matrices = {g.identity.images: g.identity.matrix()}
            for y in enumerate_group(g):  # breadth first: parents come first
                for s, ms in zip(g.simple, simple):
                    x = y * s
                    if x.images not in matrices:
                        m = matrices[x.images] = x.matrix()
                        assert m == matrices[y.images] @ ms
            assert len(matrices) == g.order

    @pytest.mark.parametrize("name", ["B3", "H3", "B2xH3", "H3xA1"])
    def test_reflection_matrices_are_orthogonal_reflections(self, name):
        # s(v) = v - 2 (v, a) / (a, a) a on the whole ambient space, under the
        # invariant form of the closure oracle: the dot-product complement
        # the matrices fix is orthogonal to every root under that form too
        g = build_group(name)
        _, form = _ambient_simples_and_form(g.descriptor)

        def pair(u, v):
            return vec_dot(u, v if form is None else tuple(vec_dot(r, v) for r in form))

        for t, a in enumerate(g.roots):
            m = g.reflections[t].matrix()
            for k in range(g.ambient_dim):
                v = tuple(Scalar(int(i == k)) for i in range(g.ambient_dim))
                c = pair(v, a) * 2 / pair(a, a)
                assert m.column(k) == tuple(x - c * y for x, y in zip(v, a))

    def test_conjugation_is_an_action(self):
        g = build_group("B2")
        elements = enumerate_group(g)
        for x in elements:
            for y in elements:
                for t in range(g.n_reflections):
                    assert (x * y).conjugate_reflection(t) == x.conjugate_reflection(
                        y.conjugate_reflection(t)
                    )

    def test_matrix_roundtrip(self):
        for name in ("A3", "B3", "H3"):
            g = build_group(name)
            for x in enumerate_group(g):
                assert element_from_matrix(g, x.matrix()) == x

    def test_root_permutations_outside_the_group_are_refused(self):
        # -I permutes the roots of A2, and B4's sign change s0 those of D4,
        # but neither lies in the group: the descent walk stops short of 1
        outside = "not in the group: the descent walk stops before 1"
        minus_one = Matrix([[-int(i == j) for j in range(3)] for i in range(3)])
        with pytest.raises(ValueError, match=outside):
            element_from_matrix(build_group("A2"), minus_one)
        with pytest.raises(ValueError, match=outside):
            element_from_matrix(build_group("D4"), build_group("B4").simple[0].matrix())

    def test_matrices_moving_the_complement_of_the_roots_are_refused(self):
        # on Q^2, A1 fixes (1, 1); -swap fixes its root (1, -1) but negates (1, 1)
        with pytest.raises(ValueError, match="moves the complement of the roots' span"):
            element_from_matrix(build_group("A1"), Matrix([[0, -1], [-1, 0]]))
        # the reflection in e0 + e1 of B2xH3 fixes the A1 root e0 - e1 and H3
        x = element_from_simple_word(build_group("B2xH3"), [0, 1, 0])
        with pytest.raises(ValueError, match="moves the complement"):
            element_from_matrix(build_group("H3xA1"), x.matrix())

    def test_canonical_s_word(self):
        g = build_group("A2")
        assert g.identity.s_word() == ()
        assert g.simple[1].s_word() == (1,)
        longest = element_from_simple_word(g, [0, 1, 0])
        assert longest.s_word() == (0, 1, 0)

    def test_s_word_reproduces_element(self):
        g = build_group("B3")
        for x in enumerate_group(g):
            assert element_from_simple_word(g, x.s_word()) == x

    def test_enumeration_cap(self):
        g = build_group("A3")
        g.clear_caches()
        for state in ("cold", "warm"):
            with pytest.raises(GroupTooLargeError,
                               match=r"^A3 has 24 elements, above the cap of 10$"):
                enumerate_group(g, cap=10)
            assert len(enumerate_group(g, cap=24)) == 24, state

    def test_enumeration_refuses_from_the_order_before_any_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cayley_bfs was called")

        monkeypatch.setattr(coxeter, "cayley_bfs", refuse)
        with pytest.raises(GroupTooLargeError,
                           match=r"^E8 has 696729600 elements, above the cap of 100000$"):
            enumerate_group(build_group("E8"))

    def test_cayley_cap_error_says_how_far_it_got(self):
        g = build_group("A3")
        with pytest.raises(GroupTooLargeError,
                           match="stopped after reaching 10 elements, at distance 3"):
            coxeter.cayley_bfs(g, g.simple, cap=10)

    def test_cayley_distance_over_simple_generators_is_coxeter_length(self):
        g = build_group("B3")
        reached = coxeter.cayley_bfs(g, g.simple)
        assert [x for x, _ in reached] == list(enumerate_group(g))
        assert all(d == len(x.s_word()) for x, d in reached)


class TestDihedralModel:
    def test_no_linear_model(self):
        g = build_group("I2(7)")
        with pytest.raises(NoLinearModelError):
            g.identity.matrix()

    def test_census_matches_linear_models(self):
        # the combinatorial model built at m in {3,4,5,6} must agree with
        # linear dihedral groups on every model-independent invariant; for
        # m = 5 that is the parabolic subgroup <s0, s1> of H3
        from dualcox import dual, hurwitz

        def census(elements):
            return sorted(
                (x.order(), dual.reflection_length(x), len(hurwitz.hurwitz_orbits(x)))
                for x in elements
            )

        h3 = build_group("H3")
        linear = {
            3: enumerate_group(build_group("A2")),
            4: enumerate_group(build_group("B2")),
            5: [x for x, _ in coxeter.cayley_bfs(h3, h3.simple[:2])],
            6: enumerate_group(build_group("G2")),
        }
        for m, elements in linear.items():
            dihedral = CoxeterSystem(CoxeterDescriptor((("I", m),)))
            assert census(enumerate_group(dihedral)) == census(elements)

    @pytest.mark.parametrize("m", [5, 7, 8, 12, 30])
    def test_matrix_and_below_sets_against_word_parity(self, m):
        # the Coxeter matrix is read off the reflections of <s0, s1>, the
        # below-sets off the reflection lookup; the oracles are the element
        # orders and the parity of the simple words: odd words are the
        # reflections, even words other than the empty one the rotations
        g = CoxeterSystem(CoxeterDescriptor((("I", m),)))
        assert g.coxeter_matrix == ((1, m), (m, 1))
        assert g.coxeter_matrix == tuple(
            tuple((a * b).order() for b in g.simple) for a in g.simple
        )
        every = frozenset(range(m))
        for x in enumerate_group(g):
            n = len(x.s_word())
            below = dual.below_reflections(x)
            if n == 0:
                assert x.is_identity() and below == frozenset()
            elif n % 2:
                assert g.reflection_index(x) is not None
                assert below == {g.reflection_index(x)}
            else:
                assert below == every

    def test_dihedral_s_word_roundtrip(self):
        g = build_group("I2(8)")
        for x in enumerate_group(g):
            assert element_from_simple_word(g, x.s_word()) == x

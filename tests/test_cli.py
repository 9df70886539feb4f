"""Command line behaviour: formats, determinism, exit codes, schema."""

import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from dualcox import (
    CoxeterDescriptor, DualcoxError, UnsupportedTypeError, WordParseError, build_group,
    cli, permmodel, rootdata, suites,
)
from dualcox.limits import requested_cap

_LONG = "9" * 5000  # int() refuses text of more than 4300 digits


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("dualcox") / "schema" / "dualcox.schema.json"
    ).read_text()
    return json.loads(text)


def run_json(capsys, argv, schema=None, expect_code=0):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    document = json.loads(out)
    if schema is not None:
        jsonschema.validate(document, schema)
    return document


class TestInfo:
    def test_a2_json_is_byte_exact(self, capsys):
        assert cli.run(["info", "A2", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == '{"type":"A2","rank":2,"n_pos_roots":3,"order":6}\n'

    def test_roots_flag_emits_scalar_text(self, capsys, schema):
        doc = run_json(capsys, ["info", "H3", "--json", "--roots"], schema)
        assert doc["n_pos_roots"] == 15
        assert len(doc["positive_roots"]) == 15

    def test_dihedral_info(self, capsys, schema):
        doc = run_json(capsys, ["info", "I2(7)", "--json"], schema)
        assert doc == {"type": "I2(7)", "rank": 2, "n_pos_roots": 7, "order": 14}

    def test_answers_from_closed_forms_without_building(self, capsys, schema):
        from dualcox.coxeter import _BUILD_CACHE, CoxeterDescriptor

        doc = run_json(capsys, ["info", "A40", "--json"], schema)
        assert doc["rank"] == 40 and doc["n_pos_roots"] == 820
        assert CoxeterDescriptor.parse("A40") not in _BUILD_CACHE


class TestElementVerbs:
    def test_reflen_of_the_empty_word(self, capsys, schema):
        doc = run_json(capsys, ["reflen", "A2", "-w", "", "--json"], schema)
        assert doc == {"element": [], "reflen": 0}

    def test_word_spellings_agree(self, capsys):
        outs = []
        for word in ("0 1 0 1", "s0 s1 s0 s1", "s*t*s*t", "s t s t"):
            assert cli.run(["reflen", "G2", "-w", word, "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert len(set(outs)) == 1

    def test_reflection_word_letters(self, capsys, schema):
        doc = run_json(capsys, ["reflen", "G2", "-r", "t0 (s1 s0 s1)", "--json"], schema)
        assert doc["reflen"] == 2

    def test_cycle_input(self, capsys, schema):
        doc = run_json(
            capsys,
            ["perm", "B4", "-c", "(1,-2,-1,2)(3,4,-3,-4)", "--json"],
            schema,
        )
        assert doc["cycles"] == "(1,-2,-1,2)(3,4,-3,-4)"
        assert doc["window"] == [-2, 1, 4, -3]

    def test_closure_verb(self, capsys, schema):
        doc = run_json(capsys, ["closure", "G2", "-w", "s t s t", "--json"], schema)
        assert doc["reflen"] == 2
        assert doc["closure"]["type"] == "G2"
        assert doc["closure"]["parabolic"] is True

    def test_reds_verb(self, capsys, schema):
        doc = run_json(capsys, ["reds", "G2", "-w", "s t s t", "--json"], schema)
        assert doc["n_reds"] == 6 and doc["truncated"] is False

    def test_reds_count(self, capsys, schema):
        doc = run_json(capsys, ["reds", "G2", "-w", "s t s t", "--count", "--json"],
                       schema)
        assert doc == {"element": [0, 1, 0, 1], "n_reds": 6}

    def test_reds_count_of_the_e7_coxeter_element(self, capsys):
        # 18^7 7! / |E7| words, above the default listing cap of 10^6
        assert cli.run(["reds", "E7", "-w", "0 1 2 3 4 5 6", "--count"]) == 0
        assert capsys.readouterr().out == "1062882\n"

    def test_reds_count_cap_is_a_domain_error(self, capsys):
        argv = ["reds", "E6", "-w", "0 1 2 3 4 5", "--count", "--cap", "10"]
        assert cli.run(argv) == 1
        assert "stopped after building 10 of them" in capsys.readouterr().err

    def test_orbits_of_the_e7_coxeter_element(self, capsys):
        # one orbit of 18^7 7! / |E7| words, found without listing them
        assert cli.run(["orbits", "E7", "-w", "0 1 2 3 4 5 6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1 orbit(s) on 1062882 reduced words\n")

    def test_orbit_caps(self, capsys, tmp_path):
        # the element cap bounds [1, w], the word cap the DOT listing
        message = "the interval [1, w] in E6 has more than 100 elements"
        argv = ["orbits", "E6", "-w", "0 1 2 3 4 5", "--cap", "100"]
        assert cli.run(argv) == 1
        assert message in capsys.readouterr().err
        argv = ["cycledec", "E6", "-w", "0 1 2 3 4 5", "--all-orbits", "--cap", "100"]
        assert cli.run(argv) == 1
        assert message in capsys.readouterr().err
        argv = ["orbits", "E6", "-w", "0 1 2 3 4 5", "--cap", "1000"]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out.startswith("1 orbit(s) on 41472 reduced words")
        assert cli.run(argv + ["--dot", str(tmp_path / "e6.dot")]) == 1
        assert "has 41472 reduced words" in capsys.readouterr().err

    def test_orbits_verb(self, capsys, schema, tmp_path):
        dot = tmp_path / "orbits.dot"
        doc = run_json(
            capsys,
            ["orbits", "G2", "-w", "s t s t", "--json", "--with-subgroups",
             "--dot", str(dot)],
            schema,
        )
        assert [o["size"] for o in doc["orbits"]] == [3, 3]
        assert all(o["subgroup"]["type"] == "A2" for o in doc["orbits"])
        text = dot.read_text()
        assert text.startswith("graph hurwitz {") and '"t' in text

    def test_cycledec_all_orbits(self, capsys, schema):
        doc = run_json(
            capsys, ["cycledec", "G2", "-w", "s t s t", "--all-orbits", "--json"],
            schema,
        )
        assert len(doc["entries"]) == 2
        assert doc["equal_factor_pairs"] == [[0, 1]]
        assert doc["closure_sets_distinct"] is True
        for entry in doc["entries"]:
            assert len(entry["decomposition"]["factors"]) == 1

    def test_cycledec_with_check(self, capsys, schema):
        doc = run_json(
            capsys, ["cycledec", "A3", "-w", "0 2", "--check", "--json"], schema
        )
        assert len(doc["factors"]) == 2
        assert doc["verification"]["passed"] is True

    def test_check_answers_on_e7(self, capsys, schema):
        doc = run_json(
            capsys,
            ["cycledec", "E7", "-w", "0 1 2 3 4 5 6", "--check", "--json"],
            schema,
        )
        assert len(doc["factors"]) == 1
        assert doc["verification"]["passed"] is True

    def test_indec_verb(self, capsys, schema):
        doc = run_json(capsys, ["indec", "A3", "-w", "0 1", "--json"], schema)
        assert doc["indecomposable"] is True

    def test_perm_verb_type_a(self, capsys, schema):
        doc = run_json(capsys, ["perm", "A3", "-w", "0 1", "--json"], schema)
        assert doc["model"] == "permutation"
        assert doc["cycles"] == "(1,2,3)"


class TestPermutationModelsWithoutElimination:
    """The permutation models run on the root action, never on Fraction
    elimination, which only ``Element.matrix()`` needs."""

    @pytest.fixture(autouse=True)
    def no_elimination(self, monkeypatch):
        from dualcox import algebra, coxeter

        def refuse(rows):
            raise AssertionError("Fraction elimination was called")

        monkeypatch.setattr(algebra, "_rref", refuse)
        # fresh groups, so no basis inverse cached by another test is reused
        monkeypatch.setattr(coxeter, "_BUILD_CACHE", {})

    @pytest.mark.parametrize("argv, cycles", [
        (["perm", "A6", "-w", "0 1 0 3 5 4"], "(1,3)(4,5,7,6)"),
        (["perm", "B4", "-w", "0 1 2 3"], "(1,2,3,4,-1,-2,-3,-4)"),
        (["perm", "D5", "-w", "0 1 2 3 4"], "(1,-1)(2,3,4,5,-2,-3,-4,-5)"),
        (["perm", "D4", "-c", "(1,-2)(3,-4)"], "(1,-2)(3,-4)"),
    ])
    def test_perm(self, capsys, argv, cycles):
        doc = run_json(capsys, argv + ["--json"])
        assert doc["cycles"] == cycles

    def test_cycle_input(self, capsys):
        doc = run_json(capsys, ["cycledec", "B4", "-c", "(1,-2,-1,2)(3,4,-3,-4)",
                                "--all-orbits", "--json"])
        types = [e["decomposition"]["ambient"]["type"] for e in doc["entries"]]
        assert sorted(types) == ["B2xB2", "D4"]

    @pytest.mark.parametrize("suite", ["cycles-type-a", "b4-embedding"])
    def test_suites(self, capsys, suite):
        assert run_json(capsys, ["verify", suite, "--json"])["passed"] is True


class TestVerifyVerb:
    def test_g2_suite_passes(self, capsys, schema):
        doc = run_json(capsys, ["verify", "g2-two-orbits", "--json"], schema)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 7

    def test_text_output_has_pass_lines(self, capsys):
        assert cli.run(["verify", "g2-two-orbits"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 7 and "FAIL" not in out

    def test_suites_take_no_cap(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            cli.run(["verify", "g2-two-orbits", "--cap", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        monkeypatch.setenv("DUALCOX_CAP", "1")
        assert cli.run(["verify", "g2-two-orbits"]) == 0

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["verify", "no-such-suite"])
        assert exc.value.code == 2

    def test_no_sweep_names_a_group_twice(self):
        # I2(6) parses to G2, so listing both counts one group twice
        sweeps = {name: names for name, names in vars(suites).items()
                  if name.endswith("_SWEEP")}
        assert len(sweeps) >= 5
        for name, names in sweeps.items():
            parsed = [CoxeterDescriptor.parse(n) for n in names]
            assert len(set(parsed)) == len(parsed), name


class TestDeterminismAndErrors:
    def test_identical_invocations_give_identical_bytes(self, capsys):
        def once():
            assert cli.run(
                ["cycledec", "B4", "-c", "(1,-2,-1,2)(3,4,-3,-4)",
                 "--all-orbits", "--json"]
            ) == 0
            return capsys.readouterr().out

        assert once() == once()

    def test_unknown_type_is_a_usage_error(self, capsys):
        assert cli.run(["info", "Q5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_word_is_a_usage_error(self, capsys):
        assert cli.run(["reflen", "A2", "-w", "0 bogus"]) == 2
        assert cli.run(["reflen", "A2", "-w", "5"]) == 2
        assert cli.run(["reflen", "A2"]) == 2  # no element given

    @pytest.mark.parametrize("flag, text", [("-w", "²"), ("-w", "s²"), ("-r", "(s²)")])
    def test_non_decimal_digits_are_a_usage_error(self, capsys, flag, text):
        # str.isdigit accepts superscripts, which int() refuses
        assert cli.run(["reflen", "A3", flag, text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("dualcox: usage error: bad simple-word token")

    def test_error_in_parentheses_counts_from_the_start(self):
        with pytest.raises(WordParseError, match=r"index 9 .*\(at position 7\)$"):
            cli.parse_refl_word(build_group("A3"), "t0 t1 (s9)")

    @pytest.mark.parametrize("parser, text, message", [
        ("reflection", "  t99", r"^reflection index 99 .*\(at position 2\)$"),
        ("reflection", "  (s9)", r"^simple index 9 .*\(at position 3\)$"),
        ("cycles", "  (1,2)x", r"^malformed cycle form \(at position 7\)$"),
        ("cycles", "  (1,a)", r"^cycle entries must be integers \(at position 2\)$"),
    ])
    def test_positions_count_from_the_text_as_typed(self, parser, text, message):
        parse = {"reflection": lambda text: cli.parse_refl_word(build_group("A2"), text),
                 "cycles": permmodel.parse_cycles}[parser]
        with pytest.raises(WordParseError, match=message):
            parse(text)

    @pytest.mark.parametrize("parser, text, position", [
        ("type", "B2xA" + _LONG, 3),
        ("simple", "0 s" + _LONG, 2),
        ("reflection", "t0 t" + _LONG, 3),
    ])
    def test_long_numbers_are_refused_before_int(self, parser, text, position):
        g = build_group("A3")
        parse = {"type": CoxeterDescriptor.parse,
                 "simple": lambda text: cli.parse_simple_word(g, text),
                 "reflection": lambda text: cli.parse_refl_word(g, text)}[parser]
        with pytest.raises((UnsupportedTypeError, WordParseError),
                           match=rf"^number of 5000 digits is too long.*"
                                 rf"\(at position {position}\)$"):
            parse(text)

    def test_long_cap_flag_is_not_echoed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["reds", "A3", "-w", "0 1", "--cap", _LONG])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err) < 200 and err.count("error:") == 1
        with pytest.raises(ValueError, match=r"^--cap must be an integer, "
                                             r"got '9{20}'\.\.\. \(5000 characters\)$"):
            requested_cap(_LONG)

    def test_long_environment_cap_is_not_echoed(self, capsys, monkeypatch):
        monkeypatch.setenv("DUALCOX_CAP", _LONG)
        with pytest.raises(SystemExit) as exc:
            cli.run(["reds", "A3", "-w", "0 1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err) < 200 and err.count("error:") == 1
        with pytest.raises(ValueError, match=r"^DUALCOX_CAP must be an integer, "
                                             r"got '9{20}'\.\.\. \(5000 characters\)$"):
            requested_cap(None)

    @pytest.mark.parametrize("group, rank", [
        ("A99999999999", 99999999999), ("A2000", 2000), ("A1xA1000", 1001),
        pytest.param("x".join(["A1"] * 1001), 1001, id="A1^1001"),  # not echoed
    ])
    def test_info_refuses_a_huge_rank_before_its_order(self, capsys, monkeypatch,
                                                        group, rank):
        def refuse(family, n):
            raise AssertionError("an order was computed")

        monkeypatch.setattr(rootdata, "component_order", refuse)
        for extra in ([], ["--json"]):
            assert cli.run(["info", group, *extra]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and len(err) < 100
            assert err.startswith("dualcox: error: ")
        args = cli._build_parser().parse_args(["info", group])
        with pytest.raises(DualcoxError,
                           match=rf"^the type has rank {rank}; info is limited to rank 1000$"):
            args.func(args)

    def test_info_answers_up_to_the_rank_limit(self, capsys):
        doc = run_json(capsys, ["info", "B1000", "--json"])
        assert doc["rank"] == 1000 and len(str(doc["order"])) == 2869

    @pytest.mark.parametrize("argv", [["info", "A" + _LONG],
                                      ["reflen", "A3", "-w", _LONG],
                                      ["reflen", "A3", "-r", "t" + _LONG]])
    def test_long_numbers_are_a_usage_error(self, capsys, argv):
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("dualcox: usage error: number of 5000 digits")

    @pytest.mark.parametrize("argv, short", [
        (["info", "A" + "0" * 5000 + "3"], ["info", "A3"]),
        (["reflen", "A3", "-w", "0" * 5000 + "1"], ["reflen", "A3", "-w", "1"]),
        (["reflen", "A3", "-r", "t" + "0" * 5000 + "5"], ["reflen", "A3", "-r", "t5"]),
    ])
    def test_leading_zeros_are_read(self, capsys, argv, short):
        assert run_json(capsys, argv + ["--json"]) == run_json(capsys, short + ["--json"])

    def test_unwritable_dot_path_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "g.dot"
        assert cli.run(["orbits", "A3", "-w", "0 1", "--dot", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dualcox: error: ") and str(path) in err
        assert err.count("\n") == 1

    def test_cap_exceeded_is_a_domain_error(self, capsys):
        assert cli.run(["orbits", "G2", "-w", "s t s t", "--cap", "3"]) == 1
        assert "cap" in capsys.readouterr().err

    def test_environment_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DUALCOX_CAP", "3")
        assert cli.run(["orbits", "G2", "-w", "s t s t"]) == 1
        capsys.readouterr()
        # an explicit flag wins over the environment
        monkeypatch.setenv("DUALCOX_CAP", "3")
        assert cli.run(["orbits", "G2", "-w", "s t s t", "--cap", "100"]) == 0

    def test_check_honours_the_cap(self, capsys, monkeypatch):
        argv = ["cycledec", "D4", "-w", "1 2 1 2 2 0 2 3", "--check"]
        assert cli.run(argv + ["--cap", "1"]) == 1
        assert "cap" in capsys.readouterr().err
        monkeypatch.setenv("DUALCOX_CAP", "1")
        assert cli.run(["cycledec", "B4", "-w", "0 1 2 3", "--check"]) == 1
        assert "cap" in capsys.readouterr().err

    def test_non_quasi_coxeter_is_a_domain_error(self, capsys):
        assert cli.run(["cycledec", "G2", "-w", "s t s t"]) == 1
        err = capsys.readouterr().err
        assert "quasi-Coxeter" in err

    def test_matrixless_model_is_a_domain_error(self, capsys):
        assert cli.run(["info", "I2(7)", "--roots"]) == 1

    def test_oversized_group_is_refused_before_building(self, capsys):
        start = time.perf_counter()
        assert cli.run(["reflen", "I2(100000)", "-w", "0 1"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "100000" in err and "2000" in err

    @pytest.mark.parametrize("argv", [
        ["info", "A2"],
        ["reflen", "A2", "-w", "0"],
        ["closure", "A2", "-w", "0"],
        ["perm", "A2", "-w", "0"],
    ])
    def test_only_enumerating_verbs_take_a_cap(self, capsys, monkeypatch, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv + ["--cap", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        for value in ("1", "bogus"):
            monkeypatch.setenv("DUALCOX_CAP", value)
            assert cli.run(argv) == 0

    def test_closed_pipe_ends_quietly(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "dualcox.cli", "reds", "E6", "-w", "0 1 2 3 4 5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline().startswith(b"t")
            proc.stdout.close()  # 41,472 lines follow; the writer hits a closed pipe
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()

    def test_missing_verb_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run([])
        assert exc.value.code == 2


class TestColdStart:
    def test_import_loads_no_source_introspection(self):
        """``dataclasses`` would pull in ``inspect`` and its parsers, about
        half the import time of ``dualcox.cli`` on CPython 3.11; run under
        ``-S`` so no site hook loads them first."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, dualcox.cli; print(*sorted(sys.modules))"
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert "dualcox.cli" in out
        assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(out)

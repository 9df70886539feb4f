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

from dualcox import cli


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

"""Golden CLI transcript: exit code, stdout and stderr of fixed calls.

``cli_transcript.json`` holds one record per call, each call once as text
and once with ``--json``, covering every verb, the three element inputs,
the verb flags and the usage and domain errors.  The test replays it in
process through ``cli.run`` on freshly built groups and compares bytes.

argparse's own usage messages are recorded as CPython 3.11 prints them.
To record the transcript again, from the repository root::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from dualcox import cli, coxeter

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")

CALLS = [
    ["info", "A2"],
    ["info", "H3", "--roots"],
    ["info", "I2(7)"],
    ["info", "Q5"],
    ["info", "I2(7)", "--roots"],
    ["reflen", "H4", "-w", "0 1 2 3"],
    ["reflen", "G2", "-r", "t0 (s1 s0 s1)"],
    ["reflen", "B4", "-c", "(1,-2,-1,2)(3,4,-3,-4)"],
    ["reflen", "I2(7)", "-w", "s t s"],
    ["reflen", "A2", "-w", "5"],
    ["reflen", "A2", "-r", "t3"],
    ["reflen", "A2", "-w", "0 bogus"],
    ["reflen", "A2", "-w", "0", "-r", "t0"],
    ["reflen", "A2"],
    ["reflen", "A3", "-c", "(1,2)"],
    ["reflen", "Q5", "-w", "0 bogus"],
    ["reflen", "I2(100000)", "-w", "0 bogus"],
    ["closure", "B4", "-w", "0 1 3"],
    ["closure", "I2(8)", "-w", "0 1 0"],
    ["closure", "A3", "-r", "t0 t5"],
    ["reds", "G2", "-w", "s t s t"],
    ["reds", "A3", "-w", "0 1 2", "--count"],
    ["reds", "A4", "-w", "0 1 2 3", "--cap", "5"],
    ["reds", "E6", "-w", "0 1 2 3 4 5", "--count", "--cap", "10"],
    ["reds", "A2", "-w", "0", "--cap", "0"],
    ["orbits", "G2", "-w", "s t s t", "--with-subgroups"],
    ["orbits", "D4", "-w", "0 1 2 3"],
    ["orbits", "I2(5)", "-w", "0 1"],
    ["orbits", "G2", "-w", "s t s t", "--cap", "3"],
    ["cycledec", "A3", "-w", "0 2", "--check"],
    ["cycledec", "B4", "-c", "(1,-2,-1,2)(3,4,-3,-4)", "--all-orbits"],
    ["cycledec", "D4", "-w", "1 2 1 2 2 0 2 3", "--check"],
    ["cycledec", "G2", "-w", "s t s t"],
    ["cycledec", "I2(7)", "-w", "0 1"],
    ["indec", "A3", "-w", "0 1"],
    ["indec", "B3", "-w", "0 1 2 0 1 2"],
    ["perm", "A6", "-w", "0 1 0 3 5 4"],
    ["perm", "B4", "-w", "0 1 2 3"],
    ["perm", "D5", "-c", "(1,-2)(3,-4)"],
    ["perm", "D4", "-c", "(1,-1)"],
    ["perm", "E6", "-w", "0"],
    ["perm", "A2", "-w", "0", "--cap", "1"],
    ["verify", "g2-two-orbits"],
    ["verify", "all"],
    ["verify", "no-such-suite"],
]


def replay(argv) -> dict:
    """One call's exit code, stdout and stderr, as ``dualcox`` would give them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def record() -> list:
    coxeter._BUILD_CACHE.clear()
    return [replay(argv + flags) for argv in CALLS for flags in ([], ["--json"])]


@pytest.fixture
def fresh_groups(monkeypatch):
    monkeypatch.delenv("DUALCOX_CAP", raising=False)
    monkeypatch.setattr(coxeter, "_BUILD_CACHE", {})


def test_transcript_replays_byte_for_byte(fresh_groups):
    golden = json.loads(TRANSCRIPT.read_text())
    assert [r["argv"] for r in golden] == [
        argv + flags for argv in CALLS for flags in ([], ["--json"])
    ]
    for want in golden:
        assert replay(want["argv"]) == want


if __name__ == "__main__":
    TRANSCRIPT.write_text(json.dumps(record(), indent=1) + "\n")

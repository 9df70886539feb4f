"""Command lines drawn from a grammar: no traceback, no stray exit code, and
error positions that index the text they name.

Every verb gets argv lists built from a small grammar of type strings,
element words, caps and ``--dot`` paths, bad pieces included: ranks out of
range, non-ASCII digits, signs, numbers past the digit limit, nested and
unbalanced parentheses, surrounding blanks and unwritable paths.  Each call
runs in process through ``cli.run`` with captured streams.  The draws are
derandomized, with no example database, so every run makes the same calls.

The cost is bounded by construction: a drawn group is small, or refused
before it is built (past ``MAX_ROOTS``), and every enumerating verb gets a
small ``--cap``.
"""

import ast
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcox import CoxeterDescriptor, UnsupportedTypeError, cli, suites

_LONG = "9" * 5000  # int() refuses text of more than 4300 digits


def _mostly(good, bad):
    """A draw from ``good`` four times in five, else from ``bad``; lists
    stand for sampling from them."""
    good, bad = (st.sampled_from(x) if isinstance(x, list) else x for x in (good, bad))
    return st.sampled_from([True] * 4 + [False]).flatmap(lambda ok: good if ok else bad)


# ranks out of range, signed, padded, empty, non-ASCII ("٣" is a decimal
# digit, "²" is not), past the digit limit, or so large that the group is
# refused before it is built
_BAD_COMPONENTS = st.one_of(
    st.builds("{}{}".format, st.sampled_from("ABDEFGHQ"),
              st.sampled_from(["0", "9", "007", "+3", "-2", "٣", "²", _LONG, "2000",
                               "99999999999", ""])),
    st.builds("I2({})".format, st.sampled_from(["0", "-4", "٣", "2001", _LONG, ""])),
    st.sampled_from(["I2(5", "I2()", " A2", "A2 ", "", "x"]),
)
_GOOD_TYPES = ["B4", "D4", "A3", "B3", "D5", "G2", "H3", "F4", "A4", "B12", "A12",
               "E6", "E8", "H4", "I2(5)", "I2(7)", "A1xB2", "A2xA2xA1", "H3xG2"]
TYPES = _mostly(_GOOD_TYPES, st.lists(_mostly(_GOOD_TYPES, _BAD_COMPONENTS),
                                      min_size=1, max_size=3).map("x".join))

_BLANKS = st.sampled_from(["", "", " ", "  ", "\t"])


def _words(tokens, separators):
    """Texts of up to six tokens, with blanks around them."""
    body = st.lists(st.tuples(tokens, separators), max_size=6).map(
        lambda pairs: "".join(t + s for t, s in pairs))
    return st.builds("{}{}{}".format, _BLANKS, body, _BLANKS)


SIMPLE_WORDS = _words(
    _mostly(["0", "1", "2", "3", "s0", "s1", "s2", "s", "t", "u", "٣"],
            ["7", "s9", "x", "s²", "-1", "+1", "(", ")", _LONG, "s" + _LONG]),
    _mostly([" ", "*", " * "], [""]),
)
REFLECTION_WORDS = _words(
    _mostly(["t0", "t1", "t2", "t5", "t٣", "(s0 s1 s0)", "(0)", "( 1 )", "(s1)"],
            ["t17", "t", "t²", "t" + _LONG, "(s9)", "((s0))", "(s0 (s1) s0)", "(", ")",
             "(s0 s1", "(s0 s1)", "x", "s0"]),
    _mostly([" ", "*", "  "], [""]),
)
CYCLE_WORDS = st.builds("{}{}{}".format, _BLANKS, _mostly(
    ["(1,-2,-1,2)(3,4,-3,-4)", "(1,-2)(3,4)", "(1,2,3)", "()", "( 1 , 2 )(3,-4)",
     "(2,-3)", "(1,-1)", ""],
    _words(_mostly(["(1,-2)", "(1,2,3)", "(3,4,-3,-4)", "()", "(1,-1)"],
                   ["(0,1)", "(1,a)", "((1,2))", "(1,2", ")", "x", "(5,6)", "(1,2)(1,3)",
                    f"(1,{_LONG})", "(٣,1)", "(1,²)"]),
           _mostly([""], [" "]))), _BLANKS)

CAPS = _mostly(["1", "2", "5", "20", " 7 ", "٣"], ["0", "-3", "abc", "²", _LONG])
DOT_PATHS = st.sampled_from([os.path.join(os.devnull, "orbits.dot"), os.sep])
STRAY_FLAGS = _mostly([[]], [["--bogus"], ["--cap", "5"], ["--count"], ["--roots"],
                             ["--dot", os.devnull + os.sep]])

ENUMERATING = {"reds": ["--count"], "orbits": ["--with-subgroups"],
               "cycledec": ["--all-orbits", "--check"], "indec": []}
ELEMENT_VERBS = ["reflen", "closure", "perm", *ENUMERATING]


@st.composite
def command_lines(draw, verb):
    """An argv list for one verb."""
    if verb == "verify":
        argv = ["verify", draw(st.sampled_from([*sorted(suites.SUITES), "all", "bogus", ""]))]
    else:
        argv = [verb, draw(TYPES)]
    if verb == "info" and draw(st.booleans()):
        argv.append("--roots")
    if verb in ELEMENT_VERBS:
        # one element, or sometimes none or two, which is refused
        kinds = _mostly([["-w"], ["-r"], ["-c"]], [[], ["-w", "-c"], ["-r", "-w"]])
        for flag in draw(kinds):
            argv += [flag, draw({"-w": SIMPLE_WORDS, "-r": REFLECTION_WORDS,
                                 "-c": CYCLE_WORDS}[flag])]
    if verb in ENUMERATING:  # never an uncapped enumeration
        argv += ["--cap", draw(CAPS)]
        argv += [flag for flag in ENUMERATING[verb] if draw(st.booleans())]
        if verb == "orbits" and draw(st.booleans()):
            argv += ["--dot", draw(DOT_PATHS)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv + draw(STRAY_FLAGS)


def call(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_ERROR_LINE = re.compile(r"^dualcox(?: [a-z]+)?: (?:usage )?error: ")
_POSITION = re.compile(r" \(at position (\d+)\)$")
_QUOTED = re.compile(r"(?:token|component|character|word) ('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")")


def checked(argv):
    """Exit code, stdout and error line of one call, checked for their form:
    an answer, or one error line after argparse's usage where it has one."""
    code, out, err = call(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert err == "", argv
        return code, out, None
    assert out == "" and err, (argv, out, err)
    *usage, last = err.splitlines()
    assert not usage or (code == 2 and usage[0].startswith("usage: dualcox")), (argv, err)
    assert _ERROR_LINE.match(last), (argv, err)
    return code, out, last


def named_text(argv):
    """The argument a positioned error names: the type string when it does
    not parse, else the element text; and that text's index in argv."""
    try:
        CoxeterDescriptor.parse(argv[1])
    except UnsupportedTypeError:
        return 1
    return next(i + 1 for i, a in enumerate(argv) if a in ("-w", "-r", "-c"))


@pytest.mark.parametrize("verb", ["info", *ELEMENT_VERBS, "verify"])
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_command_line_ends_in_an_answer_or_one_error_line(verb, data):
    argv = data.draw(command_lines(verb), label="argv")
    code, out, last = checked(argv)
    if last is None:
        if "--json" in argv:
            json.loads(out)
        return
    position = _POSITION.search(last)
    if position is None:
        return
    at = int(position.group(1))
    k = named_text(argv)
    text = argv[k]
    assert 0 <= at <= len(text), (argv, last)
    quoted = _QUOTED.search(last)
    if quoted:
        assert text[at:].startswith(ast.literal_eval(quoted.group(1))), (argv, last)
    if k > 1:  # element texts may carry blanks: two more move the position by two
        shifted = [*argv[:k], "  " + text, *argv[k + 1:]]
        moved = last.replace(position.group(0), f" (at position {at + 2})")
        assert checked(shifted)[2] == moved, (argv, last)

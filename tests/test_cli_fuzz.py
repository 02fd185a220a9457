"""Every document, valid or broken, gets an exit code from `cli.main`.

Documents for each verb that reads one are drawn mostly well formed, with
some entries replaced by junk or by integers past Python's 4,300-digit
int/str limit (as JSON strings and as JSON literals), and some documents
broken as a whole: a key dropped or set to null, a ragged row, a vector of
the wrong length, an empty matrix, or no object at all.  Whatever the
input, `main` must return 0, 1 or 2 (a usage error exits 2 through
argparse), must not raise, and an exit of 1 must name its finding.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from circuitkit import cli
from circuitkit.serialize import frac_str

# "#ddd" marks a long integer to be written as a bare JSON literal.
LONG = st.integers(4301, 4400).map(lambda k: "9" * k)
LONG_LITERAL = LONG.map(lambda digits: "#" + digits)
SMALL = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3).map(frac_str)
JUNK = st.sampled_from([None, True, 1.5, float("nan"), "abc", "", "1/0", "1.5", [], {}, [1]])
ODD = LONG | LONG_LITERAL | JUNK


@st.composite
def numbers(draw):
    return draw(ODD) if draw(st.integers(0, 19)) == 0 else draw(SMALL)


def vector(length):
    return st.lists(numbers(), min_size=length, max_size=length)


def bounds(length):
    return st.lists(st.none() | numbers(), min_size=length, max_size=length)


EPSILONS = st.none() | SMALL.map(str) | st.sampled_from(["0", "-1/2", "2", "abc", "1.5", "1/0"]) | LONG

# The fields each verb reads besides "A", with their lengths: m (rows), n
# (columns), or "u" for upper bounds (n entries, each a number or null).
FIELDS = {
    "analyze": {},
    "graver": {},
    "conjecture": {},
    "solve": {"b": "m", "c": "n", "u": "u"},
    "diameter": {"b": "m", "c": "n", "u": "u"},
    "blackbox": {"d": "n"},
    "prox": {
        "d": "n", "c": "n", "x_tilde": "n", "s": "n",
        "b": "m", "u": "u", "c1": "n", "c2": "n", "x1": "n", "y1": "m",
    },
}
BREAKS = ("drop", "null", "ragged", "long-vector", "empty-matrix", "not-an-object")


@st.composite
def cases(draw):
    """(verb, extra argv, {file name: document})."""
    verb = draw(st.sampled_from(sorted(FIELDS)))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = draw(st.lists(vector(n), min_size=m, max_size=m))
    doc = {"schema_version": "1", "A": rows}
    for key, size in FIELDS[verb].items():
        if size == "u":
            doc[key] = draw(st.none() | bounds(n))
        else:
            doc[key] = draw(vector(m if size == "m" else n))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(BREAKS))
        key = draw(st.sampled_from(sorted(doc)))
        if kind == "drop":
            del doc[key]
        elif kind == "null":
            doc[key] = None
        elif kind == "ragged":
            rows[draw(st.integers(0, m - 1))].append(draw(numbers()))
        elif kind == "long-vector" and isinstance(doc[key], list):
            doc[key] = doc[key] + [draw(numbers())]
        elif kind == "empty-matrix":
            doc["A"] = draw(st.sampled_from([[], [[]]]))
        elif kind == "not-an-object":
            doc = draw(JUNK | LONG_LITERAL)
    if verb in ("analyze", "graver", "conjecture") and isinstance(doc, dict) and draw(st.booleans()):
        doc = doc.get("A")  # a bare row list
    files = {"input": doc}
    argv = []
    if verb == "conjecture":
        z = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n) | vector(n))
        files["target"] = {"z": z} if draw(st.booleans()) else z
    elif verb == "solve":
        rule = draw(st.none() | st.sampled_from(cli.RULES))
        if rule is not None:
            argv += ["--rule", rule]
        if draw(st.booleans()):
            argv += ["--cap", str(draw(st.integers(-1, 5)))]
    elif verb == "prox":
        argv += ["--check", draw(st.sampled_from(["feasibility", "optimal", "transfer", "fixing"]))]
    elif verb == "blackbox":
        eps = draw(EPSILONS)
        if eps is not None:
            argv.append(f"--epsilon={eps}")
        argv += ["--seed", str(draw(st.integers(0, 3)))]
    elif verb == "analyze" and draw(st.booleans()):
        argv += ["--format", "csv"]
    return verb, argv, files


def to_json(doc) -> str:
    return re.sub(r'"#(\d+)"', r"\1", json.dumps(doc))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(cases())
@settings(max_examples=150, deadline=None)
def test_every_document_gets_an_exit_code(workdir, case):
    verb, argv, files = case
    for name, doc in files.items():
        path = workdir / f"{name}.json"
        path.write_text(to_json(doc))
        argv = [*argv, f"--{name}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([verb, *argv])
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        assert any(line.startswith("finding: ") for line in err.splitlines()), err

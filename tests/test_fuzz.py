"""Fuzzing the parser and the CLI: any input ends in a documented exit code.

Arbitrary bytes, arbitrary JSON and near-valid documents go through
``parse_pts`` and every subcommand of ``cli.main``.  The parser may only
raise ``PtsFormatError``; the CLI may only return (or exit with) 0-4, and
no other exception may escape either.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ptstrace import MalformedRational, PtsFormatError, parse_pts, parse_rational
from ptstrace.cli import main

FUZZ = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def mostly(valid, junk=json_values):
    # three to one for the well-formed value, so documents get past the
    # first check often enough for fuzzing to reach the later ones
    return st.integers(0, 3).flatmap(lambda i: junk if i == 3 else valid)


IDS = st.sampled_from(["x", "y", "a", "b"])
declared = mostly(st.lists(IDS, min_size=1, max_size=3, unique=True),
                  st.lists(st.sampled_from(["x", "a", "", "0"]), max_size=3)
                  | json_values)
rationals = mostly(
    st.sampled_from(["0", "1", "1/2", "1/3", "2/3"]),
    st.sampled_from(["-1/2", "3/2", "1/0", "x", "1.5", " 1"])
    | st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 9), st.integers(0, 9))
    | json_values)
moves = mostly(st.lists(mostly(st.fixed_dictionaries(
    {"letter": mostly(IDS), "to": mostly(IDS), "p": rationals})), max_size=4))
entries = mostly(st.fixed_dictionaries({}, optional={"stop": rationals, "moves": moves}))
documents = mostly(st.fixed_dictionaries(
    {"alphabet": declared, "states": declared,
     "transitions": mostly(st.dictionaries(IDS, entries, max_size=3))}))



@st.composite
def repeated_p_documents(draw):
    # one "p" value, malformed or not, as every state's stop and every move's
    # probability: the parser sees the same string (or JSON value) many times
    p = draw(rationals | st.sampled_from(["1/0", "0.5", "1" * 4301, "\u0661/\u0663"]))
    alphabet = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    states = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    transitions = {}
    for state in states:
        pairs = draw(st.lists(st.tuples(st.sampled_from(alphabet), st.sampled_from(states)),
                              max_size=4, unique=True))
        transitions[state] = {"stop": p, "moves": [{"letter": a, "to": t, "p": p}
                                                   for a, t in pairs]}
    return p, {"alphabet": alphabet, "states": states, "transitions": transitions}


def _argvs(path, states):
    yield ["validate", path]
    yield ["validate", path, "--json"]
    yield ["rep", path]
    for state in states:
        for query in ("finite", "infinite", "all", "word:a", "cone:a.b",
                      "infcone:a", "infcone:", "nope:x"):
            yield ["eval", path, "--state", state, "--query", query]
    for left in states:
        for right in states:
            yield ["equiv", path, left, right]
            yield ["equiv", path, left, right, "--algo", "hkc-finite"]
            for algo in ("naive", "hk"):
                yield ["equiv", path, left, right, "--algo", algo, "--max-steps", "5"]


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _check_cli(data: bytes, states=("x", "y")):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "doc.json")
        with open(path, "wb") as handle:
            handle.write(data)
        for argv in _argvs(path, states):
            assert _exit_code(argv) in (0, 1, 2, 3, 4), argv


def _check_parse(text: str):
    try:
        parse_pts(text)
    except PtsFormatError:
        pass
    try:
        parse_pts(text, check=False)
    except PtsFormatError:
        pass


@FUZZ
@given(st.binary(max_size=200))
def test_arbitrary_bytes(data):
    _check_parse(data.decode("utf-8", errors="replace"))
    _check_cli(data, states=("x",))


@FUZZ
@given(json_values)
def test_arbitrary_json(doc):
    text = json.dumps(doc)
    _check_parse(text)
    _check_cli(text.encode(), states=("x",))


@settings(FUZZ, max_examples=100)
@given(documents)
def test_near_valid_documents(doc):
    text = json.dumps(doc)
    _check_parse(text)
    states = doc.get("states") if isinstance(doc, dict) else None
    if not (isinstance(states, list) and all(isinstance(s, str) for s in states)):
        states = ["x"]
    _check_cli(text.encode(), states=tuple(dict.fromkeys(states[:2] + ["x"])))


@FUZZ
@given(repeated_p_documents())
def test_a_value_repeated_across_moves_parses_as_it_does_alone(case):
    p, doc = case
    text = json.dumps(doc)
    try:
        expected = parse_rational(p)
    except MalformedRational as exc:
        try:
            parse_pts(text, check=False)
        except MalformedRational as raised:
            assert str(raised) == str(exc)
        else:
            raise AssertionError(f"{p!r} parsed inside a document")
    else:
        pts = parse_pts(text, check=False)
        pairs = {*pts.stops, *(p for row in pts.rows for p in row.values())}
        assert pairs == {expected.as_integer_ratio()}
    _check_cli(text.encode(), states=tuple(doc["states"][:2]))


def test_deeply_nested_json_exit_2(tmp_path):
    # the JSON decoder recurses once per level and raises RecursionError
    path = tmp_path / "deep.json"
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        path.write_text(text, encoding="utf-8")
        try:
            parse_pts(text)
        except PtsFormatError as exc:
            assert "nested too deeply" in str(exc)
        assert _exit_code(["validate", str(path)]) == 2

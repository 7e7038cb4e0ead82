"""Every answer of a fixed CLI sweep, replayed against a committed transcript.

``tests/golden/cli_transcript.json`` holds the documents of the sweep and,
per call, its arguments with the exit code and the exact stdout and stderr
that ``cli.main`` gave.  The test writes the documents into a temporary
directory, runs each call there in-process with relative paths, and
compares all three exactly.  Run this file as a script,
``python tests/test_cli_transcript.py`` with ``src`` on the path, to write
the transcript afresh from the current code.
"""

import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from ptstrace import serialize_pts
from ptstrace.cli import main

from systems import ALL_DOCS, sink_split_pts, split_copy_pts

TRANSCRIPT = Path(__file__).resolve().parent / "golden" / "cli_transcript.json"

QUERIES = ("empty", "word:{}", "cone:{}", "infcone:{}", "finite", "infinite", "all")


def _documents() -> dict[str, tuple[str, tuple[str, str], str]]:
    """name -> (document text, the two states the calls start from, a query word)."""
    cases = {name: (json.dumps(doc), (doc["states"][0], doc["states"][-1]),
                    ".".join((doc["alphabet"] * 4)[:4]))
             for name, doc in ALL_DOCS.items()}
    cases["congruence_xz"] = cases["congruence_xz"][0], ("x", "z"), "a.a.a"
    for name, pts in [
            ("split", split_copy_pts(random.Random(5), max_base=6)),
            ("perturbed", split_copy_pts(random.Random(20), max_base=6, perturb=True)),
            ("sink", sink_split_pts(random.Random(3), 6, 2))]:
        cases[name] = serialize_pts(pts), ("a0", "b0p"), ".".join((pts.alphabet * 3)[:5])
    invalid = {
        "sum_violation": json.dumps({
            "alphabet": ["a", "b"], "states": ["x", "y"],
            "transitions": {"x": {"stop": "1/2", "moves": [
                {"letter": "b", "to": "y", "p": "1/3"}]},
                "y": {"stop": "1"}}}),
        "broken_json": "{not json",
        "duplicate_key": ('{"alphabet": ["a"], "states": ["x"], "transitions": '
                          '{"x": {"stop": "1"}, "x": {"stop": "1"}}}'),
    }
    for name, text in invalid.items():
        cases[name] = text, ("x", "y"), "a"
    return cases


def _calls(path: str, states: tuple[str, str], word: str) -> list[list[str]]:
    calls = [["validate", path], ["validate", path, "--json"], ["rep", path]]
    calls += [["eval", path, "--state", state, "--query", query.format(word)]
              for state in states for query in QUERIES]
    calls.append(["eval", path, "--state", states[0], "--query", f"cone:{word}", "--json"])
    for algo in ("hkc-inf", "hkc-finite", "hk", "naive"):
        budget = ["--max-steps", "40"] if algo in ("hk", "naive") else []
        calls.append(["equiv", path, *states, "--algo", algo, *budget])
    return calls


def _run(argv: list[str]) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _sweep(directory: Path, documents: dict[str, str], calls: list[list[str]]) -> list[dict]:
    # the calls name their documents relative to the directory they run in
    for name, text in documents.items():
        (directory / f"{name}.json").write_text(text, encoding="utf-8")
    return [_run(argv) for argv in calls]


def test_cli_answers_match_the_transcript(tmp_path, monkeypatch):
    transcript = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    expected = transcript["calls"]
    actual = _sweep(tmp_path, transcript["documents"], [c["argv"] for c in expected])
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected)


def test_the_transcript_covers_every_command_and_outcome():
    transcript = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    calls = transcript["calls"]
    assert set(transcript["documents"]) >= set(ALL_DOCS)
    assert {c["code"] for c in calls} == {0, 1, 2, 3}
    assert {c["argv"][0] for c in calls} == {"validate", "rep", "eval", "equiv"}
    assert {c["argv"][c["argv"].index("--algo") + 1] for c in calls
            if c["argv"][0] == "equiv"} == {"hkc-inf", "hkc-finite", "hk", "naive"}
    assert {c["argv"][5].split(":")[0] for c in calls
            if c["argv"][0] == "eval"} == {q.split(":")[0] for q in QUERIES}


def write_transcript() -> None:
    cases = _documents()
    documents = {name: text for name, (text, _, _) in cases.items()}
    calls = [argv for name, (_, states, word) in cases.items()
             for argv in _calls(f"{name}.json", states, word)]
    with tempfile.TemporaryDirectory() as directory:
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            runs = _sweep(Path(directory), documents, calls)
        finally:
            os.chdir(cwd)
    TRANSCRIPT.write_text(json.dumps({"documents": documents, "calls": runs}, indent=1) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    write_transcript()

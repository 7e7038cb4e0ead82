"""Command-line interface: subcommands, exit codes, output contracts."""

import argparse
import json
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from ptstrace import build_rep, parse_pts, pts_to_dict, serialize_pts
from ptstrace.cli import _parser, main
from ptstrace.model import format_rational

from systems import (ALL_DOCS, CANTOR, CONGRUENCE_XZ, HALF_LOOP_XY, TWO_LETTER_YZ, l_star,
                     named, pts_of, random_pts, sink_split_pts, split_copy_pts)


@pytest.fixture
def doc_path(tmp_path):
    def write(doc, name="system.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_cantor_cone(doc_path, capsys):
    path = doc_path(CANTOR)
    code, out, _ = run(capsys, "eval", path, "--state", "x", "--query", "cone:0.2")
    assert code == 0
    assert out == "1/9\n"


def test_eval_json_output(doc_path, capsys):
    path = doc_path(CANTOR)
    code, out, _ = run(capsys, "eval", path, "--state", "x", "--query", "infinite",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"value": "0"}


def test_eval_plain_queries(doc_path, capsys):
    path = doc_path(ALL_DOCS["single_letter_chain"])
    for query, expected in [("word:aa", "1/27"), ("cone:", "1"),
                            ("finite", "1/2"), ("infinite", "1/2"),
                            ("infcone:a", "1/2"), ("empty", "0"), ("all", "1")]:
        code, out, _ = run(capsys, "eval", path, "--state", "y", "--query", query)
        assert code == 0
        assert out.strip() == expected


def test_rep_dump(doc_path, capsys):
    path = doc_path(TWO_LETTER_YZ)
    code, out, _ = run(capsys, "rep", path)
    assert code == 0
    assert json.loads(out) == {
        "l_one": ["1", "1"],
        "l_star": ["0", "0"],
        "mats": {"a": [["1/2", "0"], ["0", "3/4"]],
                 "b": [["1/2", "0"], ["0", "1/4"]]},
    }


def _dense_rep_output(doc):
    # the rep output read from the dense Fraction view, LinearRep.mats
    rep = build_rep(parse_pts(json.dumps(doc)))
    return json.dumps({
        "l_one": ["1"] * rep.dim,
        "l_star": [format_rational(c) for c in l_star(rep)],
        "mats": {letter: [[format_rational(c) for c in row] for row in matrix]
                 for letter, matrix in rep.mats.items()},
    }) + "\n"


def test_rep_output_equals_the_dense_view(doc_path, capsys):
    rng = random.Random(41)
    docs = list(ALL_DOCS.values())
    docs += [pts_to_dict(random_pts(rng, max_states=6, max_letters=3)) for _ in range(20)]
    docs += [pts_to_dict(split_copy_pts(rng, max_base=5, perturb=i % 2 == 1))
             for i in range(10)]
    docs += [
        # a letter without moves, declared between two with moves
        {"alphabet": ["a", "z", "b"], "states": ["x", "y"],
         "transitions": {"x": {"stop": "1/4", "moves": [
             {"letter": "b", "to": "y", "p": "1/2"}, {"letter": "a", "to": "x", "p": "1/4"}]},
             "y": {"stop": "1"}}},
        # one state, with and without letters
        {"alphabet": ["a"], "states": ["x"],
         "transitions": {"x": {"stop": "2/3", "moves": [{"letter": "a", "to": "x", "p": "1/3"}]}}},
        {"alphabet": [], "states": ["x"], "transitions": {"x": {"stop": "1"}}},
        # non-reduced input strings print in lowest terms
        {"alphabet": ["a"], "states": ["x"],
         "transitions": {"x": {"stop": "3/6", "moves": [{"letter": "a", "to": "x", "p": "02/4"}]}}},
        # letters that JSON must escape
        {"alphabet": ['q"t', "b\\s", "\u00e9\n", "\u2028"], "states": ["x", "y"],
         "transitions": {"x": {"stop": "0", "moves": [
             {"letter": 'q"t', "to": "y", "p": "1/2"}, {"letter": "\u2028", "to": "x", "p": "1/4"},
             {"letter": "\u00e9\n", "to": "x", "p": "1/4"}]}, "y": {"stop": "1"}}},
        # no states at all
        {"alphabet": ["a"], "states": [], "transitions": {}},
    ]
    path = doc_path({})
    for doc in docs:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        assert run(capsys, "rep", path) == (0, _dense_rep_output(doc), "")


def test_rep_memory_stays_linear_in_the_states(doc_path, monkeypatch):
    # the dense output has n^2 entries per letter; rep writes it a row at a
    # time, so its peak stays near validate's, which prints one line
    path = doc_path(pts_to_dict(sink_split_pts(random.Random(3), 100)))
    peaks = {}
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        for command in ("validate", "rep"):
            tracemalloc.start()
            try:
                assert main([command, path]) == 0
                peaks[command] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks["rep"] < 1.5 * peaks["validate"]


def test_rep_formats_shared_numerators_over_each_letters_denominator(doc_path, capsys):
    # a's denominator is 12 and b's is 6: numerator 3 is 1/4 under a and
    # 1/2 under b, numerator 4 is 1/3 under a and 2/3 under b
    doc = {"alphabet": ["a", "b"], "states": ["x", "y"],
           "transitions": {
               "x": {"stop": "1/4", "moves": [{"letter": "a", "to": "y", "p": "1/4"},
                                              {"letter": "b", "to": "x", "p": "1/2"}]},
               "y": {"stop": "0", "moves": [{"letter": "a", "to": "x", "p": "1/3"},
                                            {"letter": "a", "to": "y", "p": "1/3"},
                                            {"letter": "b", "to": "y", "p": "1/3"}]}}}
    rep = build_rep(parse_pts(json.dumps(doc)))
    assert {a: d for a, (_, d) in rep.steps.items()} == {"a": 12, "b": 6}
    numerators = [{p for column in rep.steps[a][0] for _, p in column} for a in "ab"]
    assert numerators[0] & numerators[1] == {3}
    code, out, err = run(capsys, "rep", doc_path(doc))
    assert (code, out, err) == (0, _dense_rep_output(doc), "")
    assert json.loads(out)["mats"] == {"a": [["0", "1/3"], ["1/4", "1/3"]],
                                       "b": [["1/2", "0"], ["0", "1/3"]]}


@pytest.mark.parametrize("entry", [
    ["a", "x", "1"], "a", 1, None, {"to": "x", "p": "1"}, {"letter": "a", "p": "1"},
    {"letter": "a", "to": "x"},
], ids=["list", "string", "number", "null", "no-letter", "no-to", "no-p"])
def test_a_malformed_move_entry_exit_2(doc_path, capsys, entry):
    path = doc_path({"alphabet": ["a"], "states": ["x"],
                     "transitions": {"x": {"stop": "0", "moves": [entry]}}})
    for argv in (("validate", path), ("validate", path, "--json"), ("rep", path),
                 ("eval", path, "--state", "x", "--query", "all"),
                 ("equiv", path, "x", "x")):
        assert run(capsys, *argv) == (
            2, "", "error: move entries for state 'x' need letter/to/p fields\n")


@pytest.mark.parametrize("change, message", [
    ({"states": ["x", 1]}, '"states" entries must be non-empty strings, got 1'),
    ({"states": ["x", ""]}, "\"states\" entries must be non-empty strings, got ''"),
    ({"alphabet": [None]}, '"alphabet" entries must be non-empty strings, got None'),
    ({"alphabet": ["a", ""]}, "\"alphabet\" entries must be non-empty strings, got ''"),
    ({"transitions": {"x": "1"}}, "transitions for state 'x' must be an object"),
    ({"transitions": {"x": {"stop": "1", "moves": {}}}}, '"moves" for state \'x\' must be a list'),
], ids=["state-number", "state-empty", "letter-null", "letter-empty", "entry-string",
        "moves-object"])
def test_a_malformed_declaration_exit_2(doc_path, capsys, change, message):
    path = doc_path({"alphabet": ["a"], "states": ["x"],
                     "transitions": {"x": {"stop": "1"}}, **change})
    for argv in (("validate", path), ("rep", path),
                 ("eval", path, "--state", "x", "--query", "all"),
                 ("equiv", path, "x", "x")):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_validate_prints_a_negative_stop_past_the_str_limit_of_its_digits(doc_path, capsys):
    # 700 digits: over the 2,000 bits that format_rational passes to str()
    stop = "-" + "9" * 700
    path = doc_path({"alphabet": ["a"], "states": ["x"], "transitions": {"x": {"stop": stop}}})
    messages = [f"stop probability {stop} outside [0, 1]", f"masses sum to {stop}, expected 1"]
    code, out, err = run(capsys, "validate", path)
    assert (code, out, err) == (2, "".join(f"x: {m}\n" for m in messages), "")
    code, out, _ = run(capsys, "validate", path, "--json")
    assert code == 2
    assert [v["message"] for v in json.loads(out)["violations"]] == messages


@pytest.mark.parametrize("digits", ["\u0661/\u0663", "\uff11/\uff13", "\U0001d7d9/\U0001d7db"])
def test_non_ascii_digits_exit_2(doc_path, capsys, digits):
    doc = {"alphabet": ["a"], "states": ["x"],
           "transitions": {"x": {"stop": "2/3", "moves": [
               {"letter": "a", "to": "x", "p": digits}]}}}
    path = doc_path({})
    for ensure_ascii in (True, False):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, ensure_ascii=ensure_ascii)
        for argv in (("validate", path), ("rep", path),
                     ("eval", path, "--state", "x", "--query", "all")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: not a rational string: {digits!r}\n"


def test_validate_ok(doc_path, capsys):
    path = doc_path(CANTOR)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert out == "ok\n"


def test_validate_reports_violations(doc_path, capsys):
    bad = {"alphabet": ["a"], "states": ["x"],
           "transitions": {"x": {"stop": "9/10"}}}
    path = doc_path(bad)
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert "9/10" in out
    code, out, _ = run(capsys, "validate", path, "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"][0]["state"] == "x"


def test_validate_structural_error_exit_2(doc_path, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error" in err


def test_duplicate_json_key_exit_2(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"alphabet": ["a"], "states": ["x"], "transitions": '
                    '{"x": {"stop": "1"}, "x": {"stop": "1"}}}', encoding="utf-8")
    for argv in (("validate", str(path)),
                 ("eval", str(path), "--state", "x", "--query", "all")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: key 'x' occurs twice in one JSON object\n"


def test_letter_containing_a_dot_exit_2(doc_path, capsys):
    # x stops with 1/2 and loops on "a.b"; "." is the CLI's letter
    # separator, so cone:a.b would read as the word a, b
    path = doc_path({"alphabet": ["a.b", "a", "b"], "states": ["x", "y"],
                     "transitions": {
                         "x": {"stop": "1/2",
                               "moves": [{"letter": "a.b", "to": "x", "p": "1/2"}]},
                         "y": {"stop": "1/2",
                               "moves": [{"letter": "a", "to": "y", "p": "1/2"}]}}})
    for argv in (("validate", path), ("rep", path), ("equiv", path, "x", "y"),
                 ("eval", path, "--state", "x", "--query", "cone:a.b")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: \"alphabet\" entries must not contain \".\", got 'a.b'\n"


def test_witness_round_trips_through_eval_on_multi_character_letters(doc_path, capsys):
    # letters "ab", "a", "b": a printed witness fed back as a query word
    # must name the same word, so eval reproduces lhs and rhs
    rename = {"a": "ab", "b": "a", "c": "b"}
    rng = random.Random(23)
    witnesses = set()
    for _ in range(60):
        pts = random_pts(rng, max_states=4, max_letters=3)
        _, _, term, moves = named(pts)
        pts = pts_of(tuple(rename[a] for a in pts.alphabet), pts.states, term,
                     {(s, rename[a], t): p for (s, a, t), p in moves.items()})
        path = doc_path(pts_to_dict(pts))
        for x in pts.states:
            for y in pts.states:
                code, out, _ = run(capsys, "equiv", path, x, y)
                payload = json.loads(out)
                if code != 1:
                    continue
                witness = payload["witness"]
                witnesses.add(witness)
                kind = "cone" if payload["output"] == "total_mass" else "word"
                for state, side in ((x, "lhs"), (y, "rhs")):
                    code, out, _ = run(capsys, "eval", path, "--state", state,
                                       "--query", f"{kind}:{witness}")
                    assert code == 0
                    assert out == payload[side] + "\n"
    # the runs reach one-letter "ab" and multi-letter witnesses with it
    assert "ab" in witnesses
    assert any("." in w and "ab" in w.split(".") for w in witnesses)


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "eval", "/nonexistent/f.json",
                       "--state", "x", "--query", "all")
    assert code == 2
    assert err


def test_equiv_worked_example(doc_path, capsys):
    path = doc_path(CONGRUENCE_XZ)
    code, out, _ = run(capsys, "equiv", path, "x", "z", "--algo", "hkc-inf")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "equivalent"
    assert payload["algorithm"] == "hkc-inf"
    assert payload["relation_size"] == 2
    assert payload["iterations"] == 3


def test_equiv_counterexample_and_finite_variant(doc_path, capsys):
    path = doc_path(TWO_LETTER_YZ)
    code, out, _ = run(capsys, "equiv", path, "y", "z")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] == "not_equivalent"
    assert payload["witness"] == "a"
    assert payload["output"] == "total_mass"
    assert payload["lhs"] == "1/2"
    assert payload["rhs"] == "3/4"
    code, out, _ = run(capsys, "equiv", path, "y", "z", "--algo", "hkc-finite")
    assert code == 0
    assert json.loads(out)["result"] == "equivalent"


def test_equiv_inconclusive_exit_3(doc_path, capsys):
    path = doc_path(HALF_LOOP_XY)
    code, out, _ = run(capsys, "equiv", path, "x", "y",
                       "--algo", "naive", "--max-steps", "100")
    assert code == 3
    payload = json.loads(out)
    assert payload["result"] == "inconclusive"
    assert payload["iterations"] == 100


def test_equiv_unknown_state_exit_2(doc_path, capsys):
    path = doc_path(HALF_LOOP_XY)
    code, _, err = run(capsys, "equiv", path, "x", "ghost")
    assert code == 2
    assert "ghost" in err


def test_max_steps_flag_pairing(doc_path, capsys):
    path = doc_path(HALF_LOOP_XY)
    code, _, err = run(capsys, "equiv", path, "x", "y", "--algo", "naive")
    assert code == 4
    assert "max-steps" in err
    code, _, err = run(capsys, "equiv", path, "x", "y",
                       "--algo", "hkc-inf", "--max-steps", "5")
    assert code == 4
    code, _, err = run(capsys, "equiv", path, "x", "y",
                       "--algo", "naive", "--max-steps", "0")
    assert code == 4


@pytest.mark.parametrize("flags, message", [
    (["--algo", "naive"], "--max-steps is required for --algo naive"),
    (["--algo", "hk"], "--max-steps is required for --algo hk"),
    (["--algo", "hkc-inf", "--max-steps", "5"], "--max-steps is not accepted for --algo hkc-inf"),
    (["--algo", "hkc-finite", "--max-steps", "1"],
     "--max-steps is not accepted for --algo hkc-finite"),
    (["--max-steps", "5"], "--max-steps is not accepted for --algo hkc-inf"),
    (["--algo", "naive", "--max-steps", "0"], "--max-steps must be at least 1"),
    (["--algo", "hk", "--max-steps", "-1"], "--max-steps must be at least 1"),
], ids=["naive-without", "hk-without", "hkc-inf-with", "hkc-finite-with", "default-with",
        "naive-zero", "hk-negative"])
def test_max_steps_usage_errors_print_one_exact_line(doc_path, capsys, flags, message):
    code, out, err = run(capsys, "equiv", doc_path(HALF_LOOP_XY), "x", "y", *flags)
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_usage_errors_exit_4(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["equiv"])
    assert excinfo.value.code == 4
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate", "x.json"])
    assert excinfo.value.code == 4
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["equiv", "x.json", "a", "b", "--algo", "bogus"])
    assert excinfo.value.code == 4
    capsys.readouterr()


@pytest.mark.parametrize("command", [["rep"], ["equiv", "x", "z"]])
def test_json_flag_of_an_always_json_command_is_a_usage_error(doc_path, capsys, command):
    # rep and equiv always print JSON, so the flag could only be ignored
    name, *rest = command
    with pytest.raises(SystemExit) as excinfo:
        main([name, doc_path(CONGRUENCE_XZ), *rest, "--json"])
    assert excinfo.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ptstrace ")
    assert captured.err.endswith("error: unrecognized arguments: --json\n")


def test_every_store_true_flag_changes_stdout(doc_path, capsys):
    # a flag that is accepted and changes nothing only misleads
    path = doc_path(CONGRUENCE_XZ)
    valid = {"validate": [path], "rep": [path],
             "eval": [path, "--state", "x", "--query", "cone:a"],
             "equiv": [path, "x", "z"]}
    (commands,) = [action for action in _parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert sorted(commands.choices) == sorted(valid)
    flags = []
    for name, command in commands.choices.items():
        for action in command._actions:
            if isinstance(action, argparse._StoreTrueAction):
                flag = action.option_strings[0]
                flags.append(flag)
                plain = run(capsys, name, *valid[name])
                flagged = run(capsys, name, *valid[name], flag)
                assert plain[0] == flagged[0] == 0
                assert plain[1] != flagged[1], f"{name} {flag} does not change stdout"
    assert flags


def test_identical_invocations_identical_bytes(doc_path, capsys):
    path = doc_path(CONGRUENCE_XZ)
    first = run(capsys, "equiv", path, "x", "z")
    second = run(capsys, "equiv", path, "x", "z")
    assert first == second
    third = run(capsys, "rep", path)
    fourth = run(capsys, "rep", path)
    assert third == fourth


# several states breaking the sum and range rules, over string-named letters
# and states, so an order taken from a string set would show in the output
_FAILING = {
    "alphabet": ["a", "b", "c"],
    "states": ["x", "y", "z", "w", "v"],
    "transitions": {
        "x": {"stop": "9/10"},
        "y": {"moves": [{"letter": "b", "to": "z", "p": "-1/2"},
                        {"letter": "c", "to": "w", "p": "3/2"}]},
        "z": {"stop": "1/2", "moves": [{"letter": "c", "to": "x", "p": "1/3"},
                                       {"letter": "a", "to": "v", "p": "1/3"}]},
        "w": {"stop": "1"},
        "v": {"stop": "2", "moves": [{"letter": "b", "to": "v", "p": "-1"}]},
    },
}


def test_invocations_under_different_hash_seeds_print_identical_bytes(tmp_path):
    # string hashing is salted per process: two processes with different
    # seeds must print the same bytes and exit with the same codes
    paths = {}
    for name, text in [
            ("failing", json.dumps(_FAILING)),
            ("sink", serialize_pts(sink_split_pts(random.Random(3), 6, 2))),
            ("split", serialize_pts(split_copy_pts(random.Random(5), max_base=6))),
            ("perturbed", serialize_pts(split_copy_pts(random.Random(20), max_base=6,
                                                       perturb=True)))]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    calls = [["validate", paths["failing"]], ["validate", paths["failing"], "--json"],
             ["rep", paths["sink"]],
             ["eval", paths["sink"], "--state", "a0", "--query", "finite"]]
    for algo in ("hkc-inf", "hkc-finite", "hk", "naive"):
        budget = ["--max-steps", "40"] if algo in ("hk", "naive") else []
        calls += [["equiv", paths[doc], "a0", "b0p", "--algo", algo, *budget]
                  for doc in ("split", "perturbed")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    codes = []
    for argv in calls:
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-m", "ptstrace", *map(str, argv)],
                                  capture_output=True, env=env, timeout=120)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0] == runs[1], argv
        codes.append(runs[0][0])
    # validate fails twice, then rep and eval succeed, and every algorithm
    # finds the split copy equivalent and the perturbed one not
    assert codes == [2, 2, 0, 0] + [0, 1] * 4

def test_module_entry_point(doc_path):
    path = doc_path(CANTOR)
    proc = subprocess.run(
        [sys.executable, "-m", "ptstrace", "eval", path,
         "--state", "x", "--query", "cone:0.2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1/9\n"


def test_overlong_rational_exit_2(doc_path, capsys):
    doc = {"alphabet": ["a"], "states": ["x"],
           "transitions": {"x": {"stop": "1" * 5001 + "/" + "1" * 5001}}}
    path = doc_path(doc)
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too many digits" in err


def test_overlong_json_number_exit_2(tmp_path, capsys):
    path = tmp_path / "number.json"
    path.write_text('{"alphabet": ' + "7" * 5001 + "}", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1


def _digits(x):
    # exact decimal digits without str(int), which stops at 4,300 digits
    return str(Decimal(x))


def test_eval_prints_results_past_the_int_str_digit_limit(doc_path, capsys):
    # p = 1/10^3000 on the loop: the word a.a has mass (1 - p) p^2, whose
    # denominator 10^9000 has 9,001 digits
    d = 10 ** 3000
    doc = {"alphabet": ["a"], "states": ["x"],
           "transitions": {"x": {"stop": f"{_digits(d - 1)}/{_digits(d)}",
                                 "moves": [{"letter": "a", "to": "x",
                                            "p": f"1/{_digits(d)}"}]}}}
    path = doc_path(doc)
    expected = "9" * 3000 + "/1" + "0" * 9000
    code, out, err = run(capsys, "eval", path, "--state", "x", "--query", "word:a.a")
    assert (code, out, err) == (0, expected + "\n", "")
    code, out, _ = run(capsys, "eval", path, "--state", "x", "--query", "word:a.a",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"value": expected}


def test_validate_reports_sums_past_the_int_str_digit_limit(doc_path, capsys):
    # 1/2^8000 + 1/3^5000: every input has under 2,500 digits, the sum's
    # denominator has 4,794
    a, b = 2 ** 8000, 3 ** 5000
    doc = {"alphabet": ["a"], "states": ["x"],
           "transitions": {"x": {"stop": f"1/{_digits(a)}",
                                 "moves": [{"letter": "a", "to": "x",
                                            "p": f"1/{_digits(b)}"}]}}}
    path = doc_path(doc)
    total = Fraction(1, a) + Fraction(1, b)
    assert len(_digits(total.denominator)) > 4300
    message = (f"masses sum to {_digits(total.numerator)}/"
               f"{_digits(total.denominator)}, expected 1")
    code, out, err = run(capsys, "validate", path)
    assert (code, out, err) == (2, f"x: {message}\n", "")
    code, out, _ = run(capsys, "validate", path, "--json")
    assert code == 2
    assert json.loads(out) == {"ok": False, "violations": [
        {"kind": "distribution_sum", "state": "x", "message": message}]}
    for argv in (["rep", path], ["eval", path, "--state", "x", "--query", "all"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: state 'x': {message}\n"


def test_non_utf8_input_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"alphabet": ["\xe9"]}'.encode("latin-1"))
    for argv in (["validate", str(path)], ["rep", str(path)],
                 ["eval", str(path), "--state", "x", "--query", "all"],
                 ["equiv", str(path), "x", "y"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["states", "alphabet"])
def test_identifier_with_a_lone_surrogate_exit_2(tmp_path, capsys, key):
    # "\ud800" is valid JSON but not UTF-8 text; no state's masses sum to
    # 1, so validate would print each state's name if the names were read
    names = {"states": ["x", "\ud800"], "alphabet": ["a", "\udc00"]}
    doc = {"alphabet": ["a"], "states": ["x"],
           "transitions": {"x": {"stop": "1/2"}}, key: names[key]}
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    name = repr(names[key][1])
    for argv in (["validate", str(path)], ["rep", str(path)],
                 ["eval", str(path), "--state", "x", "--query", "all"],
                 ["equiv", str(path), "x", "x"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f'error: "{key}" entries must be encodable as UTF-8, got {name}\n'


def test_utf8_bom_input_exit_2(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(HALF_LOOP_XY).encode("utf-8"))
    for argv in (["validate", str(path)], ["rep", str(path)],
                 ["eval", str(path), "--state", "x", "--query", "all"],
                 ["equiv", str(path), "x", "y"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: invalid JSON: Unexpected UTF-8 BOM (decode using "
                       "utf-8-sig): line 1 column 1 (char 0)\n")


def test_unknown_result_kind_is_an_error(doc_path, monkeypatch, capsys):
    from ptstrace import cli
    from ptstrace.equivalence import InvariantError
    monkeypatch.setitem(cli._ALGORITHMS, "hkc-inf", lambda rep, x, y: None)
    with pytest.raises(InvariantError):
        main(["equiv", doc_path(HALF_LOOP_XY), "x", "y"])
    assert capsys.readouterr().out == ""

"""Parsing, validation, and serialization of system documents."""

import json
import random
from fractions import Fraction

import pytest

from ptstrace import (DistributionSumViolation, DuplicateIdentifier,
                      MalformedRational, ProbabilityOutOfRange, Pts,
                      PtsFormatError, UnknownIdentifier, model, parse_pts,
                      parse_rational, pts_to_dict, serialize_pts, validate)
from ptstrace.model import (DISTRIBUTION_SUM, PROBABILITY_OUT_OF_RANGE,
                            Violation, format_rational)

from systems import (ALL_DOCS, CANTOR, SINGLE_LETTER_CHAIN, load, random_pts,
                     split_copy_pts)

F = Fraction


def test_parse_rational_accepts_documented_forms():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("1") == F(1)
    assert parse_rational("0") == F(0)
    assert parse_rational("-1/4") == F(-1, 4)
    assert parse_rational("6/4") == F(3, 2)


@pytest.mark.parametrize("bad", ["", "0.5", "1/", "/3", "1 / 3", "a", "1e-3", "1/0"])
def test_parse_rational_rejects_other_forms(bad):
    with pytest.raises(MalformedRational):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["\u0661/\u0663", "\uff11/\uff13", "\U0001d7d9/\U0001d7db",
                                 "\u0663", "1/\u0663", "-\uff11"])
def test_parse_rational_rejects_non_ascii_digits(bad):
    # \d and int() accept every Unicode digit; the grammar is ASCII only
    with pytest.raises(MalformedRational, match="not a rational string"):
        parse_rational(bad)


def test_parse_single_letter_chain_document():
    pts = load(SINGLE_LETTER_CHAIN)
    assert pts.states == ("x", "y")
    assert pts.alphabet == ("a",)
    assert pts.stop("y") == F(1, 3)
    assert pts.moves[("y", "a", "x")] == F(1, 3)
    assert pts.moves[("y", "a", "y")] == F(1, 3)
    assert pts.moves[("x", "a", "x")] == F(1)
    assert pts.stop("x") == F(0)


def test_parse_terminating_point_automaton():
    pts = parse_pts(json.dumps({
        "alphabet": [],
        "states": ["s"],
        "transitions": {"s": {"stop": "1"}},
    }))
    assert pts.states == ("s",)
    assert pts.stop("s") == F(1)
    assert pts.moves == {}


def test_parse_rejects_bad_sum():
    doc = {
        "alphabet": ["a"],
        "states": ["x"],
        "transitions": {"x": {"stop": "1/2", "moves": [
            {"letter": "a", "to": "x", "p": "2/5"}]}},
    }
    with pytest.raises(DistributionSumViolation) as excinfo:
        parse_pts(json.dumps(doc))
    assert excinfo.value.state == "x"
    assert excinfo.value.total == F(9, 10)


def test_parse_rejects_out_of_range_probability():
    doc = {
        "alphabet": ["a"],
        "states": ["x"],
        "transitions": {"x": {"stop": "-1/2", "moves": [
            {"letter": "a", "to": "x", "p": "3/2"}]}},
    }
    with pytest.raises(ProbabilityOutOfRange):
        parse_pts(json.dumps(doc))


def test_parse_rejects_undeclared_identifiers():
    base = {
        "alphabet": ["a"],
        "states": ["x"],
        "transitions": {"x": {"stop": "1"}},
    }
    undeclared_key = dict(base, transitions={"x": {"stop": "1"}, "ghost": {"stop": "1"}})
    with pytest.raises(UnknownIdentifier):
        parse_pts(json.dumps(undeclared_key))
    bad_letter = dict(base, transitions={"x": {"moves": [
        {"letter": "b", "to": "x", "p": "1"}]}})
    with pytest.raises(UnknownIdentifier):
        parse_pts(json.dumps(bad_letter))
    bad_target = dict(base, transitions={"x": {"moves": [
        {"letter": "a", "to": "ghost", "p": "1"}]}})
    with pytest.raises(UnknownIdentifier):
        parse_pts(json.dumps(bad_target))


def test_parse_rejects_non_string_move_fields():
    # JSON lists and objects are unhashable; they must not escape as TypeError
    for field, value in (("letter", ["a"]), ("to", {"x": 1}), ("letter", 1)):
        item = {"letter": "a", "to": "x", "p": "1", field: value}
        doc = {"alphabet": ["a"], "states": ["x"],
               "transitions": {"x": {"moves": [item]}}}
        with pytest.raises(UnknownIdentifier):
            load(doc)


def test_parse_rejects_duplicates():
    with pytest.raises(DuplicateIdentifier):
        parse_pts(json.dumps({
            "alphabet": ["a", "a"], "states": ["x"],
            "transitions": {"x": {"stop": "1"}}}))
    with pytest.raises(DuplicateIdentifier):
        parse_pts(json.dumps({
            "alphabet": ["a"], "states": ["x", "x"],
            "transitions": {"x": {"stop": "1"}}}))
    with pytest.raises(DuplicateIdentifier):
        parse_pts(json.dumps({
            "alphabet": ["a"], "states": ["x"],
            "transitions": {"x": {"moves": [
                {"letter": "a", "to": "x", "p": "1/2"},
                {"letter": "a", "to": "x", "p": "1/2"}]}}}))


def test_parse_rejects_letters_containing_the_word_separator():
    # "." separates the letters of a query word or printed witness
    doc = {"alphabet": ["a.b", "a", "b"], "states": ["x.y"],
           "transitions": {"x.y": {"stop": "1"}}}
    for check in (True, False):
        with pytest.raises(PtsFormatError, match='must not contain ".", got \'a.b\''):
            parse_pts(json.dumps(doc), check=check)
    doc["alphabet"] = ["ab", "a", "b"]
    assert parse_pts(json.dumps(doc)).states == ("x.y",)


def test_parse_rejects_duplicate_json_keys():
    # json.loads alone keeps the last value; neither document may parse
    twice_x = ('{"alphabet": ["a"], "states": ["x"], "transitions": '
               '{"x": {"stop": "1"}, "x": {"stop": "1/2", "moves": '
               '[{"letter": "a", "to": "x", "p": "1/2"}]}}}')
    twice_p = ('{"alphabet": ["a"], "states": ["x"], "transitions": '
               '{"x": {"moves": [{"letter": "a", "to": "x", "p": "1/3", "p": "1"}]}}}')
    for text in (twice_x, twice_p):
        with pytest.raises(DuplicateIdentifier, match="occurs twice"):
            parse_pts(text)


def test_state_missing_from_transitions_is_a_sum_violation():
    doc = {"alphabet": ["a"], "states": ["x", "y"],
           "transitions": {"x": {"stop": "1"}}}
    with pytest.raises(DistributionSumViolation) as excinfo:
        parse_pts(json.dumps(doc))
    assert excinfo.value.state == "y"
    assert excinfo.value.total == F(0)


def test_parse_rejects_garbage():
    with pytest.raises(PtsFormatError):
        parse_pts("not json at all {")
    with pytest.raises(PtsFormatError):
        parse_pts(json.dumps(["nope"]))
    with pytest.raises(PtsFormatError):
        parse_pts(json.dumps({"alphabet": ["a"], "states": ["x"], "transitions": []}))


def test_validate_cantor_is_clean(cantor_pts):
    assert validate(cantor_pts) == []


def test_validate_reports_missing_mass():
    pts = Pts(("a",), ("x",), {"x": F(1, 2)}, {})
    violations = validate(pts)
    assert len(violations) == 1
    assert violations[0].kind == DISTRIBUTION_SUM
    assert violations[0].state == "x"


def test_validate_reports_negative_move():
    # masses still sum to 1, so the range check is the only complaint
    pts = Pts(("a",), ("x", "y"),
              {"x": F(1, 2), "y": F(1)},
              {("x", "a", "y"): F(-1, 4), ("x", "a", "x"): F(3, 4)})
    violations = validate(pts)
    assert len(violations) == 1
    assert violations[0].kind == PROBABILITY_OUT_OF_RANGE
    assert violations[0].state == "x"


def test_validate_reports_every_violation_in_canonical_order():
    # moves are checked in alphabet order, then target order, whatever the
    # order of the document; moves on undeclared letters are not looked at
    pts = Pts(("a", "b"), ("x", "y"),
              {"x": F(5, 4), "y": F(0)},
              {("x", "b", "x"): F(3, 2), ("x", "a", "y"): F(-1, 3),
               ("x", "a", "x"): F(7, 6), ("x", "c", "x"): F(9),
               ("y", "b", "y"): F(1, 2), ("y", "a", "y"): F(1, 2)})
    assert [(v.kind, v.state, v.message) for v in validate(pts)] == [
        (PROBABILITY_OUT_OF_RANGE, "x", "stop probability 5/4 outside [0, 1]"),
        (PROBABILITY_OUT_OF_RANGE, "x", "move 'a' -> 'x' has probability 7/6 outside [0, 1]"),
        (PROBABILITY_OUT_OF_RANGE, "x", "move 'a' -> 'y' has probability -1/3 outside [0, 1]"),
        (PROBABILITY_OUT_OF_RANGE, "x", "move 'b' -> 'x' has probability 3/2 outside [0, 1]"),
        (DISTRIBUTION_SUM, "x", "masses sum to 43/12, expected 1"),
    ]


def test_canonical_document_orders_moves():
    doc = {"alphabet": ["a", "b"], "states": ["x", "y"],
           "transitions": {"x": {"stop": "1/4", "moves": [
               {"letter": "b", "to": "x", "p": "1/4"},
               {"letter": "a", "to": "y", "p": "1/4"},
               {"letter": "a", "to": "x", "p": "1/4"}]},
               "y": {"stop": "1"}}}
    moves = pts_to_dict(load(doc))["transitions"]["x"]["moves"]
    assert [(m["letter"], m["to"]) for m in moves] == [("a", "x"), ("a", "y"), ("b", "x")]


@pytest.mark.parametrize("name", sorted(ALL_DOCS))
def test_roundtrip_canonical_documents(name):
    pts = load(ALL_DOCS[name])
    assert parse_pts(serialize_pts(pts)) == pts


def test_roundtrip_random_systems():
    rng = random.Random(7)
    for _ in range(50):
        pts = random_pts(rng)
        assert parse_pts(serialize_pts(pts)) == pts


def test_perturbing_any_probability_breaks_validation():
    rng = random.Random(11)
    deltas = [F(1, 7), F(-1, 7), F(2, 3), F(-3, 5), F(5, 2)]
    for _ in range(60):
        pts = random_pts(rng)
        term = dict(pts.term)
        moves = dict(pts.moves)
        entries = [("term", s) for s in pts.states] + [("move", k) for k in moves]
        kind, key = entries[rng.randrange(len(entries))]
        delta = deltas[rng.randrange(len(deltas))]
        if kind == "term":
            term[key] = term.get(key, F(0)) + delta
        else:
            moves[key] = moves[key] + delta
        mutated = Pts(pts.alphabet, pts.states, term, moves)
        assert validate(mutated) != []


def _reference_moves(pts, state):
    # the state's (letter, target, p) moves on declared letters and states,
    # in alphabet order, then target order
    moves = [(letter, target, p) for (source, letter, target), p in pts.moves.items()
             if source == state and letter in pts.alphabet and target in pts.states]
    return sorted(moves, key=lambda m: (pts.alphabet.index(m[0]), pts.states.index(m[1])))


# validate() as it summed masses with Fractions, kept as the reference for
# the integer sums
def _reference_mass(pts, state):
    return sum((p for _, _, p in _reference_moves(pts, state)), pts.stop(state))


def _reference_validate(pts):
    violations = []
    for state in pts.states:
        stop = pts.stop(state)
        if not 0 <= stop <= 1:
            violations.append(Violation(
                PROBABILITY_OUT_OF_RANGE, state,
                f"stop probability {format_rational(stop)} outside [0, 1]"))
        total = stop
        for letter, target, p in _reference_moves(pts, state):
            if not 0 <= p <= 1:
                violations.append(Violation(
                    PROBABILITY_OUT_OF_RANGE, state,
                    f"move {letter!r} -> {target!r} has probability "
                    f"{format_rational(p)} outside [0, 1]"))
            total += p
        if total != 1:
            violations.append(Violation(
                DISTRIBUTION_SUM, state,
                f"masses sum to {format_rational(total)}, expected 1"))
    return violations


def _assert_validate_matches_reference(pts):
    expected = _reference_validate(pts)
    assert validate(pts) == expected
    for state in pts.states:
        assert model._state_mass(pts, state) == _reference_mass(pts, state)
    # parse_pts raises on the first violation, with the state's total
    try:
        parse_pts(serialize_pts(pts))
    except DistributionSumViolation as exc:
        assert (expected[0].kind, expected[0].state) == (DISTRIBUTION_SUM, exc.state)
        assert exc.total == _reference_mass(pts, exc.state)
    except ProbabilityOutOfRange as exc:
        assert expected[0].kind == PROBABILITY_OUT_OF_RANGE
        assert str(exc) == f"state {expected[0].state!r}: {expected[0].message}"
    else:
        assert expected == []


def _perturbed(rng, pts, deltas):
    term, moves = dict(pts.term), dict(pts.moves)
    entries = [("term", s) for s in pts.states] + [("move", k) for k in moves]
    for _ in range(rng.randint(1, 3)):
        kind, key = rng.choice(entries)
        delta = rng.choice(deltas)
        if kind == "term":
            term[key] = term.get(key, F(0)) + delta
        else:
            moves[key] = moves[key] + delta
    return Pts(pts.alphabet, pts.states, term, moves)


def test_integer_validation_matches_the_fraction_sums():
    rng = random.Random(23)
    deltas = [F(1, 7), F(-1, 7), F(2, 3), F(-3, 5), F(5, 2), F(-2), F(1, 10**30),
              F(-7, 3), F(3)]
    for _ in range(150):
        pts = random_pts(rng) if rng.random() < 0.6 else split_copy_pts(rng, max_base=4)
        _assert_validate_matches_reference(pts)
        _assert_validate_matches_reference(_perturbed(rng, pts, deltas))


def test_integer_validation_matches_on_states_without_moves_or_entries():
    rng = random.Random(29)
    for _ in range(60):
        pts = random_pts(rng)
        dropped = rng.choice(pts.states)
        # a state with no moves keeps its stop mass; a missing one has none
        no_moves = Pts(pts.alphabet, pts.states, pts.term,
                       {k: p for k, p in pts.moves.items() if k[0] != dropped})
        term = {s: p for s, p in pts.term.items() if s != dropped}
        missing = Pts(pts.alphabet, pts.states, term, no_moves.moves)
        for mutated in (no_moves, missing):
            _assert_validate_matches_reference(mutated)
        doc = pts_to_dict(missing)
        del doc["transitions"][dropped]
        with pytest.raises(DistributionSumViolation) as excinfo:
            parse_pts(json.dumps(doc))
        assert excinfo.value.total == _reference_mass(
            parse_pts(json.dumps(doc), check=False), excinfo.value.state)


def test_integer_validation_matches_on_many_large_distinct_denominators():
    rng = random.Random(31)
    primes = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 10**40 + 121, 10**50 + 151]
    for _ in range(20):
        targets = [f"t{i}" for i in range(12)]
        moves, rest = {}, F(1)
        for i, target in enumerate(targets):
            p = F(rng.randrange(1, 1000), rng.choice(primes) * rng.randrange(1, 50) + i)
            moves[("x", "a", target)] = p
            rest -= p
        term = {"x": rest + rng.choice([F(0), F(0), F(1, 2**200 + 1), F(-1, 3)])}
        term.update({t: F(1) for t in targets})
        pts = Pts(("a",), ("x", *targets), term, moves)
        _assert_validate_matches_reference(pts)


def _counting_parse(monkeypatch):
    calls = []
    real = model.parse_rational

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(model, "parse_rational", counted)
    return calls


def test_each_distinct_probability_string_is_parsed_once_per_document(monkeypatch):
    rng = random.Random(37)
    texts = [serialize_pts(split_copy_pts(rng, max_base=5)) for _ in range(5)]
    calls = _counting_parse(monkeypatch)
    # a second pass over the same documents parses every string again: what
    # one document parsed is not reused by the next
    for text in texts + texts:
        doc = json.loads(text)
        distinct = {e.get("stop", "0") for e in doc["transitions"].values()} | {
            m["p"] for e in doc["transitions"].values() for m in e.get("moves", [])}
        calls.clear()
        pts = parse_pts(text)
        assert sorted(calls) == sorted(distinct)
        assert len(pts.moves) + len(pts.states) > len(distinct)


@pytest.mark.parametrize("bad, error", [
    ("1/0", "zero denominator: '1/0'"),
    ("0.5", "not a rational string: '0.5'"),
    ("1" * 4301, "rational has too many digits: 4301 characters"),
    ("\u0661/\u0663", "not a rational string: '\u0661/\u0663'"),
], ids=["zero-denominator", "decimal", "4301-digits", "non-ascii"])
def test_a_repeated_malformed_string_raises_in_every_document(monkeypatch, bad, error):
    doc = {"alphabet": ["a"], "states": ["x", "y"],
           "transitions": {s: {"moves": [{"letter": "a", "to": t, "p": bad}
                                         for t in ("x", "y")]} for s in ("x", "y")}}
    calls = _counting_parse(monkeypatch)
    for _ in range(2):
        for check in (True, False):
            calls.clear()
            with pytest.raises(MalformedRational) as excinfo:
                parse_pts(json.dumps(doc), check=check)
            assert str(excinfo.value) == error
            # the default stop "0", then the first move: parsed anew each time
            assert calls == ["0", bad]


@pytest.mark.parametrize("value", [["1"], {"p": "1"}, 1, 0.5, None, True])
def test_a_non_string_probability_is_malformed_not_unhashable(value):
    for field in ("stop", "p"):
        entry = {"stop": "0", "moves": [{"letter": "a", "to": "x", "p": "1"},
                                        {"letter": "a", "to": "y", "p": "1"}]}
        if field == "stop":
            entry["stop"] = value
        else:
            for item in entry["moves"]:
                item["p"] = value
        doc = {"alphabet": ["a"], "states": ["x", "y"],
               "transitions": {"x": entry, "y": dict(entry)}}
        for _ in range(2):
            with pytest.raises(MalformedRational, match="not a rational string"):
                parse_pts(json.dumps(doc), check=False)

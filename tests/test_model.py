"""Parsing, validation, and serialization of system documents."""

import json
import random
from fractions import Fraction

import pytest

from ptstrace import (DistributionSumViolation, DuplicateIdentifier,
                      MalformedRational, ProbabilityOutOfRange, PtsFormatError,
                      UnknownIdentifier, model, parse_pts, parse_rational,
                      pts_to_dict, serialize_pts, validate)
from ptstrace.model import (DISTRIBUTION_SUM, PROBABILITY_OUT_OF_RANGE,
                            Violation, format_rational)

from systems import ALL_DOCS, SINGLE_LETTER_CHAIN, load, named, pts_of, random_pts, split_copy_pts

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
    pts = named(load(SINGLE_LETTER_CHAIN))
    assert pts.states == ("x", "y")
    assert pts.alphabet == ("a",)
    assert pts.term["y"] == F(1, 3)
    assert pts.moves[("y", "a", "x")] == F(1, 3)
    assert pts.moves[("y", "a", "y")] == F(1, 3)
    assert pts.moves[("x", "a", "x")] == F(1)
    assert pts.term["x"] == F(0)


def test_parse_terminating_point_automaton():
    pts = parse_pts(json.dumps({
        "alphabet": [],
        "states": ["s"],
        "transitions": {"s": {"stop": "1"}},
    }))
    assert pts.states == ("s",)
    assert named(pts).term["s"] == F(1)
    assert named(pts).moves == {}


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
    pts = pts_of(("a",), ("x",), {"x": F(1, 2)}, {})
    violations = validate(pts)
    assert len(violations) == 1
    assert violations[0].kind == DISTRIBUTION_SUM
    assert violations[0].state == "x"


def test_validate_reports_negative_move():
    # masses still sum to 1, so the range check is the only complaint
    pts = pts_of(("a",), ("x", "y"),
                 {"x": F(1, 2), "y": F(1)},
                 {("x", "a", "y"): F(-1, 4), ("x", "a", "x"): F(3, 4)})
    violations = validate(pts)
    assert len(violations) == 1
    assert violations[0].kind == PROBABILITY_OUT_OF_RANGE
    assert violations[0].state == "x"


def test_validate_reports_every_violation_in_canonical_order():
    # moves are checked in alphabet order, then target order, whatever the
    # order of the document
    pts = pts_of(("a", "b"), ("x", "y"),
                 {"x": F(5, 4), "y": F(0)},
                 {("x", "b", "x"): F(3, 2), ("x", "a", "y"): F(-1, 3),
                  ("x", "a", "x"): F(7, 6), ("y", "b", "y"): F(1, 2),
                  ("y", "a", "y"): F(1, 2)})
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


def _listed(moves):
    return [{"letter": letter, "to": target, "p": p} for letter, target, p in moves]


def test_a_parsed_document_listed_in_reverse_order_reads_canonically():
    # every state lists its moves in reverse alphabet and target order:
    # messages and serialized bytes come out canonical, the moves view keeps
    # the document's order
    doc = {"alphabet": ["a", "b", "c"], "states": ["x", "y", "z"], "transitions": {
        "x": {"stop": "1/4", "moves": _listed([
            ("c", "z", "3/2"), ("c", "x", "1/8"), ("b", "y", "1/4"), ("a", "z", "-1/8"),
            ("a", "x", "-9/8")])},
        "y": {"moves": _listed([("c", "y", "1/2"), ("b", "z", "1/3"), ("b", "x", "1/4")])},
        "z": {"stop": "1/2", "moves": _listed([("b", "z", "4/3"), ("a", "y", "-5/6")])}}}
    pts = parse_pts(json.dumps(doc), check=False)
    assert list(named(pts).moves) == [
        ("x", "c", "z"), ("x", "c", "x"), ("x", "b", "y"), ("x", "a", "z"), ("x", "a", "x"),
        ("y", "c", "y"), ("y", "b", "z"), ("y", "b", "x"), ("z", "b", "z"), ("z", "a", "y")]
    assert [(v.kind, v.state, v.message) for v in validate(pts)] == [
        (PROBABILITY_OUT_OF_RANGE, "x", "move 'a' -> 'x' has probability -9/8 outside [0, 1]"),
        (PROBABILITY_OUT_OF_RANGE, "x", "move 'a' -> 'z' has probability -1/8 outside [0, 1]"),
        (PROBABILITY_OUT_OF_RANGE, "x", "move 'c' -> 'z' has probability 3/2 outside [0, 1]"),
        (DISTRIBUTION_SUM, "x", "masses sum to 7/8, expected 1"),
        (DISTRIBUTION_SUM, "y", "masses sum to 13/12, expected 1"),
        (PROBABILITY_OUT_OF_RANGE, "z", "move 'a' -> 'y' has probability -5/6 outside [0, 1]"),
        (PROBABILITY_OUT_OF_RANGE, "z", "move 'b' -> 'z' has probability 4/3 outside [0, 1]"),
    ]
    canonical = {"alphabet": ["a", "b", "c"], "states": ["x", "y", "z"], "transitions": {
        "x": {"stop": "1/4", "moves": _listed([
            ("a", "x", "-9/8"), ("a", "z", "-1/8"), ("b", "y", "1/4"), ("c", "x", "1/8"),
            ("c", "z", "3/2")])},
        "y": {"stop": "0", "moves": _listed([
            ("b", "x", "1/4"), ("b", "z", "1/3"), ("c", "y", "1/2")])},
        "z": {"stop": "1/2", "moves": _listed([("a", "y", "-5/6"), ("b", "z", "4/3")])}}}
    assert serialize_pts(pts) == json.dumps(canonical, indent=2) + "\n"
    assert parse_pts(serialize_pts(pts), check=False) == pts


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
        _, _, term, moves = named(pts)
        entries = [("term", s) for s in pts.states] + [("move", k) for k in moves]
        kind, key = entries[rng.randrange(len(entries))]
        delta = deltas[rng.randrange(len(deltas))]
        if kind == "term":
            term[key] = term.get(key, F(0)) + delta
        else:
            moves[key] = moves[key] + delta
        mutated = pts_of(pts.alphabet, pts.states, term, moves)
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
    return sum((p for _, _, p in _reference_moves(pts, state)), pts.term[state])


def _reference_validate(pts):
    violations = []
    for state in pts.states:
        stop = pts.term[state]
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
    reference = named(pts)
    expected = _reference_validate(reference)
    assert validate(pts) == expected
    for state in pts.states:
        assert model._state_mass(pts, state) == _reference_mass(reference, state)
    # parse_pts raises on the first violation, with the state's total
    try:
        parse_pts(serialize_pts(pts))
    except DistributionSumViolation as exc:
        assert (expected[0].kind, expected[0].state) == (DISTRIBUTION_SUM, exc.state)
        assert exc.total == _reference_mass(reference, exc.state)
    except ProbabilityOutOfRange as exc:
        assert expected[0].kind == PROBABILITY_OUT_OF_RANGE
        assert str(exc) == f"state {expected[0].state!r}: {expected[0].message}"
    else:
        assert expected == []


def _perturbed(rng, pts, deltas):
    _, _, term, moves = named(pts)
    entries = [("term", s) for s in pts.states] + [("move", k) for k in moves]
    for _ in range(rng.randint(1, 3)):
        kind, key = rng.choice(entries)
        delta = rng.choice(deltas)
        if kind == "term":
            term[key] = term.get(key, F(0)) + delta
        else:
            moves[key] = moves[key] + delta
    return pts_of(pts.alphabet, pts.states, term, moves)


def _failing_everywhere(rng, n=60):
    """A system in which every state has moves and breaks, by turns, the
    range rule (sum 1), the sum rule (all in range) or both."""
    letters, states = ("a", "b"), tuple(f"s{i}" for i in range(n))
    term, moves = {}, []
    for i, state in enumerate(states):
        keys = rng.sample([(a, t) for a in letters for t in states], 3)
        weights = [F(rng.randint(1, 9), rng.choice((1, 6, 7, 10))) for _ in keys]
        total = sum(weights) + 1
        row = {key: w / total for key, w in zip(keys, weights)}
        stop = 1 / total
        if i % 3 == 0:
            row[keys[0]] -= 1
            row[keys[1]] += 1
        elif i % 3 == 1:
            stop += (1 - stop) / rng.choice((3, 5, 7))
        else:
            row[keys[2]] = -row[keys[2]]
        term[state] = stop
        moves += [((state, a, t), p) for (a, t), p in row.items()]
    # document order is not the order of the messages
    rng.shuffle(moves)
    return pts_of(letters, states, term, dict(moves))


def test_integer_validation_matches_the_fraction_sums():
    rng = random.Random(23)
    deltas = [F(1, 7), F(-1, 7), F(2, 3), F(-3, 5), F(5, 2), F(-2), F(1, 10**30),
              F(-7, 3), F(3)]
    for _ in range(150):
        pts = random_pts(rng) if rng.random() < 0.6 else split_copy_pts(rng, max_base=4)
        _assert_validate_matches_reference(pts)
        _assert_validate_matches_reference(_perturbed(rng, pts, deltas))
    for n in (50, 60, 75):
        _assert_validate_matches_reference(_failing_everywhere(rng, n))


def _called(*args):
    raise AssertionError("called while validating a valid document")


def test_validating_a_valid_document_builds_no_message(monkeypatch):
    rng = random.Random(43)
    documents = [load(doc) for doc in ALL_DOCS.values()]
    documents += [random_pts(rng) for _ in range(20)]
    documents += [split_copy_pts(rng, max_base=30) for _ in range(20)]
    assert max(len(pts.states) for pts in documents) > 60
    monkeypatch.setattr(model, "format_rational", _called)
    for pts in documents:
        assert validate(pts) == []


def test_many_failing_states_report_every_violation():
    rng = random.Random(47)
    for n in (50, 60, 90):
        pts = _failing_everywhere(rng, n)
        violations = validate(pts)
        assert violations == _reference_validate(named(pts))
        assert {v.state for v in violations} == set(pts.states)
        kinds = {state: {v.kind for v in violations if v.state == state}
                 for state in pts.states}
        assert {frozenset(k) for k in kinds.values()} == {
            frozenset({PROBABILITY_OUT_OF_RANGE}), frozenset({DISTRIBUTION_SUM}),
            frozenset({PROBABILITY_OUT_OF_RANGE, DISTRIBUTION_SUM})}


@pytest.mark.parametrize("entry", [
    ["a", "x", "1"], "a", "", 1, 2.5, None, True, {},
    {"to": "x", "p": "1"}, {"letter": "a", "p": "1"}, {"letter": "a", "to": "x"},
], ids=["list", "string", "empty-string", "int", "float", "null", "bool", "empty-object",
        "no-letter", "no-to", "no-p"])
def test_a_malformed_move_entry_names_the_fields(entry):
    doc = {"alphabet": ["a"], "states": ["x"],
           "transitions": {"x": {"stop": "0", "moves": [entry]}}}
    for check in (True, False):
        with pytest.raises(PtsFormatError) as excinfo:
            parse_pts(json.dumps(doc), check=check)
        assert type(excinfo.value) is PtsFormatError
        assert str(excinfo.value) == "move entries for state 'x' need letter/to/p fields"


def test_integer_validation_matches_on_states_without_moves_or_entries():
    rng = random.Random(29)
    for _ in range(60):
        pts = random_pts(rng)
        dropped = rng.choice(pts.states)
        # a state with no moves keeps its stop mass; a missing one has none
        _, _, term, moves = named(pts)
        moves = {k: p for k, p in moves.items() if k[0] != dropped}
        no_moves = pts_of(pts.alphabet, pts.states, term, moves)
        del term[dropped]
        missing = pts_of(pts.alphabet, pts.states, term, moves)
        for mutated in (no_moves, missing):
            _assert_validate_matches_reference(mutated)
        doc = pts_to_dict(missing)
        del doc["transitions"][dropped]
        with pytest.raises(DistributionSumViolation) as excinfo:
            parse_pts(json.dumps(doc))
        assert excinfo.value.total == _reference_mass(
            named(parse_pts(json.dumps(doc), check=False)), excinfo.value.state)


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
        pts = pts_of(("a",), ("x", *targets), term, moves)
        _assert_validate_matches_reference(pts)


def _counting_parse(monkeypatch):
    calls = []
    real = model.parse_rational

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(model, "parse_rational", counted)
    return calls


def _shuffled_document(rng, pts):
    # moves out of canonical order, and probability strings not in lowest
    # terms, so equal values come from different strings
    doc = pts_to_dict(pts)
    for entry in doc["transitions"].values():
        rng.shuffle(entry.get("moves", []))
        for move in entry.get("moves", []):
            if rng.random() < 0.3:
                p = F(move["p"])
                move["p"] = f"{2 * p.numerator}/{2 * p.denominator}"
    return json.dumps(doc)


def test_each_distinct_probability_string_is_parsed_once_per_document(monkeypatch):
    rng = random.Random(37)
    systems = [split_copy_pts(rng, max_base=5) for _ in range(5)]
    texts = [serialize_pts(pts) for pts in systems]
    texts += [_shuffled_document(rng, pts) for pts in systems]
    calls, shared = _counting_parse(monkeypatch), 0
    # a second pass over the same documents parses every string again: what
    # one document parsed is not reused by the next
    for text in texts + texts:
        doc = json.loads(text)
        distinct = {e.get("stop", "0") for e in doc["transitions"].values()} | {
            m["p"] for e in doc["transitions"].values() for m in e.get("moves", [])}
        calls.clear()
        pts = parse_pts(text)
        assert sorted(calls) == sorted(distinct)
        # the stops, then the moves of each state, in document order: each
        # string's own pair, one pair object per distinct string, so equal
        # values from different strings ("2/6", "1/3") are distinct objects
        term = {s: doc["transitions"][s].get("stop", "0") for s in doc["states"]}
        moves = {(s, m["letter"], m["to"]): m["p"]
                 for s in doc["states"] for m in doc["transitions"][s].get("moves", [])}
        assert list(named(pts).moves) == list(moves)
        strings = [*term.values(), *moves.values()]
        pairs = [*pts.stops, *(p for row in pts.rows for p in row.values())]
        assert len(pairs) > len(distinct)
        assert pairs == [F(p).as_integer_ratio() for p in strings]
        first = dict(zip(strings, pairs))
        assert all(first[p] is pair for p, pair in zip(strings, pairs))
        assert len({id(pair) for pair in pairs}) == len(distinct) >= len(set(pairs))
        shared += len(set(pairs)) < len(distinct)
        # reading the pairs parsed no string again
        assert sorted(calls) == sorted(distinct)
        assert parse_pts(serialize_pts(pts)) == pts
    assert shared
    for pts in systems:
        assert parse_pts(serialize_pts(pts)) == pts


def test_a_pts_is_immutable():
    rng = random.Random(41)
    constructed = split_copy_pts(rng, max_base=4)
    parsed = parse_pts(serialize_pts(constructed))
    for pts in (constructed, parsed):
        # a Pts keeps no view of its pairs: reading one raises AttributeError
        assert not any(hasattr(pts, name) for name in ("term", "moves", "stop"))
        for name in ("alphabet", "states", "stops", "rows", "term", "moves", "stop",
                     "other"):
            with pytest.raises(AttributeError):
                setattr(pts, name, None)
            with pytest.raises(AttributeError):
                delattr(pts, name)
        assert pts == constructed


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

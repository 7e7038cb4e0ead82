"""The integer form of a document against the Fraction readings it replaced.

A parsed ``Pts`` holds each move as a lowest-terms (numerator, denominator)
pair in its state's own dict, under its (letter, target) indices, and
``validate`` and ``build_rep`` read only that.  The reference below is the
earlier code, which read name-keyed Fraction dicts: ``_ratios`` took each
probability's ``as_integer_ratio``, and ``build_rep`` took it again and
looked both names up in an index.  It reads a ``Named`` record: ``_eager``'s,
made without the parser, or ``named``'s, of the parsed pairs.  A guard stubs
out ``linear``'s Fraction: representations, untraced decision runs and word
queries run on the integer form alone.
"""

import json
import random
from dataclasses import fields
from fractions import Fraction
from math import lcm

import pytest

from ptstrace import (Cone, DistributionSumViolation, Equivalent, FiniteWord,
                      ProbabilityOutOfRange, Pts, UnknownIdentifier, build_rep, dirac,
                      hkc_finite, hkc_inf, linear, measure, parse_pts, parse_query,
                      pts_to_dict, serialize_pts, validate)
from ptstrace.cli import main
from ptstrace.model import (DISTRIBUTION_SUM, PROBABILITY_OUT_OF_RANGE, Violation,
                            format_rational)

from systems import (ALL_DOCS, Named, document, l_star, load, named, pts_of, random_pts,
                     sink_split_pts, split_copy_pts)

F = Fraction


def _reference_ratios(pts):
    # each state's stop mass, then its moves, as (numerator, denominator) pairs
    ratios = {state: [pts.term[state].as_integer_ratio()] for state in pts.states}
    for (source, _, _), p in pts.moves.items():
        ratios[source].append(p.as_integer_ratio())
    return ratios


def _reference_mass(pairs):
    denominator = lcm(*[d for _, d in pairs])
    return sum([n * (denominator // d) for n, d in pairs]), denominator


def _reference_moves_by_source(pts):
    letter_index = {letter: i for i, letter in enumerate(pts.alphabet)}
    state_index = {state: i for i, state in enumerate(pts.states)}
    grouped = {}
    for (source, letter, target), p in pts.moves.items():
        grouped.setdefault(source, []).append(
            ((letter_index[letter], state_index[target]), letter, target, p))
    return grouped


def _reference_validate(pts):
    ratios, by_source, violations = _reference_ratios(pts), _reference_moves_by_source(pts), []
    for state in pts.states:
        numerator, denominator = _reference_mass(ratios[state])
        if numerator == denominator and min(ratios[state])[0] >= 0:
            continue
        stop = pts.term[state]
        if not 0 <= stop <= 1:
            violations.append(Violation(
                PROBABILITY_OUT_OF_RANGE, state,
                f"stop probability {format_rational(stop)} outside [0, 1]"))
        for _, letter, target, p in sorted(
                m for m in by_source.get(state, ()) if not 0 <= m[3] <= 1):
            violations.append(Violation(
                PROBABILITY_OUT_OF_RANGE, state,
                f"move {letter!r} -> {target!r} has probability "
                f"{format_rational(p)} outside [0, 1]"))
        if numerator != denominator:
            total = format_rational(Fraction(numerator, denominator))
            violations.append(Violation(
                DISTRIBUTION_SUM, state, f"masses sum to {total}, expected 1"))
    return violations


def _reference_rep(pts):
    """``(columns, denominators, l_star)`` as the name-keyed builder made them."""
    index = {state: k for k, state in enumerate(pts.states)}
    moves = {letter: [[] for _ in pts.states] for letter in pts.alphabet}
    for (source, letter, target), p in pts.moves.items():
        numerator, denominator = p.as_integer_ratio()
        if numerator:
            moves[letter][index[source]].append((index[target], numerator, denominator))
    columns, denominators = {}, {}
    for letter, per_source in moves.items():
        denominator = lcm(*[d for column in per_source for _, _, d in column])
        denominators[letter] = denominator
        columns[letter] = tuple(
            tuple([(j, p * (denominator // d)) for j, p, d in column])
            for column in per_source)
    return columns, denominators, tuple(pts.term[state] for state in pts.states)


def _eager(text):
    """The document as name-keyed Fraction dicts in document order, as
    parsing built them before the integer form."""
    doc = json.loads(text)
    term, moves = {}, {}
    for state in doc["states"]:
        entry = doc["transitions"].get(state, {})
        term[state] = F(entry.get("stop", "0"))
        for move in entry.get("moves", []):
            moves[(state, move["letter"], move["to"])] = F(move["p"])
    return Named(tuple(doc["alphabet"]), tuple(doc["states"]), term, moves)


def _rep_fields(rep):
    columns = {letter: columns for letter, (columns, _) in rep.steps.items()}
    denominators = {letter: d for letter, (_, d) in rep.steps.items()}
    return columns, denominators, l_star(rep)


def _reference_error(violations):
    first = violations[0]
    if first.kind == DISTRIBUTION_SUM:
        return DistributionSumViolation, f"state {first.state!r}: {first.message}"
    return ProbabilityOutOfRange, f"state {first.state!r}: {first.message}"


def _broken(rng, pts, how):
    """A copy of pts that breaks the sum rule (``"sum"``: one mass moved by
    a delta) or the range rule (``"range"``: 1 taken from one entry and
    given to another, so the masses still sum to 1)."""
    _, _, term, moves = named(pts)
    keys = [("term", s) for s in pts.states] + [("move", k) for k in moves]
    picked = rng.sample(keys, 2) if len(keys) > 1 else keys * 2
    deltas = ([rng.choice([F(1, 7), F(-2, 3), F(5, 2), F(1, 10**30)])] if how == "sum"
              else [F(-1), F(1)])
    for (kind, key), delta in zip(picked, deltas):
        if kind == "term":
            term[key] = term.get(key, F(0)) + delta
        else:
            moves[key] += delta
    return pts_of(pts.alphabet, pts.states, term, moves)


def _with_undeclared_name(pts, kind):
    """The document of pts with a stop mass of a state it never declares
    (``kind`` 0), or a move from, on or to such a name (1 to 3), and the
    message that rejects it."""
    state, letter, reference = pts.states[0], pts.alphabet[0], named(pts)
    term, moves, message = [
        ({"ghost": F(7)}, {}, "transitions entry for undeclared state 'ghost'"),
        ({}, {("ghost", letter, state): F(1, 2)},
         "transitions entry for undeclared state 'ghost'"),
        ({}, {(state, "zz", state): F(1, 3)},
         f"state {state!r} moves on undeclared letter 'zz'"),
        ({}, {(state, letter, "ghost"): F(-1, 5)},
         f"state {state!r} moves to undeclared state 'ghost'"),
    ][kind]
    doc = document(pts.alphabet, pts.states, reference.term | term, reference.moves | moves)
    return json.dumps(doc), message


def _documents():
    """``(text, message)`` per case: a document that parses, with message
    None, or one naming something undeclared, with its rejection message."""
    rng = random.Random(53)
    systems = [random_pts(rng) for _ in range(40)]
    systems += [split_copy_pts(rng, max_base=6, perturb=i % 2 == 1) for i in range(30)]
    systems += [sink_split_pts(rng, m, n_letters=k, perturb=m % 2 == 0)
                for m in (3, 6, 10) for k in (1, 2, 3)]
    documents = list(systems)
    for pts in systems:
        documents += [_broken(rng, pts, "sum"), _broken(rng, pts, "range")]
    return [(serialize_pts(pts), None) for pts in documents] + [
        _with_undeclared_name(pts, i % 4) for i, pts in enumerate(documents[::5])]


DOCUMENTS = _documents()


def test_documents_cover_valid_sum_and_range_failures_and_undeclared_names():
    kinds = {frozenset(v.kind for v in _reference_validate(_eager(text)))
             for text, message in DOCUMENTS if message is None}
    assert kinds >= {frozenset(), frozenset({DISTRIBUTION_SUM}),
                     frozenset({PROBABILITY_OUT_OF_RANGE})}
    messages = [message for _, message in DOCUMENTS if message is not None]
    for phrase in ("transitions entry for undeclared state", "moves on undeclared letter",
                   "moves to undeclared state"):
        assert sum(phrase in message for message in messages) > 10


@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_integer_form_matches_the_name_keyed_readings(index):
    text, undeclared = DOCUMENTS[index]
    if undeclared is not None:
        for check in (True, False):
            with pytest.raises(UnknownIdentifier) as excinfo:
                parse_pts(text, check=check)
            assert type(excinfo.value) is UnknownIdentifier
            assert str(excinfo.value) == undeclared
        return
    parsed, eager = parse_pts(text, check=False), _eager(text)
    expected = _reference_validate(eager)
    assert validate(parsed) == expected
    # columns list moves in the order of the document
    assert _rep_fields(build_rep(parsed)) == _reference_rep(eager)
    # the reference, read from the parsed document's pairs
    assert _reference_validate(named(parsed)) == expected
    assert _reference_rep(named(parsed)) == _reference_rep(eager)
    if expected:
        error, message = _reference_error(expected)
        with pytest.raises(error) as excinfo:
            parse_pts(text)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message
    else:
        assert parse_pts(text) == parsed


def test_a_pts_is_the_record_of_its_four_parsed_fields():
    assert [field.name for field in fields(Pts)] == ["alphabet", "states", "stops", "rows"]
    texts = [json.dumps(doc) for doc in ALL_DOCS.values()]
    texts += [text for text, message in DOCUMENTS if message is None]
    for text in texts:
        parsed = parse_pts(text, check=False)
        rebuilt = Pts(parsed.alphabet, parsed.states, parsed.stops, parsed.rows)
        assert rebuilt == parsed
        assert validate(rebuilt) == validate(parsed)
        assert serialize_pts(rebuilt) == serialize_pts(parsed)
        assert build_rep(rebuilt) == build_rep(parsed)


def test_a_pts_has_no_member_but_its_fields_and_a_rep_no_output_view():
    # Violation, a frozen dataclass of bare fields, has the members of the
    # dataclass machinery; copyreg adds __slotnames__ to a class it copies
    assert set(vars(Pts)) - {"__slotnames__"} == set(vars(Violation)) - {"__slotnames__"}
    rep = build_rep(load(ALL_DOCS["congruence_xz"]))
    for name in ("l_star", "l_one"):
        assert not hasattr(linear.LinearRep, name) and not hasattr(rep, name)


def test_the_front_end_and_every_query_read_only_the_integer_form(tmp_path, capsys):
    text = json.dumps(pts_to_dict(sink_split_pts(random.Random(59), 8)))
    path = tmp_path / "system.json"
    path.write_text(text, encoding="utf-8")
    pts = parse_pts(text)
    # a Pts has no view to read: every call below reads the parsed pairs
    assert validate(pts) == []
    rep = build_rep(pts)
    queries = ["empty", "word:a.b.a", "cone:a.b.a", "infcone:b.a", "finite", "infinite",
               "all"]
    for query in queries:
        measure(rep, dirac(rep, "a0"), parse_query(query, pts.alphabet))
    assert isinstance(hkc_inf(rep, "a0", "b0p"), Equivalent)
    assert isinstance(hkc_finite(rep, "a0", "b0p"), Equivalent)
    for argv in (["validate", str(path)], ["rep", str(path)],
                 ["equiv", str(path), "a0", "b0p"],
                 *(["eval", str(path), "--state", "b0p", "--query", q] for q in queries)):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out and not captured.err


class _NoFraction:
    def __init__(self, *args):
        raise AssertionError("the kernel built a Fraction")


def test_the_kernel_builds_no_fraction_for_reps_runs_and_word_queries(monkeypatch):
    # the representation, untraced decision runs and word and cone queries
    # run on integers alone: any Fraction that linear builds raises
    systems = [parse_pts(text, check=False) for text, message in DOCUMENTS if message is None]
    valid = [pts for pts in systems[:100] if not validate(pts)]
    assert len(valid) >= 40
    monkeypatch.setattr(linear, "Fraction", _NoFraction)
    reps = [build_rep(pts) for pts in systems]
    reps += [build_rep(load(doc)) for doc in ALL_DOCS.values()]
    rng = random.Random(61)
    for pts in valid:
        rep = build_rep(pts)
        x, y = pts.states[0], pts.states[-1]
        for decide in (hkc_inf, hkc_finite):
            decide(rep, x, y)
        for _ in range(3):
            word = tuple(rng.choice(pts.alphabet) for _ in range(rng.randint(0, 5)))
            state = rng.choice(pts.states)
            measure(rep, dirac(rep, state), FiniteWord(word))
            measure(rep, dirac(rep, state), Cone(word))
    assert len(reps) == len(systems) + len(ALL_DOCS)

"""Generative probabilistic transition systems over exact rationals.

A system consists of a finite alphabet and a finite set of states.  Every
state carries one probability distribution split between *stopping* and
letter-labelled *moves* to successor states; the masses of a state must sum
to exactly 1.  All probabilities are `fractions.Fraction` values and every
computation in this package is exact -- nothing ever rounds.

The input format is a JSON document::

    {"alphabet": ["a", "b"],
     "states": ["x", "y"],
     "transitions": {
        "x": {"stop": "1/3",
              "moves": [{"letter": "a", "to": "y", "p": "1/6"},
                        {"letter": "a", "to": "x", "p": "1/2"}]},
        "y": {"stop": "1"}}}

Rationals are strings "p/q" or integer strings ("1", "0") in ASCII digits.
"stop" defaults to "0".  Every declared state must appear under
"transitions" (a state with no entry has total mass 0, which fails the
sums-to-1 check).  Letters may not contain ".", which separates the letters
of a word in queries and printed counterexamples.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

Word = tuple[str, ...]

_ZERO = Fraction(0)

# [0-9], not \d: \d matches every Unicode digit, and int() converts them all
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


class PtsFormatError(ValueError):
    """Base class for malformed documents and model violations."""


class MalformedRational(PtsFormatError):
    """A probability string is not "p/q" or an integer string."""


class ProbabilityOutOfRange(PtsFormatError):
    """A stored probability lies outside [0, 1]."""


class DistributionSumViolation(PtsFormatError):
    """A state's stop mass plus move masses do not sum to exactly 1."""

    def __init__(self, state: str, total: Fraction):
        super().__init__(
            f"state {state!r}: masses sum to {format_rational(total)}, expected 1")
        self.state = state
        self.total = total


class UnknownIdentifier(PtsFormatError):
    """A referenced state or letter was never declared."""


class DuplicateIdentifier(PtsFormatError):
    """A state, letter, or move entry occurs twice."""


# Violation kinds reported by validate().
PROBABILITY_OUT_OF_RANGE = "probability_out_of_range"
DISTRIBUTION_SUM = "distribution_sum"


@dataclass(frozen=True)
class Violation:
    """One broken model invariant, named by kind and offending state."""

    kind: str
    state: str
    message: str


@dataclass(frozen=True)
class Pts:
    """A probabilistic transition system.

    ``term`` maps each state to its stop probability; ``moves`` maps
    (source, letter, target) triples to probabilities, where an absent
    triple means probability 0.  State and letter order is taken from the
    declaration and is canonical: all vectors and matrices built downstream
    index states in this order, so outputs are reproducible.

    Instances are treated as immutable values after construction.
    """

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    term: dict[str, Fraction]
    moves: dict[tuple[str, str, str], Fraction]

    def stop(self, state: str) -> Fraction:
        return self.term.get(state, _ZERO)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer string, in ASCII digits, into an exact Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise MalformedRational(f"not a rational string: {text!r}")
    num, _, den = text.partition("/")
    try:
        numerator, denominator = int(num), int(den or "1")
    except ValueError:
        # Python refuses to convert integers of more than 4,300 digits
        # (sys.get_int_max_str_digits); such inputs are rejected, not parsed
        raise MalformedRational(
            f"rational has too many digits: {len(text)} characters") from None
    if denominator == 0:
        raise MalformedRational(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


# integers up to this many bits (about 600 decimal digits) go through str()
# directly: below 640 digits, the least value Python's int/str conversion
# limit (sys.set_int_max_str_digits) accepts, so no setting of it can refuse
_STR_BITS = 2000


def _decimal(x: int) -> str:
    """Exact decimal digits of an integer of any size.

    ``str`` refuses integers past Python's digit limit (4,300 by default);
    larger ones are split by a power of ten into two parts that are
    converted recursively, so the process-wide limit is left as it is.
    """
    if x.bit_length() <= _STR_BITS:
        return str(x)
    if x < 0:
        return "-" + _decimal(-x)
    # about half the decimal digits of x (log10(2) > 0.301), so high > 0
    half = x.bit_length() * 301 // 2000
    high, low = divmod(x, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q", or plain integer string when the value is integral.

    Exact at any size, past Python's int/str digit limit as well.
    """
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _identifier_list(doc: dict, key: str) -> list[str]:
    items = doc.get(key)
    if not isinstance(items, list):
        raise PtsFormatError(f'"{key}" must be a list')
    seen = set()
    for item in items:
        if not isinstance(item, str) or not item:
            raise PtsFormatError(f'"{key}" entries must be non-empty strings, got {item!r}')
        if key == "alphabet" and "." in item:
            raise PtsFormatError(f'"alphabet" entries must not contain ".", got {item!r}')
        if item in seen:
            raise DuplicateIdentifier(f"{key[:-1]} {item!r} declared twice")
        seen.add(item)
    return items


def _parse_once(text: object, parsed: dict[str, Fraction]) -> Fraction:
    """``parse_rational(text)``, looked up in ``parsed`` first and stored there."""
    if not isinstance(text, str):
        # a JSON list or object is unhashable; parse_rational rejects it
        return parse_rational(text)
    value = parsed.get(text)
    if value is None:
        value = parsed[text] = parse_rational(text)
    return value


def pts_from_dict(doc: object, check: bool = True) -> Pts:
    """Build a Pts from a decoded document, raising on the first problem.

    With ``check=False`` only structural errors raise; numeric invariants
    (range, sums-to-1) are left for validate() to report in full.
    """
    if not isinstance(doc, dict):
        raise PtsFormatError("document root must be a JSON object")
    alphabet = _identifier_list(doc, "alphabet")
    states = _identifier_list(doc, "states")
    transitions = doc.get("transitions")
    if not isinstance(transitions, dict):
        raise PtsFormatError('"transitions" must be an object')
    state_set = set(states)
    letter_set = set(alphabet)
    for name in transitions:
        if name not in state_set:
            raise UnknownIdentifier(f"transitions entry for undeclared state {name!r}")

    term: dict[str, Fraction] = {}
    moves: dict[tuple[str, str, str], Fraction] = {}
    # probability strings repeat within a document: each is parsed once
    parsed: dict[str, Fraction] = {}
    for state in states:
        entry = transitions.get(state, {})
        if not isinstance(entry, dict):
            raise PtsFormatError(f"transitions for state {state!r} must be an object")
        term[state] = _parse_once(entry.get("stop", "0"), parsed)
        move_items = entry.get("moves", [])
        if not isinstance(move_items, list):
            raise PtsFormatError(f'"moves" for state {state!r} must be a list')
        for item in move_items:
            try:
                letter, target, text = item["letter"], item["to"], item["p"]
            except (KeyError, TypeError):  # a field is missing, or not an object
                raise PtsFormatError(
                    f"move entries for state {state!r} need letter/to/p fields") from None
            # a JSON list or object is unhashable: test the type first
            if not isinstance(letter, str) or letter not in letter_set:
                raise UnknownIdentifier(f"state {state!r} moves on undeclared letter {letter!r}")
            if not isinstance(target, str) or target not in state_set:
                raise UnknownIdentifier(f"state {state!r} moves to undeclared state {target!r}")
            key = (state, letter, target)
            if key in moves:
                raise DuplicateIdentifier(
                    f"duplicate move {letter!r} -> {target!r} for state {state!r}")
            # only a string can be in the memo; anything else is parsed to fail
            value = parsed.get(text) if isinstance(text, str) else None
            moves[key] = value if value is not None else _parse_once(text, parsed)

    pts = Pts(tuple(alphabet), tuple(states), term, moves)
    if check:
        problems = validate(pts)
        if problems:
            first = problems[0]
            if first.kind == DISTRIBUTION_SUM:
                raise DistributionSumViolation(first.state, _state_mass(pts, first.state))
            raise ProbabilityOutOfRange(f"state {first.state!r}: {first.message}")
    return pts


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of a repeated key; reject it instead
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DuplicateIdentifier(f"key {key!r} occurs twice in one JSON object")
            seen.add(key)
    return doc


# json.loads with any keyword builds a new decoder on every call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_pts(text: str, check: bool = True) -> Pts:
    """Parse and validate a JSON document into a Pts."""
    try:
        if text.startswith("\ufeff"):
            # json.loads makes this check, JSONDecoder.decode does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       text, 0)
        doc = _DECODER.decode(text)
    except DuplicateIdentifier:
        raise
    except ValueError as exc:
        # JSONDecodeError, or a number literal past the int-to-str digit limit
        raise PtsFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise PtsFormatError("invalid JSON: nested too deeply") from None
    return pts_from_dict(doc, check=check)


# one move of a state: ((letter index, target index), letter, target, p)
_Move = tuple[tuple[int, int], str, str, Fraction]


def _moves_by_source(pts: Pts) -> dict[str, list[_Move]]:
    """Each state's moves in document order; sorted, they are in alphabet
    order, then target order.  Moves on undeclared letters or states are
    left out."""
    letter_index = {letter: i for i, letter in enumerate(pts.alphabet)}
    state_index = {state: i for i, state in enumerate(pts.states)}
    grouped: dict[str, list[_Move]] = {}
    for (source, letter, target), p in pts.moves.items():
        if letter in letter_index and target in state_index:
            grouped.setdefault(source, []).append(
                ((letter_index[letter], state_index[target]), letter, target, p))
    return grouped


def _in_unit_range(p: Fraction) -> bool:
    return 0 <= p.numerator <= p.denominator


def _ratios(pts: Pts) -> dict[str, list[tuple[int, int]]]:
    # each declared state's stop mass, then its moves on declared letters and
    # states, as (numerator, denominator) pairs
    letters = set(pts.alphabet)
    ratios = {state: [pts.stop(state).as_integer_ratio()] for state in pts.states}
    for (source, letter, target), p in pts.moves.items():
        pairs = ratios.get(source)
        if pairs is not None and letter in letters and target in ratios:
            pairs.append(p.as_integer_ratio())
    return ratios


def _mass(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of (numerator, denominator) pairs as a numerator over the lcm
    of the denominators, not reduced: the sum is 1 iff the two are equal."""
    denominator = lcm(*[d for _, d in pairs])
    return sum([n * (denominator // d) for n, d in pairs]), denominator


def _state_mass(pts: Pts, state: str) -> Fraction:
    return Fraction(*_mass(_ratios(pts)[state]))


def validate(pts: Pts) -> list[Violation]:
    """Check every model invariant; the list is empty iff all of them hold.

    One integer pass: a state passes when its masses (``_ratios``) lie in
    [0, 1] and sum to 1 (``_mass``).  Messages are built only for the
    states that fail, their moves in alphabet order, then target order.
    """
    ratios, by_source, violations = _ratios(pts), None, []
    for state in pts.states:
        numerator, denominator = _mass(ratios[state])
        # masses summing to 1 lie in [0, 1] iff the least numerator is >= 0
        if numerator == denominator and min(ratios[state])[0] >= 0:
            continue
        if by_source is None:
            by_source = _moves_by_source(pts)
        stop = pts.stop(state)
        if not _in_unit_range(stop):
            violations.append(Violation(
                PROBABILITY_OUT_OF_RANGE, state,
                f"stop probability {format_rational(stop)} outside [0, 1]"))
        for _, letter, target, p in sorted(
                m for m in by_source.get(state, ()) if not _in_unit_range(m[3])):
            violations.append(Violation(
                PROBABILITY_OUT_OF_RANGE, state,
                f"move {letter!r} -> {target!r} has probability "
                f"{format_rational(p)} outside [0, 1]"))
        if numerator != denominator:
            total = format_rational(Fraction(numerator, denominator))
            violations.append(Violation(
                DISTRIBUTION_SUM, state, f"masses sum to {total}, expected 1"))
    return violations


def pts_to_dict(pts: Pts) -> dict:
    """Canonical document form: moves listed in alphabet order, then target order."""
    transitions = {}
    by_source = _moves_by_source(pts)
    for state in pts.states:
        entry: dict = {"stop": format_rational(pts.stop(state))}
        move_items = [{"letter": letter, "to": target, "p": format_rational(p)}
                      for _, letter, target, p in sorted(by_source.get(state, ()))]
        if move_items:
            entry["moves"] = move_items
        transitions[state] = entry
    return {"alphabet": list(pts.alphabet),
            "states": list(pts.states),
            "transitions": transitions}


def serialize_pts(pts: Pts) -> str:
    """Render the canonical JSON document; parse_pts inverts this exactly."""
    return json.dumps(pts_to_dict(pts), indent=2) + "\n"

"""Generative probabilistic transition systems over exact rationals.

A system consists of a finite alphabet and a finite set of states.  Every
state carries one probability distribution split between *stopping* and
letter-labelled *moves* to successor states; the masses of a state must sum
to exactly 1.  Probabilities are exact: integer (numerator, denominator)
pairs inside, a `fractions.Fraction` only where a caller gets one; no rounding.

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
    """A probabilistic transition system, as ``pts_from_dict`` parses it.

    ``stops[k]`` is the k-th state's stop probability and ``rows[k]`` its
    moves as ``{(letter index, target index): p}`` in document order, all
    lowest-terms (numerator, denominator) pairs.  Declaration order of
    states and letters is canonical: everything built downstream indexes
    states in it, so outputs are reproducible.

    Immutable, and nothing is derived from the four fields: readers,
    ``oracle`` among them, read the pairs in place.
    """

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    stops: tuple[tuple[int, int], ...]
    rows: tuple[dict[tuple[int, int], tuple[int, int]], ...]


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
        try:
            item.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, valid in JSON
            raise PtsFormatError(f'"{key}" entries must be encodable as UTF-8, '
                                 f'got {item!r}') from None
        if key == "alphabet" and "." in item:
            raise PtsFormatError(f'"alphabet" entries must not contain ".", got {item!r}')
        if item in seen:
            raise DuplicateIdentifier(f"{key[:-1]} {item!r} declared twice")
        seen.add(item)
    return items


def _parse_once(text: object, parsed: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """``parse_rational(text)`` as a lowest-terms pair, memoized in ``parsed``."""
    try:
        return parsed[text]
    except (KeyError, TypeError):  # parsed first here, or not a string
        pass
    pair = parsed[text] = parse_rational(text).as_integer_ratio()
    return pair


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
    state_index = {state: k for k, state in enumerate(states)}
    letter_index = {letter: i for i, letter in enumerate(alphabet)}
    for name in transitions:
        if name not in state_index:
            raise UnknownIdentifier(f"transitions entry for undeclared state {name!r}")

    stops: list[tuple[int, int]] = []
    rows: list[dict[tuple[int, int], tuple[int, int]]] = []
    # probability strings repeat within a document: each is parsed once
    parsed: dict[str, tuple[int, int]] = {}
    for state in states:
        entry = transitions.get(state, {})
        if not isinstance(entry, dict):
            raise PtsFormatError(f"transitions for state {state!r} must be an object")
        stops.append(_parse_once(entry.get("stop", "0"), parsed))
        move_items = entry.get("moves", [])
        if not isinstance(move_items, list):
            raise PtsFormatError(f'"moves" for state {state!r} must be a list')
        rows.append(row := {})
        for item in move_items:
            try:
                letter, target, text = item["letter"], item["to"], item["p"]
            except (KeyError, TypeError):  # a field is missing, or not an object
                raise PtsFormatError(
                    f"move entries for state {state!r} need letter/to/p fields") from None
            try:
                key = letter_index[letter], state_index[target]
            except (KeyError, TypeError):  # undeclared, or a JSON list or object
                if not isinstance(letter, str) or letter not in letter_index:
                    raise UnknownIdentifier(
                        f"state {state!r} moves on undeclared letter {letter!r}") from None
                raise UnknownIdentifier(
                    f"state {state!r} moves to undeclared state {target!r}") from None
            if key in row:
                raise DuplicateIdentifier(
                    f"duplicate move {letter!r} -> {target!r} for state {state!r}")
            row[key] = _parse_once(text, parsed)

    pts = Pts(tuple(alphabet), tuple(states), tuple(stops), tuple(rows))
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


def _in_unit_range(pair: tuple[int, int]) -> bool:
    return 0 <= pair[0] <= pair[1]


def _mass(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of (numerator, denominator) pairs as a numerator over the lcm
    of the denominators, not reduced: the sum is 1 iff the two are equal."""
    denominator = lcm(*[d for _, d in pairs])
    return sum([n * (denominator // d) for n, d in pairs]), denominator


def _state_mass(pts: Pts, state: str) -> Fraction:
    k = pts.states.index(state)
    return Fraction(*_mass([pts.stops[k], *pts.rows[k].values()]))


def validate(pts: Pts) -> list[Violation]:
    """Check every model invariant; the list is empty iff all of them hold.

    One pass over ``stops`` and ``rows``: a state passes when its masses
    lie in [0, 1] and sum to 1 (``_mass``).  Messages are built only for
    the states that fail, their moves in alphabet order, then target order.
    """
    violations = []
    for state, stop, row in zip(pts.states, pts.stops, pts.rows):
        masses = [stop, *row.values()]
        numerator, denominator = _mass(masses)
        # masses summing to 1 lie in [0, 1] iff the least numerator is >= 0
        if numerator == denominator and min(masses)[0] >= 0:
            continue
        if not _in_unit_range(stop):
            violations.append(Violation(
                PROBABILITY_OUT_OF_RANGE, state,
                f"stop probability {format_rational(Fraction(*stop))} outside [0, 1]"))
        for (a, j), p in sorted(row.items()):
            if not _in_unit_range(p):
                violations.append(Violation(
                    PROBABILITY_OUT_OF_RANGE, state,
                    f"move {pts.alphabet[a]!r} -> {pts.states[j]!r} has probability "
                    f"{format_rational(Fraction(*p))} outside [0, 1]"))
        if numerator != denominator:
            total = format_rational(Fraction(numerator, denominator))
            violations.append(Violation(
                DISTRIBUTION_SUM, state, f"masses sum to {total}, expected 1"))
    return violations


def pts_to_dict(pts: Pts) -> dict:
    """Canonical document form: moves listed in alphabet order, then target order."""
    transitions = {}
    for state, stop, row in zip(pts.states, pts.stops, pts.rows):
        entry: dict = {"stop": format_rational(Fraction(*stop))}
        move_items = [{"letter": pts.alphabet[a], "to": pts.states[j],
                       "p": format_rational(Fraction(*p))} for (a, j), p in sorted(row.items())]
        if move_items:
            entry["moves"] = move_items
        transitions[state] = entry
    return {"alphabet": list(pts.alphabet),
            "states": list(pts.states),
            "transitions": transitions}


def serialize_pts(pts: Pts) -> str:
    """Render the canonical JSON document; parse_pts inverts this exactly."""
    return json.dumps(pts_to_dict(pts), indent=2) + "\n"

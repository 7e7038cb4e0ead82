"""Brute-force reference computations for cross-checking the main code paths.

brute_measure walks the raw transition maps directly and never touches the
matrix representation, so a shared bug cannot hide; word_oracle_equiv
settles equivalence by exhaustively comparing both outputs, read with
``measure`` as the total mass and the empty-word mass, on all words up to
a depth, with depth = dimension decisive because difference spans
stabilize within that many steps.
"""

from __future__ import annotations

from fractions import Fraction

from .linear import Config, LinearRep, step
from .measure import All, Cone, FiniteWord, measure
from .model import Pts, UnknownIdentifier

_ZERO = Fraction(0)
_ONE = Fraction(1)


def brute_measure(pts: Pts, state: str, target: FiniteWord | Cone) -> Fraction:
    """Measure of a single word or a cone by explicit path enumeration.

    The frontier maps each state to the probability of reaching it while
    emitting the prefix consumed so far.
    """
    if not isinstance(target, (FiniteWord, Cone)):
        raise TypeError(f"brute_measure handles words and cones only, got {target!r}")
    if state not in pts.states:
        raise UnknownIdentifier(f"undeclared state {state!r}")

    successors: dict[tuple[str, str], list[tuple[str, Fraction]]] = {}
    for (source, letter, destination), p in pts.moves.items():
        if p:
            successors.setdefault((source, letter), []).append((destination, p))

    frontier = {state: _ONE}
    for letter in target.word:
        if letter not in pts.alphabet:
            raise UnknownIdentifier(f"undeclared letter {letter!r}")
        spread: dict[str, Fraction] = {}
        for source, mass in frontier.items():
            for destination, p in successors.get((source, letter), ()):
                spread[destination] = spread.get(destination, _ZERO) + mass * p
        frontier = spread

    if isinstance(target, Cone):
        return sum(frontier.values(), _ZERO)
    return sum((mass * pts.stop(source) for source, mass in frontier.items()), _ZERO)


def word_oracle_equiv(rep: LinearRep, u: Config, v: Config, depth: int) -> bool:
    """True iff both outputs agree on every word of length at most ``depth``.

    Decisive when depth >= rep.dim; smaller depths can only refute.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    for target in (All(), FiniteWord(())):
        if measure(rep, u, target) != measure(rep, v, target):
            return False
    if depth == 0:
        return True
    return all(
        word_oracle_equiv(rep, step(rep, u, letter), step(rep, v, letter), depth - 1)
        for letter in rep.alphabet)

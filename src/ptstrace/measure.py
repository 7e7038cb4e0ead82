"""Exact trace-measure evaluation on generator sets of words.

The measure induced by a configuration is evaluated on the generators of
the sigma-algebra over finite-and-infinite words -- the empty set, single
finite words, and cones (all words with a given finite prefix) -- plus the
derived sets of all finite words, all infinite words, and infinite-only
cones.  This module holds the queries only: words and cones are output
rows of transformed vectors, and the finite, infinite and infinite-cone
queries read the finite-word mass that the linear representation solves
and caches exactly (``LinearRep.finite_mass``), so no query involves
limits or approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linear import (Config, LinearRep, checked_ints, from_ints,
                     int_out_finite, int_out_term, int_out_total,
                     int_word_transform)
from .model import PtsFormatError, UnknownIdentifier, Word

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Empty:
    """The empty set of words."""


@dataclass(frozen=True)
class _WordSet:
    """A generator set named by one finite word, stored as a tuple."""

    word: Word

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))


@dataclass(frozen=True)
class FiniteWord(_WordSet):
    """A single finite word."""


@dataclass(frozen=True)
class Cone(_WordSet):
    """All finite and infinite words with the given prefix."""


@dataclass(frozen=True)
class InfCone(_WordSet):
    """All infinite words with the given prefix."""


@dataclass(frozen=True)
class AllFinite:
    """The set of all finite words."""


@dataclass(frozen=True)
class AllInfinite:
    """The set of all infinite words."""


@dataclass(frozen=True)
class All:
    """The set of all finite and infinite words."""


GenSet = Empty | FiniteWord | Cone | InfCone | AllFinite | AllInfinite | All


def finite_mass_vector(rep: LinearRep) -> Config:
    """Per-state probability of eventually stopping: the mass on finite words.

    The least nonnegative solution of the fixed-point system
    s = l_star + (sum_a M_a)^T s, solved once per representation and
    cached on it (``LinearRep.finite_mass``).
    """
    return from_ints(rep.finite_mass)


def measure(rep: LinearRep, u: Config, target: GenSet) -> Fraction:
    """Evaluate the trace measure of a configuration on a generator set.

    The formulas are linear in ``u``, so any configuration is accepted;
    the result is a probability only when ``u`` is a subdistribution.
    """
    v = checked_ints(rep.dim, u)
    if isinstance(target, Empty):
        return _ZERO
    if isinstance(target, FiniteWord):
        return int_out_term(rep, int_word_transform(rep, v, target.word))
    if isinstance(target, Cone):
        return int_out_total(int_word_transform(rep, v, target.word))
    if isinstance(target, All):
        return int_out_total(v)
    if isinstance(target, AllFinite):
        return int_out_finite(rep, v)
    if isinstance(target, AllInfinite):
        return int_out_total(v) - int_out_finite(rep, v)
    if isinstance(target, InfCone):
        v = int_word_transform(rep, v, target.word)
        return int_out_total(v) - int_out_finite(rep, v)
    raise TypeError(f"not a generator-set query: {target!r}")


def tokenize_word(text: str, alphabet: tuple[str, ...]) -> Word:
    """Split a query word into declared letters.

    Dots separate letters explicitly ("0.2.1"); without dots the text is
    matched greedily against declared letters, longest first.  The empty
    string is the empty word.
    """
    if text == "":
        return ()
    if "." in text:
        letters = tuple(text.split("."))
        for letter in letters:
            if letter not in alphabet:
                raise UnknownIdentifier(f"undeclared letter {letter!r}")
        return letters
    by_length = sorted(alphabet, key=len, reverse=True)
    out = []
    position = 0
    while position < len(text):
        for letter in by_length:
            if text.startswith(letter, position):
                out.append(letter)
                position += len(letter)
                break
        else:
            raise UnknownIdentifier(
                f"cannot tokenize {text!r} at position {position} "
                f"against alphabet {list(alphabet)}")
    return tuple(out)


_PLAIN_QUERIES = {
    "empty": Empty,
    "finite": AllFinite,
    "infinite": AllInfinite,
    "all": All,
}

_WORD_QUERIES = {
    "word": FiniteWord,
    "cone": Cone,
    "infcone": InfCone,
}


def parse_query(text: str, alphabet: tuple[str, ...]) -> GenSet:
    """Parse the query syntax: empty | word:W | cone:W | infcone:W | finite | infinite | all."""
    if text in _PLAIN_QUERIES:
        return _PLAIN_QUERIES[text]()
    head, sep, rest = text.partition(":")
    if sep and head in _WORD_QUERIES:
        return _WORD_QUERIES[head](tokenize_word(rest, alphabet))
    raise PtsFormatError(f"unrecognized query {text!r}")

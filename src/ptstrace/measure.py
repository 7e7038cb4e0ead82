"""Exact trace-measure evaluation on generator sets of words.

The measure induced by a configuration is evaluated on the generators of
the sigma-algebra over finite-and-infinite words -- the empty set, single
finite words, and cones (all words with a given finite prefix) -- plus the
derived sets of all finite words, all infinite words, and infinite-only
cones.  ``measure`` (``int_measure`` on the kernel) is the one reader of
trace-measure values: it applies ``M_w`` for a target's word, in one
``int_walk`` call on the sparse integer kernel, and reads an output row of
the walked vector, the total mass for a cone, the termination
mass for a word, and the finite-word mass, which the linear representation
solves exactly for the states a query reaches and caches, for the finite
and infinite sets.  No query involves limits or approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linear import (Config, IntConfig, LinearRep, int_out_finite, int_walk,
                     scaled_out_term, to_ints)
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


def measure(rep: LinearRep, u: Config, target: GenSet) -> Fraction:
    """Evaluate the trace measure of a configuration on a generator set.

    The formulas are linear in ``u``, so any configuration is accepted;
    the result is a probability only when ``u`` is a subdistribution.
    """
    return int_measure(rep, to_ints(u, rep.dim), target)


def int_measure(rep: LinearRep, v: IntConfig, target: GenSet) -> Fraction:
    """``measure`` of a kernel configuration: sparse integers over a denominator."""
    if isinstance(target, Empty):
        return _ZERO
    if isinstance(target, (FiniteWord, Cone, InfCone)):
        v = int_walk(rep, v, target.word)
    nums, den = v
    if isinstance(target, FiniteWord):
        return Fraction(scaled_out_term(rep, nums), rep.stop_row[1] * den)
    if isinstance(target, (Cone, All)):
        return Fraction(sum(nums.values()), den)
    if isinstance(target, AllFinite):
        return int_out_finite(rep, v)
    if isinstance(target, (InfCone, AllInfinite)):
        return Fraction(sum(nums.values()), den) - int_out_finite(rep, v)
    raise TypeError(f"not a generator-set query: {target!r}")


def tokenize_word(text: str, alphabet: tuple[str, ...]) -> Word:
    """Split a query word into declared letters.

    Dots separate letters explicitly ("0.2.1"); without dots the text is
    matched against declared letters longest first, backtracking where the
    rest does not split.  The empty string is the empty word.
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
    # path holds (position, index into by_length) of the letters taken; a
    # position from which the rest does not split is failed, never retried
    path: list[tuple[int, int]] = []
    failed: set[int] = set()
    position = start = 0
    while position < len(text):
        for i in range(start, len(by_length)):
            end = position + len(by_length[i])
            if end not in failed and text.startswith(by_length[i], position):
                path.append((position, i))
                position, start = end, 0
                break
        else:
            if not path:
                # every position entered but 0 has failed: the furthest one
                raise UnknownIdentifier(
                    f"cannot tokenize {text!r} at position {max(failed, default=0)} "
                    f"against alphabet {list(alphabet)}")
            failed.add(position)
            position, start = path.pop()
            start += 1
    return tuple(by_length[i] for _, i in path)


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

"""Exact trace-measure evaluation on generator sets of words.

The measure induced by a configuration is evaluated on the generators of
the sigma-algebra over finite-and-infinite words -- the empty set, single
finite words, and cones (all words with a given finite prefix) -- plus the
derived sets of all finite words, all infinite words, and infinite-only
cones.  Finite-word mass is obtained in closed form as the least
nonnegative solution of a linear fixed-point system, so no query involves
limits or approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linear import (Config, LinearRep, dot, eliminate, out_term, out_total,
                     primitive, to_ints, word_transform)
from .model import PtsFormatError, UnknownIdentifier, Word

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Empty:
    """The empty set of words."""


@dataclass(frozen=True)
class FiniteWord:
    """A single finite word."""

    word: Word

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))


@dataclass(frozen=True)
class Cone:
    """All finite and infinite words with the given prefix."""

    word: Word

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))


@dataclass(frozen=True)
class InfCone:
    """All infinite words with the given prefix."""

    word: Word

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))


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


class SingularRestrictedSystem(RuntimeError):
    """The restricted termination system was singular.

    Cannot happen for a valid system; raised only on an internal
    invariant breach.
    """


def _transition_numerators(rep: LinearRep) -> tuple[list[dict[int, int]], int]:
    """Per source state, the integer one-step weights to each target over
    all letters, and their common denominator."""
    common = lcm(*rep.denominators.values())
    combined: list[dict[int, int]] = [{} for _ in range(rep.dim)]
    for letter, columns in rep.columns.items():
        scale = common // rep.denominators[letter]
        for out, column in zip(combined, columns):
            for j, p in column:
                out[j] = out.get(j, 0) + p * scale
    return combined, common


def _solve_sparse(rows: list[dict[int, int]], m: int) -> list[Fraction]:
    """Exact solution of a square nonsingular integer system.

    Row i is a dict of column -> coefficient, with the right-hand side under
    key m.  Fraction-free forward elimination, choosing per column the
    sparsest remaining row as pivot, then back substitution over rationals.
    """
    remaining = [primitive(row) for row in rows]
    eliminated: list[tuple[int, dict[int, int]]] = []
    for col in range(m):
        candidates = [row for row in remaining if col in row]
        if not candidates:
            raise SingularRestrictedSystem("restricted system has no unique solution")
        pivot_row = min(candidates, key=len)
        remaining = [eliminate(row, pivot_row, col) if col in row else row
                     for row in remaining if row is not pivot_row]
        eliminated.append((col, pivot_row))
    solution = [_ZERO] * m
    for col, row in reversed(eliminated):
        acc = Fraction(row.get(m, 0))
        for j, x in row.items():
            if j != col and j != m:
                acc -= x * solution[j]
        solution[col] = acc / row[col]
    return solution


def finite_mass_vector(rep: LinearRep) -> Config:
    """Per-state probability of eventually stopping: the mass on finite words.

    Computed as the least nonnegative solution of the fixed-point system
    s = l_star + (sum_a M_a)^T s: states that cannot reach a positively
    terminating state get 0, and the system restricted to the remaining
    states is nonsingular and solved exactly.  Read from the sparse
    columns and computed once per representation.
    """
    cached = rep._memo.get("finite_mass")
    if cached is None:
        cached = rep._memo["finite_mass"] = _finite_mass(rep)
    return cached


def _finite_mass(rep: LinearRep) -> Config:
    n = rep.dim
    # combined[k][j] / common: one-step probability from source k to target j
    combined, common = _transition_numerators(rep)
    star, star_den = to_ints(rep.l_star)

    # states from which a positively terminating state is reachable
    sources: list[list[int]] = [[] for _ in range(n)]
    for k, out in enumerate(combined):
        for j in out:
            sources[j].append(k)
    live = {k for k in range(n) if star[k]}
    stack = list(live)
    while stack:
        for source in sources[stack.pop()]:
            if source not in live:
                live.add(source)
                stack.append(source)

    order = [k for k in range(n) if k in live]
    s = [_ZERO] * n
    if order:
        # row of state k, times common * star_den:
        # (common * s_k - sum_j combined[k][j] * s_j) * star_den = common * star_k
        m = len(order)
        position = {k: i for i, k in enumerate(order)}
        rows = []
        for i, k in enumerate(order):
            row = {i: common * star_den}
            for j, q in combined[k].items():
                if j in position:
                    x = row.get(position[j], 0) - q * star_den
                    if x:
                        row[position[j]] = x
                    else:
                        del row[position[j]]
            if star[k]:
                row[m] = common * star[k]
            rows.append(row)
        for k, value in zip(order, _solve_sparse(rows, m)):
            s[k] = value

    result = tuple(s)
    # exact fixed point and probability range, as a guard on the solver
    nums, den = to_ints(result)
    for k in range(n):
        if not 0 <= nums[k] <= den:
            raise SingularRestrictedSystem(f"mass {result[k]} for state index {k}")
        inflow = sum(q * nums[j] for j, q in combined[k].items())
        if nums[k] * common * star_den != star[k] * den * common + inflow * star_den:
            raise SingularRestrictedSystem("fixed-point equation violated")
    return result


def measure(rep: LinearRep, u: Config, target: GenSet) -> Fraction:
    """Evaluate the trace measure of a configuration on a generator set.

    The formulas are linear in ``u``, so any configuration is accepted;
    the result is a probability only when ``u`` is a subdistribution.
    """
    if isinstance(target, Empty):
        return _ZERO
    if isinstance(target, FiniteWord):
        return out_term(rep, word_transform(rep, u, target.word))
    if isinstance(target, Cone):
        return out_total(rep, word_transform(rep, u, target.word))
    if isinstance(target, All):
        return out_total(rep, u)
    if isinstance(target, AllFinite):
        return dot(finite_mass_vector(rep), u)
    if isinstance(target, AllInfinite):
        return out_total(rep, u) - dot(finite_mass_vector(rep), u)
    if isinstance(target, InfCone):
        v = word_transform(rep, u, target.word)
        return out_total(rep, v) - dot(finite_mass_vector(rep), v)
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

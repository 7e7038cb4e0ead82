"""Exact trace-measure evaluation on generator sets of words.

The measure induced by a configuration is evaluated on the generators of
the sigma-algebra over finite-and-infinite words -- the empty set, single
finite words, and cones (all words with a given finite prefix) -- plus the
derived sets of all finite words, all infinite words, and infinite-only
cones.  Finite-word mass is obtained in closed form as the least
nonnegative solution of a linear fixed-point system, so no query involves
limits or approximation.

That system is solved once per representation, for every state: a
reachability pre-pass zeroes the states that can never stop, and the rest
is solved by sparse fraction-free elimination in Markowitz order (fewest
rows per cleared column first, which keeps fill-in low) with integer back
substitution.  The solution is cached as integers over one common
denominator, so the finite, infinite and infinite-cone queries are integer
dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .linear import (Config, IntConfig, LinearRep, checked_ints, eliminate,
                     from_ints, int_out_term, int_out_total,
                     int_word_transform, primitive, to_ints)
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


def _solve_sparse(rows: list[dict[int, int]], m: int) -> IntConfig:
    """Exact solution of a square nonsingular integer system, as integers
    over one common denominator in lowest terms.

    Row i is a dict of column -> coefficient, with the right-hand side under
    key m.  Fraction-free forward elimination in Markowitz order: each step
    clears the column held by the fewest remaining rows, pivoting on its
    shortest row (ties to the smaller index), which keeps fill-in low on
    the sparse systems built here.  A column -> rows index and a heap with
    lazily dropped stale counts find that column without scanning.  Back
    substitution stays in integers over one common denominator.
    """
    rows = [primitive(row) for row in rows]
    holders: list[set[int]] = [set() for _ in range(m)]
    for i, row in enumerate(rows):
        for j in row:
            if j != m:
                holders[j].add(i)
    heap = [(len(held), j) for j, held in enumerate(holders)]
    heapify(heap)
    cleared = [False] * m
    eliminated: list[tuple[int, dict[int, int]]] = []
    while heap:
        count, col = heappop(heap)
        if cleared[col] or count != len(holders[col]):
            continue
        if not count:
            raise SingularRestrictedSystem("restricted system has no unique solution")
        cleared[col] = True
        pivot = min(holders[col], key=lambda i: (len(rows[i]), i))
        pivot_row = rows[pivot]
        changed = set()
        for j in pivot_row:
            if j != m:
                holders[j].discard(pivot)
                changed.add(j)
        # every other row holding col is reduced by the pivot row; none of
        # them holds col afterwards, so its index entry starts empty
        targets, holders[col] = holders[col], set()
        for i in targets:
            old = rows[i]
            rows[i] = new = eliminate(old, pivot_row, col)
            for j in old.keys() - new.keys():
                if j != m:
                    holders[j].discard(i)
                    changed.add(j)
            for j in new.keys() - old.keys():
                if j != m:
                    holders[j].add(i)
                    changed.add(j)
        for j in changed:
            if not cleared[j]:
                heappush(heap, (len(holders[j]), j))
        eliminated.append((col, pivot_row))
    # x_j = nums[j] / den; a pivot row involves its own column, columns
    # cleared after it (solved before it here) and the right-hand side
    nums, den = [0] * m, 1
    for col, row in reversed(eliminated):
        acc = row.get(m, 0) * den
        for j, x in row.items():
            if j != col and j != m:
                acc -= x * nums[j]
        p = row[col]
        g = gcd(acc, p)
        scale = p // g
        if scale < 0:
            scale, g = -scale, -g
        if scale != 1:
            den *= scale
            nums = [x * scale for x in nums]
        nums[col] = acc // g
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def finite_mass_vector(rep: LinearRep) -> Config:
    """Per-state probability of eventually stopping: the mass on finite words.

    Computed as the least nonnegative solution of the fixed-point system
    s = l_star + (sum_a M_a)^T s: states that cannot reach a positively
    terminating state get 0, and the system restricted to the remaining
    states is nonsingular and solved exactly.  Read from the sparse
    columns and computed once per representation.
    """
    return from_ints(_finite_mass_ints(rep))


def _finite_mass_ints(rep: LinearRep) -> IntConfig:
    # cached on the representation as integers over one common denominator
    cached = rep._memo.get("finite_mass")
    if cached is None:
        cached = rep._memo["finite_mass"] = _finite_mass(rep)
    return cached


def _finite_mass(rep: LinearRep) -> IntConfig:
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
    nums, den = [0] * n, 1
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
        solution, den = _solve_sparse(rows, m)
        for k, value in zip(order, solution):
            nums[k] = value

    # exact fixed point and probability range, as a guard on the solver
    for k in range(n):
        if not 0 <= nums[k] <= den:
            raise SingularRestrictedSystem(f"mass out of [0, 1] for state index {k}")
        inflow = sum(q * nums[j] for j, q in combined[k].items())
        if nums[k] * common * star_den != star[k] * den * common + inflow * star_den:
            raise SingularRestrictedSystem("fixed-point equation violated")
    return tuple(nums), den


def _finite_part(rep: LinearRep, u: IntConfig) -> Fraction:
    (mass, mass_den), (nums, den) = _finite_mass_ints(rep), u
    return Fraction(sum([mass[k] * x for k, x in enumerate(nums) if x]), mass_den * den)


def measure(rep: LinearRep, u: Config, target: GenSet) -> Fraction:
    """Evaluate the trace measure of a configuration on a generator set.

    The formulas are linear in ``u``, so any configuration is accepted;
    the result is a probability only when ``u`` is a subdistribution.
    """
    v = checked_ints(rep, u)
    if isinstance(target, Empty):
        return _ZERO
    if isinstance(target, FiniteWord):
        return int_out_term(rep, int_word_transform(rep, v, target.word))
    if isinstance(target, Cone):
        return int_out_total(int_word_transform(rep, v, target.word))
    if isinstance(target, All):
        return int_out_total(v)
    if isinstance(target, AllFinite):
        return _finite_part(rep, v)
    if isinstance(target, AllInfinite):
        return int_out_total(v) - _finite_part(rep, v)
    if isinstance(target, InfCone):
        v = int_word_transform(rep, v, target.word)
        return int_out_total(v) - _finite_part(rep, v)
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

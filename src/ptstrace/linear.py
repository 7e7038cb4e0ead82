"""Determinized linear view of a transition system.

Weighted state vectors (configurations) carry the dynamics as exact linear
algebra: one transition operator per letter plus two output rows, the
all-ones total-mass row and the termination row.  Configurations are plain
tuples of Fractions; entries may be negative or exceed 1, since the
equivalence checker works with differences and scalings of distributions.

Internally everything runs on one sparse integer kernel.  Each letter is
stored as sparse columns, one per source state, listing ``(target, p)``
pairs with integer ``p`` over one common denominator for the letter.  A
configuration inside the kernel is an integer vector over one common
denominator, kept in lowest terms (``to_ints``/``from_ints`` convert), so a
step is integer multiply-adds over the nonzero entries only, with a single
gcd normalization at the end.  Where only the direction of a vector counts,
as for the differences the equivalence checker carries, it is a bare
integer vector divided by its content, and ``primitive_step`` steps it
without any denominator.

Matrix convention: ``mats[a][j][k]`` is the probability of moving from the
k-th state to the j-th state on letter ``a``.  Columns are source states,
so one step of a column vector u is the product ``M_a . u`` and the column
of ``M_a`` at a state equals the step image of that state's unit vector.
The transpose convention is equally common elsewhere; everything here
assumes columns-are-sources.  ``mats`` is a dense Fraction view derived
from the sparse columns on first use; the kernel itself never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable

from .model import Pts, UnknownIdentifier

Config = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
IntVector = tuple[int, ...]
# an integer vector and its positive common denominator, in lowest terms
IntConfig = tuple[IntVector, int]
# per source state: the (target index, integer numerator) pairs of nonzero moves
Columns = tuple[tuple[tuple[int, int], ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearRep:
    """Linear representation of a system: outputs ``l_one``/``l_star`` and
    one sparse transition operator per letter, indexed in declared state order.

    ``columns[a][k]`` lists the ``(j, p)`` pairs with ``p / denominators[a]``
    the probability of moving from the k-th to the j-th state on ``a``.
    ``l_one`` is always the all-ones row because every state's masses sum
    to 1; keeping it explicit makes the two output functionals symmetric.
    Immutable after construction apart from caches of derived values;
    safe to share between threads.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    l_one: Config
    l_star: Config
    columns: dict[str, Columns]
    denominators: dict[str, int]
    # derived values computed once per representation (see measure.py)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise UnknownIdentifier(f"undeclared state {state!r}") from None

    def letter_columns(self, letter: str) -> tuple[Columns, int]:
        """The sparse columns of a letter and their common denominator."""
        try:
            return self.columns[letter], self.denominators[letter]
        except KeyError:
            raise UnknownIdentifier(f"undeclared letter {letter!r}") from None

    @cached_property
    def _stop_terms(self) -> tuple[tuple[tuple[int, int], ...], int]:
        # l_star over its common denominator, nonzero entries as (index, numerator)
        star, den = to_ints(self.l_star)
        return tuple((k, s) for k, s in enumerate(star) if s), den

    @cached_property
    def mats(self) -> dict[str, Matrix]:
        """Dense Fraction matrices, ``mats[a][j][k]``, derived from the columns."""
        n = self.dim
        dense = {}
        for letter, columns in self.columns.items():
            denominator = self.denominators[letter]
            rows = [[_ZERO] * n for _ in range(n)]
            for k, column in enumerate(columns):
                for j, p in column:
                    rows[j][k] = Fraction(p, denominator)
            dense[letter] = tuple(tuple(row) for row in rows)
        return dense


def build_rep(pts: Pts) -> LinearRep:
    """Determinize a valid Pts into its linear representation."""
    index = {state: k for k, state in enumerate(pts.states)}
    moves: dict[str, list[list[tuple[int, Fraction]]]] = {
        letter: [[] for _ in pts.states] for letter in pts.alphabet}
    for (source, letter, target), p in pts.moves.items():
        if p:
            moves[letter][index[source]].append((index[target], p))
    columns, denominators = {}, {}
    for letter, per_source in moves.items():
        denominator = lcm(*(p.denominator for column in per_source for _, p in column))
        denominators[letter] = denominator
        columns[letter] = tuple(
            tuple((j, p.numerator * (denominator // p.denominator)) for j, p in column)
            for column in per_source)
    return LinearRep(
        states=pts.states,
        alphabet=pts.alphabet,
        l_one=tuple(_ONE for _ in pts.states),
        l_star=tuple(pts.stop(state) for state in pts.states),
        columns=columns,
        denominators=denominators,
    )


def to_ints(u: Config) -> IntConfig:
    """A Fraction configuration as integers over their least common denominator."""
    denominator = lcm(*(x.denominator for x in u))
    return tuple(x.numerator * (denominator // x.denominator) for x in u), denominator


def from_ints(u: IntConfig) -> Config:
    nums, denominator = u
    return tuple(Fraction(x, denominator) if x else _ZERO for x in nums)


def _product(columns: Columns, nums: IntVector) -> list[int]:
    # the integer numerators of M . nums, over the letter's denominator
    acc = [0] * len(nums)
    for k, x in enumerate(nums):
        if x:
            for j, p in columns[k]:
                acc[j] += p * x
    return acc


def int_step(rep: LinearRep, u: IntConfig, letter: str) -> IntConfig:
    """``M_letter . u`` on the integer kernel, in lowest terms."""
    columns, denominator = rep.letter_columns(letter)
    nums, den = u
    acc = _product(columns, nums)
    den *= denominator
    g = gcd(den, *acc)
    if g > 1:
        return tuple([x // g for x in acc]), den // g
    return tuple(acc), den


def primitive_step(rep: LinearRep, d: IntVector, letter: str) -> IntVector:
    """``M_letter . d`` divided by its content: a step of a direction.

    Only the direction of ``d`` counts, so the letter's denominator drops
    out; the zero vector steps to itself.
    """
    acc = _product(rep.letter_columns(letter)[0], d)
    g = gcd(*acc)
    if g > 1:
        return tuple([x // g for x in acc])
    return tuple(acc)


def int_word_transform(rep: LinearRep, u: IntConfig, word: Iterable[str]) -> IntConfig:
    for letter in word:
        u = int_step(rep, u, letter)
    return u


def int_out_total(u: IntConfig) -> Fraction:
    nums, den = u
    return Fraction(sum(nums), den)


def scaled_out_term(rep: LinearRep, nums: IntVector) -> int:
    """``l_star . nums`` times the common denominator of ``l_star``.

    An integer that is zero exactly when the termination output is.
    """
    return sum([s * nums[k] for k, s in rep._stop_terms[0]])


def int_out_term(rep: LinearRep, u: IntConfig) -> Fraction:
    nums, den = u
    return Fraction(scaled_out_term(rep, nums), rep._stop_terms[1] * den)


def primitive(row: dict[int, int]) -> dict[int, int]:
    """A sparse integer row divided by its content (the gcd of its entries)."""
    content = gcd(*row.values())
    return {j: x // content for j, x in row.items()} if content > 1 else row


def eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """Clear entry ``col`` of a sparse row, fraction-free.

    Returns ``(p/g) row - (c/g) pivot_row`` divided by its content, where
    ``p = pivot_row[col]``, ``c = row[col]`` and ``g = gcd(p, c)``: a
    nonzero multiple of row minus a multiple of pivot_row, positive when
    ``p`` is.
    """
    p, c = pivot_row[col], row[col]
    g = gcd(p, c)
    a, c = p // g, c // g
    out = {j: a * x for j, x in row.items()}
    for j, y in pivot_row.items():
        x = out.get(j, 0) - c * y
        if x:
            out[j] = x
        else:
            del out[j]
    return primitive(out)


def checked_ints(rep: LinearRep, u: Config) -> IntConfig:
    if len(u) != rep.dim:
        raise ValueError(f"configuration has length {len(u)}, expected {rep.dim}")
    return to_ints(u)


def dirac(rep: LinearRep, state: str) -> Config:
    """Unit basis vector of a state."""
    index = rep.state_index(state)
    return tuple(_ONE if j == index else _ZERO for j in range(rep.dim))


def step(rep: LinearRep, u: Config, letter: str) -> Config:
    """One transition: the exact matrix-vector product ``M_letter . u``."""
    return from_ints(int_step(rep, checked_ints(rep, u), letter))


def word_transform(rep: LinearRep, u: Config, word: Iterable[str]) -> Config:
    """Apply the letters of ``word`` left to right; the empty word is the identity."""
    return from_ints(int_word_transform(rep, checked_ints(rep, u), word))


def out_total(rep: LinearRep, u: Config) -> Fraction:
    """Total mass output: the cone measure of the full word space."""
    return int_out_total(checked_ints(rep, u))


def out_term(rep: LinearRep, u: Config) -> Fraction:
    """Termination output: the measure of the empty word."""
    return int_out_term(rep, checked_ints(rep, u))

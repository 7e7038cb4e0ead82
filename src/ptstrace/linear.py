"""Determinized linear view of a transition system.

Weighted state vectors (configurations) carry the dynamics as exact linear
algebra: one transition operator per letter plus two output rows, the
all-ones total-mass row and the termination row.  Configurations are plain
tuples of Fractions; entries may be negative or exceed 1, since the
equivalence checker works with differences and scalings of distributions.
Output values are read by ``measure.measure`` alone, through the kernel
readers here (``int_out_term``, ``int_out_finite``); the equivalence
checker only tests an output of a difference for zero (``scaled_out_term``).

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

The mass on finite words, the least nonnegative fixed point of
``s = l_star + (sum_a M_a)^T s``, is cached on the representation, each
state solved once: a query solves the unsolved states its vector reaches,
as one block with the solved states they reach as constants, by sparse
fraction-free elimination in Markowitz order (fewest rows per cleared
column first, which keeps fill-in low).  Only this module reads the cache
entries (``int_out_finite``, ``finite_mass_vector``).

Matrix convention: ``mats[a][j][k]`` is the probability of moving from the
k-th state to the j-th state on letter ``a``.  Columns are source states,
so one step of a column vector u is the product ``M_a . u`` and the column
of ``M_a`` at a state equals the step image of that state's unit vector.
The transpose convention is equally common elsewhere; everything here
assumes columns-are-sources.  ``mats`` is a dense Fraction view derived
from the sparse columns on first use; neither the kernel nor ``ptstrace
rep``, which prints the matrices from the columns, reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
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


class SingularRestrictedSystem(RuntimeError):
    """The restricted termination system was singular.

    Cannot happen for a valid system; raised only on an internal
    invariant breach.
    """


@dataclass(frozen=True)
class LinearRep:
    """Linear representation of a system: outputs ``l_one``/``l_star`` and
    one sparse transition operator per letter, indexed in declared state order.

    ``columns[a][k]`` lists the ``(j, p)`` pairs with ``p / denominators[a]``
    the probability of moving from the k-th to the j-th state on ``a``.
    ``l_one`` is always the all-ones row because every state's masses sum
    to 1; keeping it explicit makes the two output functionals symmetric.
    Immutable after construction apart from caches of derived values;
    safe to share between threads, as the caches only grow: a solved
    finite-mass block is stored before its states point to it, and an
    exact value, once cached, never changes.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    l_one: Config
    l_star: Config
    columns: dict[str, Columns]
    denominators: dict[str, int]

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
        """Dense Fraction matrices, ``mats[a][j][k]``, derived from the columns:
        a view for callers, which the package itself never reads."""
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

    @cached_property
    def _mass_cache(self) -> tuple[list[dict[int, int]], int, IntVector, int, list]:
        """The finite-mass cache, ``(combined, common, star, star_den, solved)``.

        ``combined[k][j] / common`` is the one-step probability from the
        k-th to the j-th state over all letters, ``star / star_den`` is
        ``l_star``, and ``solved[k]`` is ``(block, position)`` once the k-th
        state is solved, ``block`` an ``IntConfig``.
        """
        common = lcm(*self.denominators.values())
        combined: list[dict[int, int]] = [{} for _ in self.states]
        for letter, columns in self.columns.items():
            scale = common // self.denominators[letter]
            for out, column in zip(combined, columns):
                for j, p in column:
                    out[j] = out.get(j, 0) + p * scale
        return combined, common, *to_ints(self.l_star), [None] * self.dim


def build_rep(pts: Pts) -> LinearRep:
    """Determinize a valid Pts into its linear representation."""
    index = {state: k for k, state in enumerate(pts.states)}
    # per letter and source state: (target index, numerator, denominator)
    moves: dict[str, list[list[tuple[int, int, int]]]] = {
        letter: [[] for _ in pts.states] for letter in pts.alphabet}
    for (source, letter, target), p in pts.moves.items():
        numerator = p.numerator
        if numerator:
            moves[letter][index[source]].append((index[target], numerator, p.denominator))
    columns, denominators = {}, {}
    for letter, per_source in moves.items():
        denominator = lcm(*[d for column in per_source for _, _, d in column])
        denominators[letter] = denominator
        columns[letter] = tuple(
            tuple([(j, p * (denominator // d)) for j, p, d in column])
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


def scaled_out_term(rep: LinearRep, nums: IntVector) -> int:
    """``l_star . nums`` times the common denominator of ``l_star``.

    An integer that is zero exactly when the termination output is.
    """
    return sum([s * nums[k] for k, s in rep._stop_terms[0]])


def int_out_term(rep: LinearRep, u: IntConfig) -> Fraction:
    nums, den = u
    return Fraction(scaled_out_term(rep, nums), rep._stop_terms[1] * den)


def int_out_finite(rep: LinearRep, u: IntConfig) -> Fraction:
    """Mass on all finite words: ``finite_mass . u``, solving what ``u`` reaches."""
    nums, den = u
    solved = solve_finite_mass(rep, [k for k, x in enumerate(nums) if x])
    by_block: dict[int, int] = {}
    for k, x in enumerate(nums):
        if x:
            (block, block_den), position = solved[k]
            by_block[block_den] = by_block.get(block_den, 0) + block[position] * x
    return sum([Fraction(acc, block_den * den) for block_den, acc in by_block.items()], _ZERO)


def finite_mass_vector(rep: LinearRep) -> Config:
    """Per-state probability of eventually stopping: the mass on finite words.

    The least nonnegative solution of the fixed-point system
    s = l_star + (sum_a M_a)^T s, solved for the states not solved yet
    and cached on the representation (``solve_finite_mass``).
    """
    solved = solve_finite_mass(rep, range(rep.dim))
    return tuple(Fraction(block[position], den) for (block, den), position in solved)


def int_difference(u: IntConfig, v: IntConfig) -> list[int]:
    """An integer vector with the direction of u - v (a positive multiple of it)."""
    (a, d), (b, e) = u, v
    g = gcd(d, e)
    d, e = d // g, e // g
    return [x * e - y * d for x, y in zip(a, b)]


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


def solve_finite_mass(rep: LinearRep, support: Iterable[int]) -> list:
    """Solve, once, the finite mass of every unsolved state reachable from
    ``support``; returns the per-state ``(block, position)`` cache.

    The unsolved states reached form one block, solved by one sparse
    elimination with the solved states they reach as constants.
    """
    combined, common, star, star_den, solved = rep._mass_cache
    stack = [k for k in support if solved[k] is None]
    reached = set(stack)
    while stack:
        for j in combined[stack.pop()]:
            if j not in reached and solved[j] is None:
                reached.add(j)
                stack.append(j)
    if not reached:
        return solved
    states = sorted(reached)
    local = {k: i for i, k in enumerate(states)}
    m = len(states)

    # live: stops, or reaches a live state of the block or a solved state of
    # positive mass; fixed[j] is the mass of a solved neighbour times const
    sources: dict[int, list[int]] = {k: [] for k in states}
    masses: dict[int, tuple[int, int]] = {}
    live = {k for k in states if star[k]}
    for k in states:
        for j in combined[k]:
            if j in local:
                sources[j].append(k)
            else:
                (block, block_den), position = solved[j]
                masses[j] = block[position], block_den
                if block[position]:
                    live.add(k)
    const = lcm(*(block_den for _, block_den in masses.values()))
    fixed = {j: x * (const // block_den) for j, (x, block_den) in masses.items()}
    stack = list(live)
    while stack:
        for source in sources[stack.pop()]:
            if source not in live:
                live.add(source)
                stack.append(source)

    # a dead state's row is s_k = 0; the row of a live state k, times
    # common * star_den * const, has the live block states on the left and
    # star_k and the solved neighbours on the right-hand side (key m)
    rows: list[dict[int, int]] = [{i: 1} for i in range(m)]
    for k in live:
        row = rows[local[k]] = {local[k]: common * star_den * const}
        rhs = common * star[k] * const
        for j, q in combined[k].items():
            if j in live:
                x = row.get(local[j], 0) - q * star_den * const
                if x:
                    row[local[j]] = x
                else:
                    del row[local[j]]
            elif j in fixed:
                rhs += q * star_den * fixed[j]
        if rhs:
            row[m] = rhs
    nums, den = _solve_sparse(rows, m)

    # exact fixed point and probability range, as a guard on the solver
    for i, k in enumerate(states):
        if not 0 <= nums[i] <= den:
            raise SingularRestrictedSystem(f"mass out of [0, 1] for state index {k}")
        inflow = sum(q * (nums[local[j]] * const if j in local else fixed[j] * den)
                     for j, q in combined[k].items())
        if nums[i] * common * star_den * const != \
                star[k] * den * common * const + inflow * star_den:
            raise SingularRestrictedSystem("fixed-point equation violated")
    block = nums, den
    for i, k in enumerate(states):
        solved[k] = block, i
    return solved


def checked_ints(dim: int, u: Config) -> IntConfig:
    if len(u) != dim:
        raise ValueError(f"configuration has length {len(u)}, expected {dim}")
    return to_ints(u)


def dirac(rep: LinearRep, state: str) -> Config:
    """Unit basis vector of a state."""
    index = rep.state_index(state)
    return tuple(_ONE if j == index else _ZERO for j in range(rep.dim))


def step(rep: LinearRep, u: Config, letter: str) -> Config:
    """One transition: the exact matrix-vector product ``M_letter . u``."""
    return from_ints(int_step(rep, checked_ints(rep.dim, u), letter))

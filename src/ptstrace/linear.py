"""Determinized linear view of a transition system.

Weighted state vectors (configurations) carry the dynamics as exact linear
algebra: one transition operator per letter plus two output rows, the
all-ones total-mass row and the termination row.  Configurations are plain
tuples of Fractions; entries may be negative or exceed 1, since the
equivalence checker works with differences and scalings of distributions.
Output values are read by ``measure`` alone, through the kernel readers
here (``scaled_out_term`` over the denominator of ``LinearRep.stop_row``,
``int_out_finite``); the equivalence checker tests an output of a
difference for zero (``scaled_out_term``).

Internally everything runs on one sparse integer kernel.  Each letter is
stored once, as its ``Step`` in ``LinearRep.steps``: sparse columns, one
per source state, of ``(target, p)`` pairs with integer ``p`` over one
common denominator for the letter.  A vector inside the kernel is sparse
(``Sparse``): a dict from index to a nonzero integer.  A configuration is
such a vector over one positive common denominator, in lowest terms
wherever one is returned or kept (``to_ints``, which checks the length,
and ``from_ints`` convert), as is the termination row,
``LinearRep.stop_row``.  Every step is one product, ``_product``, over the
nonzero entries only, dropping entries that cancel, with one rule: it
sums into a dense list when the vector holds more than a quarter of the
states, where a list index costs less than a dict's membership test per
term, and into a dict otherwise.  ``int_walk`` walks a word, reading each
letter's step as it comes and reducing the terms at the end, and between
letters only once the denominator has doubled its bits.  The equivalence
checker's differences need only their direction: ``scaled_step`` steps
one with no denominator or gcd, reporting the factor it scaled the true
step by.  It and ``int_step``, the one-letter walk, take a ``Step``.

The mass on finite words, the least nonnegative fixed point of
``s = l_star + (sum_a M_a)^T s``, is cached on the representation, each
state solved once: a query solves the unsolved states its vector reaches,
found in one walk, as one block with the solved states they reach as
constants, by sparse fraction-free elimination in Markowitz order (fewest
rows per cleared column first, which keeps fill-in low).  The walk reads
each state's one-step row over all letters, built the first time a solve
reaches the state and kept.  Each cache entry is the state's own value as
a ``(numerator, denominator)`` pair; only this module reads them
(``int_out_finite``, ``finite_mass_vector``).

That elimination and the congruence basis of ``equivalence`` share one
pivot step, ``eliminate`` (Bareiss's fraction-free step, in place), which
reports its factor, content and new columns so each caller keeps its own
scale or index.

Matrix convention: ``mats[a][j][k]`` is the probability of moving from the
k-th state to the j-th state on letter ``a``.  Columns are source states,
so one step of a column vector u is the product ``M_a . u`` and the column
of ``M_a`` at a state equals the step image of that state's unit vector.
The transpose convention is equally common elsewhere; everything here
assumes columns-are-sources.  ``mats`` is a Fraction view derived on
first use, which the kernel never reads; it and ``ptstrace rep``, which
prints formatted entries, share the one dense layout ``LinearRep.dense``,
made one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from math import gcd, lcm
from numbers import Rational
from typing import Callable, Iterable, Iterator

from .model import Pts, UnknownIdentifier

Config = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
IntVector = tuple[int, ...]
# index -> nonzero integer entry; a zero entry is never stored
Sparse = dict[int, int]
# a sparse integer vector and its positive common denominator, in lowest terms
IntConfig = tuple[Sparse, int]
# per source state: the (target index, integer numerator) pairs of nonzero moves
Columns = tuple[tuple[tuple[int, int], ...], ...]
# a letter's columns and their common denominator
Step = tuple[Columns, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SingularRestrictedSystem(RuntimeError):
    """The finite-mass solve failed: the restricted termination system was
    singular, or a solved mass broke the exact range or fixed-point guard.

    Cannot happen for a valid system; raised only on an internal invariant breach.
    """


@dataclass(frozen=True)
class LinearRep:
    """Linear representation of a system: the termination row and one
    sparse transition operator per letter, indexed in declared state order.

    ``stop_row`` is ``l_star``, each state's stop probability, as sparse
    integers over their least common denominator; ``steps[a]`` is the
    letter's ``Step``, ``(columns, d)``, in alphabet order, where
    ``columns[k]`` lists the ``(j, p)`` pairs with ``p / d`` the
    probability of moving from the k-th to the j-th state on ``a``.  The
    total-mass row ``l_one`` is all ones, as each state's masses sum to 1.
    Immutable after construction apart from caches of derived values;
    safe to share between threads, as the caches only grow: a state's
    finite mass and its combined one-step row are each stored in one
    assignment, and an exact value, once cached, never changes.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    stop_row: IntConfig
    steps: dict[str, Step]

    @property
    def dim(self) -> int:
        return len(self.states)

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise UnknownIdentifier(f"undeclared state {state!r}") from None

    @cached_property
    def mats(self) -> dict[str, Matrix]:
        """Dense Fraction matrices, ``mats[a][j][k]``, derived from the steps:
        a view for callers, which the package itself never reads."""
        return {letter: tuple(map(tuple, self.dense(letter, Fraction, _ZERO)))
                for letter in self.alphabet}

    def dense(self, letter: str, cell: Callable[[int, int], object], zero) -> Iterator[list]:
        """A letter's matrix laid out densely, one row ``[j]`` at a time:
        ``cell(p, d)`` at k for each move ``(j, p)`` of the k-th state's
        column, d the letter's denominator, ``zero`` elsewhere; ``cell`` is
        called once per distinct numerator, before the first row.  An
        undeclared letter raises at the call."""
        try:
            columns, d = self.steps[letter]
        except KeyError:
            raise UnknownIdentifier(f"undeclared letter {letter!r}") from None
        by_row, cells = [{} for _ in range(self.dim)], {}
        for k, column in enumerate(columns):
            for j, p in column:
                if (x := cells.get(p)) is None:
                    x = cells[p] = cell(p, d)
                by_row[j][k] = x
        return (list(map(row.get, range(self.dim), repeat(zero))) for row in by_row)

    @cached_property
    def _mass_cache(self) -> tuple[list, int, list, tuple[tuple[Columns, int], ...]]:
        """The finite-mass cache, ``(combined, common, solved, moving)``.

        ``moving`` holds each letter with a move, in alphabet order, as its
        columns and its scale to the common denominator ``common``.
        ``combined[k]`` is None until a solve first reaches the k-th state;
        then ``combined[k][j] / common`` is the one-step probability from the
        k-th to the j-th state over all letters, built from that state's
        moves in alphabet order and stored in one assignment.  ``solved[k]``
        is the k-th state's finite mass as a ``(numerator, denominator)``
        pair once it is solved.
        """
        common = lcm(*[d for _, d in self.steps.values()])
        moving = tuple((columns, common // d) for columns, d in self.steps.values()
                       if any(columns))
        return [None] * self.dim, common, [None] * self.dim, moving


def build_rep(pts: Pts) -> LinearRep:
    """Determinize a valid Pts into its linear representation, from its stops and
    rows, in O(moves + |alphabet| * n) with the |alphabet| * n part at C speed."""
    # a letter's denominator is the lcm of its moves' distinct denominators
    distinct = [set() for _ in pts.alphabet]
    for row in pts.rows:
        for (a, _), (numerator, denominator) in row.items():
            if numerator:
                distinct[a].add(denominator)
    denominators = [lcm(*ds) for ds in distinct]
    scales = [{d: m // d for d in ds} for m, ds in zip(denominators, distinct)]
    # each letter's columns fill one [()] * n, or stay ((),) * n with no moves
    filled = [[()] * len(pts.states) if ds else ((),) * len(pts.states) for ds in distinct]
    for k, row in enumerate(pts.rows):
        by_letter = {}
        for (a, j), (numerator, denominator) in row.items():
            if numerator:
                by_letter.setdefault(a, []).append((j, numerator * scales[a][denominator]))
        for a, column in by_letter.items():
            filled[a][k] = tuple(column)
    den = lcm(*[d for _, d in pts.stops])
    stop_row = {k: n * (den // d) for k, (n, d) in enumerate(pts.stops) if n}, den
    return LinearRep(states=pts.states, alphabet=pts.alphabet, stop_row=stop_row,
                     steps=dict(zip(pts.alphabet, zip(map(tuple, filled), denominators))))


def to_ints(u: Config, dim: int) -> IntConfig:
    """A Fraction configuration of length ``dim`` as sparse integers over
    their least common denominator; the shared ``_ZERO`` entries of
    ``dirac`` are skipped by identity."""
    if len(u) != dim:
        raise ValueError(f"configuration has length {len(u)}, expected {dim}")
    # a zero entry is type-checked too, and dropped only after
    entries = [(k, x) for k, x in enumerate(u) if x is not _ZERO]
    try:
        denominator = lcm(*(x.denominator for _, x in entries))
    except AttributeError:
        k, x = next((k, x) for k, x in entries if not isinstance(x, Rational))
        raise TypeError(f"configuration entry {k} is a {type(x).__name__}, not rational") from None
    return {k: n * (denominator // x.denominator)
            for k, x in entries if (n := x.numerator)}, denominator


def from_ints(u: IntConfig, dim: int) -> Config:
    nums, denominator = u
    return tuple(Fraction(nums[k], denominator) if k in nums else _ZERO for k in range(dim))


def _product(columns: Columns, nums: Sparse) -> Sparse:
    # the integer numerators of M . nums, over the letter's denominator: the
    # one product every step calls, summed into a list when nums holds more
    # than a quarter of the states, into a dict otherwise
    return (_dense_product if 4 * len(nums) > len(columns) else _sparse_product)(columns, nums)


def _sparse_product(columns: Columns, nums: Sparse) -> Sparse:
    acc: Sparse = {}
    for k, x in nums.items():
        for j, p in columns[k]:
            if j in acc:
                acc[j] += p * x
            else:
                acc[j] = p * x
    return acc if all(acc.values()) else {j: x for j, x in acc.items() if x}


def _dense_product(columns: Columns, nums: Sparse) -> Sparse:
    # a list accumulator, its nonzeros read back in index order
    acc = [0] * len(columns)
    for k, x in nums.items():
        for j, p in columns[k]:
            acc[j] += p * x
    return dict(compress(enumerate(acc), acc))


def int_walk(rep: LinearRep, u: IntConfig, word: Iterable[str]) -> IntConfig:
    """``M_w . u`` on the integer kernel, in lowest terms: one product per
    letter of ``w``, left to right, each read from ``rep.steps``.  The terms
    are reduced at the end, and before a letter only once the denominator
    has over twice the bits it had after the last reduction (at first, the
    start's)."""
    nums, den = u
    bound = 2 * den.bit_length()
    for letter in word:
        if den.bit_length() > bound:
            nums, den = _lowest(nums, den)
            bound = 2 * den.bit_length()
        try:
            columns, denominator = rep.steps[letter]
        except KeyError:
            raise UnknownIdentifier(f"undeclared letter {letter!r}") from None
        nums = _product(columns, nums)
        den *= denominator
    return _lowest(nums, den)


def _lowest(nums: Sparse, den: int) -> IntConfig:
    g = gcd(den, *nums.values())
    return ({j: x // g for j, x in nums.items()}, den // g) if g > 1 else (nums, den)


def int_step(step: Step, u: IntConfig) -> IntConfig:
    """``M . u`` in lowest terms for a letter's ``Step``: the one-letter ``int_walk``."""
    return _lowest(_product(step[0], u[0]), u[1] * step[1])


def moving_sources(step: Step) -> frozenset[int]:
    """The sources with a move on a letter's ``Step``, found at C speed: a
    vector that holds none of them steps to zero."""
    columns = step[0]
    return frozenset(compress(range(len(columns)), columns))


def scaled_step(step: Step, scaled: tuple[Sparse, int, int]) -> tuple[Sparse, int, int]:
    """A step of a direction and its scale by a letter's ``Step``, ``(columns,
    a)``: ``(d, num, den)`` steps to ``(a M . d, num * a, den)``, with no
    content divided out (``record`` makes the rows it keeps primitive)."""
    (columns, denominator), (d, num, den) = step, scaled
    return _product(columns, d), num * denominator, den


def scaled_out_term(rep: LinearRep, nums: Sparse) -> int:
    """``l_star . nums`` times the common denominator of ``l_star``.

    An integer that is zero exactly when the termination output is.
    """
    star = rep.stop_row[0]
    return sum([star[k] * x for k, x in nums.items() if k in star])


def int_out_finite(rep: LinearRep, u: IntConfig) -> Fraction:
    """Mass on all finite words: ``finite_mass . u``, solving what ``u`` reaches."""
    nums, den = u
    solved = solve_finite_mass(rep, nums)
    by_den: dict[int, int] = {}
    for k, x in nums.items():
        value, value_den = solved[k]
        by_den[value_den] = by_den.get(value_den, 0) + value * x
    return sum([Fraction(acc, value_den * den) for value_den, acc in by_den.items()], _ZERO)


def finite_mass_vector(rep: LinearRep) -> Config:
    """Per-state probability of eventually stopping: the mass on finite words.

    The least nonnegative solution of the fixed-point system
    s = l_star + (sum_a M_a)^T s, solved for the states not solved yet
    and cached on the representation (``solve_finite_mass``).
    """
    solved = solve_finite_mass(rep, range(rep.dim))
    return tuple(Fraction(value, den) for value, den in solved)


def int_difference(u: IntConfig, v: IntConfig) -> Sparse:
    """A sparse integer vector with the direction of u - v (a positive multiple of it)."""
    (a, d), (b, e) = u, v
    g = gcd(d, e)
    s, t = e // g, d // g
    return {k: x for k in a.keys() | b.keys() if (x := a.get(k, 0) * s - b.get(k, 0) * t)}


def primitive(row: Sparse) -> Sparse:
    """A sparse integer row divided by its content (the gcd of its entries)."""
    content = gcd(*row.values())
    return {j: x // content for j, x in row.items()} if content > 1 else row


def eliminate(w: Sparse, row: Sparse, col: int) -> tuple[int, int, list[int]]:
    """Clear ``w[col]`` by ``row``, fraction-free, in place: the one pivot step.

    w becomes ``((p/g) w - (c/g) row) / content``, where ``p = row[col]``,
    ``c = w[col]`` and ``g = gcd(p, c)``: a nonzero multiple of w minus a
    multiple of row, positive when ``p`` is.  It is scaled only when the
    factor ``p/g`` is not 1, and divided by its content only after such a
    scaling (the content is 1 otherwise).  Returns ``(p/g, content,
    appeared)``, ``appeared`` the columns of row that entered w.
    """
    p, c = row[col], w[col]
    g = gcd(p, c)
    factor, c = p // g, -(c // g)
    if factor != 1:
        for j, x in w.items():
            w[j] = factor * x
    # w += c * row, now c = -w[col]/g, dropping the entries that cancel
    appeared = []
    for j, y in row.items():
        if j not in w:
            w[j] = c * y
            appeared.append(j)
        elif x := w[j] + c * y:
            w[j] = x
        else:
            del w[j]
    if factor != 1 and (content := gcd(*w.values())) > 1:
        for j, x in w.items():
            w[j] = x // content
        return factor, content, appeared
    return factor, 1, appeared


def _solve_sparse(rows: list[Sparse], m: int) -> tuple[IntVector, int]:
    """Exact solution of a square nonsingular integer system, as integers
    over one common denominator in lowest terms.

    Row i is a dict of column -> coefficient, with the right-hand side under
    key m; the rows are reduced in place.  Fraction-free forward
    elimination in Markowitz order: each step clears the column held by
    the fewest remaining rows, pivoting on its shortest row (ties to the
    smaller index), which keeps fill-in low on the sparse systems built
    here.  A column -> rows index and a heap with lazily dropped stale
    counts find that column without scanning; the index follows the
    columns each elimination adds to or cancels in its target.  Back
    substitution stays in integers over one common denominator.
    """
    rows = [primitive(row) for row in rows]
    holders: list[set[int]] = [set() for _ in range(m + 1)]  # holders[m] is unread
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    heap = [(len(held), j) for j, held in enumerate(holders[:m])]
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
        for j in pivot_row:
            holders[j].discard(pivot)
        # every other row holding col is reduced by the pivot row; none of
        # them holds col afterwards, so its index entry starts empty
        targets, holders[col] = holders[col], set()
        for i in targets:
            row = rows[i]
            for j in eliminate(row, pivot_row, col)[2]:
                holders[j].add(i)
            for j in pivot_row:
                if j not in row:
                    holders[j].discard(i)
        # a target gains or loses only columns of the pivot row
        for j in pivot_row:
            if j != m and not cleared[j]:
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
    ``support``; returns the per-state ``(numerator, denominator)`` cache.

    The unsolved states reached form one block, solved by one sparse
    elimination with the solved states they reach as constants.  One walk
    finds the block, each block state's sources inside it, the solved
    states it reaches and the live seeds, which stop or reach a solved
    state of positive mass; the block states that reach no seed are dead.
    """
    combined, common, solved, moving = rep._mass_cache
    star, star_den = rep.stop_row
    sources: dict[int, list[int]] = {k: [] for k in support if solved[k] is None}
    stack, masses, live = list(sources), {}, set()
    while stack:
        k = stack.pop()
        if k in star:
            live.add(k)
        if (row := combined[k]) is None:
            # the state's combined row, built on first visit
            row = {}
            for columns, scale in moving:
                for j, p in columns[k]:
                    row[j] = row.get(j, 0) + p * scale
            combined[k] = row
        for j in row:
            if (value := solved[j]) is not None:
                masses[j] = value
                if value[0]:
                    live.add(k)
            elif j in sources:
                sources[j].append(k)
            else:
                sources[j] = [k]
                stack.append(j)
    if not sources:
        return solved
    states = sorted(sources)
    local = {k: i for i, k in enumerate(states)}
    m = len(states)
    # fixed[j] is the mass of a solved neighbour times const
    const = lcm(*(value_den for _, value_den in masses.values()))
    fixed = {j: x * (const // value_den) for j, (x, value_den) in masses.items()}
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
        rhs = common * star.get(k, 0) * const
        for j, q in combined[k].items():
            if j in live:
                row[local[j]] = row.get(local[j], 0) - q * star_den * const
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
                star.get(k, 0) * den * common * const + inflow * star_den:
            raise SingularRestrictedSystem("fixed-point equation violated")
    for i, k in enumerate(states):
        solved[k] = nums[i], den
    return solved


def dirac(rep: LinearRep, state: str) -> Config:
    """Unit basis vector of a state."""
    index = rep.state_index(state)
    return (_ZERO,) * index + (_ONE,) + (_ZERO,) * (rep.dim - index - 1)


def step(rep: LinearRep, u: Config, letter: str) -> Config:
    """One transition: the exact matrix-vector product ``M_letter . u``."""
    return from_ints(int_walk(rep, to_ints(u, rep.dim), (letter,)), rep.dim)

"""Trace-equivalence decision procedures on the determinized linear view.

Four variants share one breadth-first loop and differ only in their store,
which decides what an item is and how a candidate pair is discharged
before its outputs are compared: exact pair lookup (naive) or
equivalence closure via union-find (hk), both keyed on a hashable form of
the configuration pair, or membership of the difference vector in the
linear span of previously recorded differences (the hkc variants).  Span
membership, both output tests and the successors of a pair
(``M_a u - M_a v = M_a (u - v)``) are linear in u - v, so the hkc variants
carry one sparse difference vector per pair instead of two configurations,
stepped with no gcd.  A step reads the letter's ``Step`` from
``LinearRep.steps``, each letter paired with its step once before the
loop, and sums by the kernel's one accumulator rule, as a walk does.

The loop walks the recorded items in record order and steps each by every
letter in alphabet order, the order a FIFO worklist would extract them in,
with nothing queued: extraction 0 is the start pair and extraction ``1 + k
|alphabet| + i`` steps the k-th recorded item by the i-th letter, so
``iterations`` counts the extractions.  A run keeps one (parent, letter)
per recorded item and returns them with its result; a trace is rebuilt
from them and the result's count after the run, every extraction
included.  In the hkc variants an item whose difference holds no
source that moves on a letter steps to zero, which is always related: that
extraction is counted as skipped with no step and no record, and a letter
that moves no source is never visited.  naive and hk step every letter,
since naive records the empty pair the first time it meets it.  Each store
has one operation, ``record``, which records an item and returns the item
the run steps by each letter in turn, or None for an item already related.
For the hkc variants one reduction of the difference against the basis both
tests membership and records the pair, as a row written once in echelon
form, and the run steps the new row or the difference, whichever has fewer
bits in all.  Either choice gives the same run: the row is a nonzero
multiple of the difference minus earlier rows, and breadth-first order
extracts the successors of the earlier stepped vectors first, so an
extracted vector d is ``c M_w (e_x - e_y) + z`` for its word w, a rational
c != 0 and a z in the span, on which every checked output vanishes.  So
every test answers as for the true difference, and with c carried exactly a
counterexample costs one walk: ``lhs`` is read from x's unit vector along
the witness and ``rhs = lhs - o(d) / c`` for the separating output o (naive
and hk read both from their pair).  Every run has a step budget.  Each
recorded pair strictly increases the rank of the difference basis, at most
the dimension, so an hkc run's budget is that proven bound,
1 + |alphabet| * dim extractions, and a run that spends it raises
``InvariantError``; naive and hk can run forever on the weighted state
space and take the caller's.

A run checks a tuple of output rows in order: (total mass, termination)
decides equality of the full measures on finite and infinite words, and
hkc_finite's (termination,) decides finite-trace equivalence only.  The
breadth-first order and the declared alphabet order make runs
deterministic and counterexample words shortest possible.  With ``debug``
an hkc verdict is checked once, after the run: an ``Equivalent`` by its
certificate, the final rows, whose span is a bisimulation up to congruence,
and a ``NotEquivalent`` by walking both states along the witness again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .linear import (Config, IntConfig, LinearRep, Sparse, Step, eliminate,
                     from_ints, int_difference, int_step, moving_sources,
                     scaled_out_term, scaled_step, to_ints)
from .measure import Cone, FiniteWord, int_measure
from .model import Word


class InvariantError(RuntimeError):
    """An internal bound or invariant of a decision run was broken.

    Never caused by input; raised only on a bug in this package.
    """


class OutputKind(Enum):
    """Which output row a counterexample word separates."""

    TOTAL_MASS = "total_mass"
    TERMINATION = "termination"

    def target(self, word: Word) -> Cone | FiniteWord:
        """The word set whose measure is this row after ``word``."""
        return Cone(word) if self is OutputKind.TOTAL_MASS else FiniteWord(word)


@dataclass(frozen=True)
class Equivalent:
    iterations: int
    relation_size: int


@dataclass(frozen=True)
class NotEquivalent:
    witness: Word
    output: OutputKind
    lhs: Fraction
    rhs: Fraction
    iterations: int
    relation_size: int


@dataclass(frozen=True)
class Inconclusive:
    steps_exhausted: int
    relation_size: int


EquivResult = Equivalent | NotEquivalent | Inconclusive
_ALL_OUTPUTS = (OutputKind.TOTAL_MASS, OutputKind.TERMINATION)  # the full measure's rows


@dataclass(frozen=True)
class Extraction:
    """One extraction of a run, rebuilt from the run's parents after the run.

    ``left`` and ``right`` are the configurations reached from the two
    states along ``word``, stepped from its parent's: the hkc variants carry
    only their difference.
    """

    word: Word
    left: Config
    right: Config
    skipped: bool


class CongruenceBasis:
    """Row-echelon basis of difference vectors, each row written once.

    Spans the set of differences u - v over all pairs (u, v) in the
    congruence closure of the inserted pairs; a pair belongs to the closure
    exactly when its difference reduces to zero against the rows.  The basis
    is one map, in insertion order, from each pivot column to its row: a
    sparse primitive integer vector (column -> entry, content 1, positive
    pivot entry) that is zero below its pivot, its smallest column, and is
    never rewritten.  By pivot the rows are in echelon form, so a reduction
    reads only the rows whose pivots its vector holds; it is fraction-free,
    the package's one pivot step ``linear.eliminate``: ``w := (r[p]/g) w -
    (w[p]/g) r`` with ``g = gcd(r[p], w[p])`` clears pivot p of w by its
    row r.  ``rows`` is a view derived on demand: the unique reduced
    row-echelon form of the span (Fraction rows, pivot entries 1), which
    membership never needs.

    It is the hkc variants' pair store.  An item (``item``) is
    ``(d, num, den)``: a sparse difference vector, not always primitive, that
    is ``num / den`` times its pair's u - v plus a vector of the span, stepped
    with ``scaled_step``.  ``record`` returns the item to step in d's place,
    the stored row itself when its entries take no more bits in all, or None
    when d was already in the span; a d that holds no pivot is its own
    residual, and its own row too when primitive with a positive first entry.
    No item or row is written once made, so none is copied.  ``insert`` and
    ``contains`` take Fraction configurations from outside a run and raise
    ``ValueError`` on a wrong length.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list[Fraction]]:
        # back-substitution, newest row first, by the rows already reduced
        reduced = {}
        for pivot, row in reversed(self._rows.items()):
            out = [Fraction(row.get(j, 0), row[pivot]) for j in range(self.dim)]
            for p, done in reduced.items():
                if c := out[p]:
                    out = [a - c * b for a, b in zip(out, done)]
            reduced[pivot] = out
        return [reduced[p] for p in sorted(reduced)]

    def _reduce(self, d: Sparse) -> tuple[Sparse, int, int]:
        """``(w, num, den)``: w is ``num / den`` times d minus its component
        in the span, a new dict, or d itself, not copied, when d holds no
        pivot.  Clearing a pivot changes only larger columns, so w's pivots
        are cleared smallest first, from a heap.  Each step is ``eliminate``,
        which divides out w's content after a scaling, or w would grow by a
        pivot entry's bits at every step."""
        rows = self._rows
        heap = [j for j in d if j in rows]
        if not heap:
            return d, 1, 1
        w, num, den = dict(d), 1, 1
        heapify(heap)
        while heap:
            pivot = heappop(heap)
            if pivot not in w:  # cancelled after it was pushed
                continue
            factor, content, appeared = eliminate(w, rows[pivot], pivot)
            num *= factor
            den *= content
            for j in appeared:
                if j in rows:
                    heappush(heap, j)
        return w, num, den

    def record(self, d: Sparse, num: int, den: int) -> tuple[Sparse, int, int] | None:
        """Record a difference vector: add d to the span.

        One reduction both tests membership and records the pair; returns
        None, leaving the basis unchanged, when d was already inside.
        Otherwise it returns the item a run steps in d's place, uncopied:
        the stored row or d, whichever has the smaller total size, the sum
        of its entries' bit lengths (ties go to the row), with its scale
        (``num / den`` for d).  The row is zero below its pivot, so it is
        often the smaller even when its largest entry is not.  A residual is
        stored as it is when primitive with a positive pivot entry; a d that
        holds no pivot is its residual, so its row is d over its signed
        content, never the larger, and is returned with no sizes summed.
        """
        residual, multiple, divisor = self._reduce(d)
        if not residual:
            return None
        # the smallest index: the first nonzero entry of the dense vector
        pivot = min(residual)
        content = gcd(*residual.values())
        if residual[pivot] < 0:
            content = -content
        # the row is multiple / (divisor * content) times d plus a span vector
        row = self._rows[pivot] = residual if content == 1 else {
            j: x // content for j, x in residual.items()}
        if residual is d or sum(map(int.bit_length, row.values())) <= sum(
                map(int.bit_length, d.values())):
            return row, num * multiple, den * divisor * content
        return d, num, den

    def _pair_difference(self, u: Config, v: Config) -> Sparse:
        return int_difference(to_ints(u, self.dim), to_ints(v, self.dim))

    def contains(self, u: Config, v: Config) -> bool:
        """True iff u - v lies in the span of the recorded differences."""
        return not self._reduce(self._pair_difference(u, v))[0]

    def insert(self, u: Config, v: Config) -> bool:
        """Add u - v to the span; returns False when it was already inside."""
        return self.record(self._pair_difference(u, v), 1, 1) is not None

    # the item of a pair is its difference with the scale of u - v

    @staticmethod
    def item(u: IntConfig, v: IntConfig) -> tuple[Sparse, int, int]:
        return int_difference(u, v), lcm(u[1], v[1]), 1

    successor = staticmethod(scaled_step)
    # an item whose d holds no source that moves on a letter steps to zero
    moving = staticmethod(moving_sources)

    @staticmethod
    def difference(item) -> Sparse:
        return item[0]

    @staticmethod
    def values(rep: LinearRep, x: IntConfig, word: Word, item, kind) -> tuple[Fraction, Fraction]:
        # lhs - rhs is the item's output over its scale
        lhs = int_measure(rep, x, kind.target(word))
        return lhs, lhs - int_measure(rep, (item[0], 1), kind.target(())) / Fraction(*item[1:])


class _PairItems:
    """The item of a pair is the pair of configurations itself."""

    @staticmethod
    def item(u: IntConfig, v: IntConfig) -> tuple[IntConfig, IntConfig]:
        return u, v

    @staticmethod
    def successor(step: Step, pair) -> tuple[IntConfig, IntConfig]:
        return int_step(step, pair[0]), int_step(step, pair[1])

    @staticmethod
    def moving(step: Step) -> None:
        # every letter is stepped: naive records the empty pair once
        return None

    @staticmethod
    def difference(pair) -> Sparse:
        return int_difference(*pair)

    @staticmethod
    def values(rep: LinearRep, x: IntConfig, word: Word, pair, kind) -> tuple[Fraction, Fraction]:
        return tuple(int_measure(rep, u, kind.target(())) for u in pair)


def _key(u: IntConfig) -> tuple[frozenset, int]:
    # hashable, and equal exactly when the configurations are: terms are
    # lowest and no zero is stored
    return frozenset(u[0].items()), u[1]


class _PairStore(_PairItems):
    """Exact pair lookup: the naive membership test."""

    def __init__(self):
        self._pairs: set[tuple[tuple, tuple]] = set()

    def record(self, u: IntConfig, v: IntConfig) -> tuple[IntConfig, IntConfig] | None:
        key = _key(u), _key(v)
        if key in self._pairs:
            return None
        self._pairs.add(key)
        return u, v


class _EquivalenceStore(_PairItems):
    """Reflexive-symmetric-transitive closure via union-find on configuration keys."""

    def __init__(self):
        self._parent: dict[tuple, tuple] = {}

    def _find(self, key: tuple) -> tuple:
        # path halving, a new key its own root; parent[key] is set before key is rebound
        while (up := self._parent.setdefault(key, key)) != key:
            self._parent[key] = key = self._parent.setdefault(up, up)
        return key

    def record(self, u: IntConfig, v: IntConfig) -> tuple[IntConfig, IntConfig] | None:
        root_u, root_v = self._find(_key(u)), self._find(_key(v))
        if root_u == root_v:
            return None
        self._parent[root_u] = root_v
        return u, v


def _separating_output(rep: LinearRep, d, outputs) -> OutputKind | None:
    # each output is linear, so it separates u and v iff it is nonzero on u - v
    for output in outputs:
        if sum(d.values()) if output is OutputKind.TOTAL_MASS else scaled_out_term(rep, d):
            return output
    return None


def _spell(parents: list[tuple[int, str]], k: int) -> Word:
    # the k-th recorded item is reached from item parents[k][0] by parents[k][1]
    word = []
    while k:
        k, letter = parents[k]
        word.append(letter)
    return tuple(reversed(word))


def _extractions(rep: LinearRep, start, parents: list[tuple[int, str]],
                 iterations: int) -> list[Extraction]:
    # every extraction's configuration pair, stepped from its recorded
    # parent's, the ones the run skipped without a step too
    by_letter, dim, recorded = tuple(rep.steps.items()), rep.dim, set(parents[1:])
    pairs, words = [start], [()]
    extractions = [Extraction((), from_ints(start[0], dim), from_ints(start[1], dim),
                              not parents)]
    for node in range(1, iterations):
        k, i = divmod(node - 1, len(by_letter))
        letter, step = by_letter[i]
        (u, v), word = _PairItems.successor(step, pairs[k]), words[k] + (letter,)
        if not (skipped := (k, letter) not in recorded):
            pairs.append((u, v))
            words.append(word)
        extractions.append(Extraction(word, from_ints(u, dim), from_ints(v, dim), skipped))
    return extractions


def _start(rep: LinearRep, x: str, y: str) -> tuple[IntConfig, IntConfig]:
    # unit IntConfigs in lowest terms, as the naive and hk stores key them
    return ({rep.state_index(x): 1}, 1), ({rep.state_index(y): 1}, 1)


def _decide(rep, start, store, outputs, max_steps) -> tuple[EquivResult, list]:
    # extraction 0 is the start and extraction 1 + k |alphabet| + i steps the
    # k-th recorded item by the i-th letter, the order a FIFO worklist would
    # take, with nothing queued; parents[k] = (parent, letter) is all the run
    # keeps of the k-th recorded item's extraction, so words are spelled
    # from the parents only for a witness, and the run returns them with its
    # result.  A letter's moving sources are None for a store that steps
    # every letter; otherwise an item whose difference holds none of them
    # steps to zero, so its extraction is skipped without a step, and a
    # letter with none is never visited
    size = len(rep.steps)
    by_letter = tuple((i, letter, step, moving)
                      for i, (letter, step) in enumerate(rep.steps.items())
                      if (moving := store.moving(step)) is None or moving)
    record, successor, difference = store.record, store.successor, store.difference
    # the recorded items with agreeing outputs, each with its difference's
    # support: the relation built so far
    relation: list = []
    parents: list[tuple[int, str]] = []

    def related(stepped, parent: int, letter: str | None,
                iterations: int) -> NotEquivalent | None:
        # a recorded item joins the relation unless an output separates it;
        # iterations counts the extractions taken, this one included
        parents.append((parent, letter))
        if output := _separating_output(rep, d := difference(stepped), outputs):
            word = _spell(parents, len(parents) - 1)
            lhs, rhs = store.values(rep, start[0], word, stepped, output)
            return NotEquivalent(word, output, lhs, rhs, iterations, len(relation))
        relation.append((stepped, d.keys()))
        return None

    # membership before the outputs: a skipped item costs its step and the test only
    if (stepped := record(*store.item(*start))) is not None and (
            found := related(stepped, 0, None, 1)):
        return found, parents
    # the relation grows while it is walked: every item is reached
    for k, (item, support) in enumerate(relation):
        for i, letter, step, moving in by_letter:
            if (iterations := 2 + k * size + i) > max_steps:
                return Inconclusive(max_steps, len(relation)), parents
            if moving is not None and support.isdisjoint(moving):
                continue
            if (stepped := record(*successor(step, item))) is not None and (
                    found := related(stepped, k, letter, iterations)):
                return found, parents
    if (iterations := 1 + size * len(relation)) > max_steps:
        return Inconclusive(max_steps, len(relation)), parents
    return Equivalent(iterations, len(relation)), parents


def _budgeted(rep, x, y, store, outputs, max_steps, trace) -> EquivResult:
    # an integer, or the run, which stops on node == max_steps, never ends
    if (max_steps := operator.index(max_steps)) < 1:
        raise ValueError("max_steps must be >= 1")
    start = _start(rep, x, y)
    result, parents = _decide(rep, start, store, outputs, max_steps)
    if trace is not None:
        # every extraction the result counts, a witness's included
        taken = result.steps_exhausted if isinstance(result, Inconclusive) else result.iterations
        trace.extend(_extractions(rep, start, parents, taken))
    return result


def _checked_bound(rep: LinearRep, result: EquivResult) -> EquivResult:
    # a correct hkc run records at most dim pairs and never spends its budget
    if isinstance(result, Inconclusive) or result.relation_size > rep.dim:
        raise InvariantError(f"hkc run exceeded its bound: {result}")
    return result


def _check_certificate(rep: LinearRep, start, basis: CongruenceBasis,
                       result: EquivResult, outputs) -> None:
    if isinstance(result, NotEquivalent):
        lhs, rhs = (int_measure(rep, u, result.output.target(result.witness)) for u in start)
        proved = (lhs, rhs) == (result.lhs, result.rhs) and lhs != rhs and result.output in outputs
    else:
        rows, steps = basis._rows.values(), rep.steps.values()
        proved = (not basis._reduce(int_difference(*start))[0]
                  and all(_separating_output(rep, row, outputs) is None for row in rows)
                  and all(not basis._reduce(scaled_step(step, (row, 1, 1))[0])[0]
                          for row in rows for step in steps))
    if not proved:
        raise InvariantError(f"the hkc verdict fails its check: {result}")


def _hkc(rep, x, y, outputs, debug, trace) -> EquivResult:
    basis = CongruenceBasis(rep.dim)
    budget = 1 + len(rep.alphabet) * rep.dim
    result = _checked_bound(rep, _budgeted(rep, x, y, basis, outputs, budget, trace))
    if debug:
        _check_certificate(rep, _start(rep, x, y), basis, result, outputs)
    return result


def hkc_inf(rep: LinearRep, x: str, y: str, *, debug: bool = False,
            trace: list | None = None) -> EquivResult:
    """Decide equality of the full trace measures of two states.

    Extracts at most ``1 + |alphabet| * dim`` items, the rank bound, or
    raises ``InvariantError``, as ``debug`` does when the verdict's proof,
    checked once after the run (see the module docstring), fails.
    ``trace``, a list, gets every extraction after the run.
    """
    return _hkc(rep, x, y, _ALL_OUTPUTS, debug, trace)


def hkc_finite(rep: LinearRep, x: str, y: str, *, debug: bool = False,
               trace: list | None = None) -> EquivResult:
    """Decide equality on finite words only: the checked rows are ``(TERMINATION,)``."""
    return _hkc(rep, x, y, (OutputKind.TERMINATION,), debug, trace)


def naive(rep: LinearRep, x: str, y: str, max_steps: int, *,
          trace: list | None = None) -> EquivResult:
    """The plain bisimulation search; may exhaust its budget on weighted systems."""
    return _budgeted(rep, x, y, _PairStore(), _ALL_OUTPUTS, max_steps, trace)


def hk(rep: LinearRep, x: str, y: str, max_steps: int, *,
       trace: list | None = None) -> EquivResult:
    """Bisimulation up to equivalence; still budget-bound on weighted systems."""
    return _budgeted(rep, x, y, _EquivalenceStore(), _ALL_OUTPUTS, max_steps, trace)

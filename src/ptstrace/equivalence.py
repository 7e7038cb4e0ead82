"""Trace-equivalence decision procedures on the determinized linear view.

Four variants share one FIFO worklist loop and differ only in their store,
which decides what a worklist item is and how a candidate pair is
discharged before its outputs are compared: exact pair lookup (naive) or
equivalence closure via union-find (hk), both keyed on the configuration
pair itself, or membership of the difference vector in the linear span of
previously recorded differences (the hkc variants).  Span membership, both
output tests and the successors of a pair (``M_a u - M_a v = M_a (u - v)``)
are linear in u - v, so the hkc variants carry one primitive integer
difference vector per pair instead of two configurations; the
configurations that traces report are rebuilt from the word, and
counterexample values are the measures of the witness cone or word.  Each
store has one operation, ``add``, which records an item or refuses one
that is already related; for the hkc variants one reduction of the
difference against the basis both tests membership and records the pair.
The span test is what makes the hkc variants terminate on every finite
system: each recorded pair strictly increases the rank of the difference
basis, and rank is bounded by the dimension.  naive and hk can run
forever on the weighted state space and therefore require a step budget.

Checking both output rows (total mass and termination) decides equality of
the full measures on finite and infinite words; dropping the total-mass
comparison (hkc_finite) decides finite-trace equivalence only.

The breadth-first worklist and the declared alphabet order make runs
deterministic and counterexample words shortest possible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .linear import (Config, IntConfig, IntVector, LinearRep, checked_ints,
                     dirac, eliminate, from_ints, int_difference, int_step,
                     primitive_step, scaled_out_term, to_ints)
from .measure import Cone, FiniteWord, measure
from .model import Word

_ZERO = Fraction(0)


class InvariantError(RuntimeError):
    """An internal bound or invariant of a decision run was broken.

    Never caused by input; raised only on a bug in this package.
    """


class OutputKind(Enum):
    """Which output row a counterexample word separates."""

    TOTAL_MASS = "total_mass"
    TERMINATION = "termination"


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


@dataclass(frozen=True)
class Extraction:
    """One pair taken off the worklist, recorded for run inspection.

    ``left`` and ``right`` are the configurations reached from the two
    states along ``word``, rebuilt from the word: the hkc variants carry
    only their difference.
    """

    word: Word
    left: Config
    right: Config
    skipped: bool


class CongruenceBasis:
    """Reduced row-echelon basis of difference vectors.

    Spans the set of differences u - v over all pairs (u, v) in the
    congruence closure of the inserted pairs; a pair belongs to the closure
    exactly when its difference reduces to zero against the rows.  The basis
    is one map from each pivot column to its row, a sparse primitive integer
    vector (column -> entry, content 1, positive pivot entry) that is zero
    at every other row's pivot.  Elimination is fraction-free: a vector w is
    reduced against a row r with pivot p by
    ``w := (r[p]/g) w - (w[p]/g) r`` with ``g = gcd(r[p], w[p])``.
    ``pivots`` and ``rows`` are views derived on demand: the sorted pivot
    columns and the unique reduced row-echelon form of the span, Fraction
    rows with pivot entries 1 in increasing pivot order.

    It is the hkc variants' pair store.  Membership, both output tests and
    the successors of a pair are linear in u - v, so a worklist item is one
    primitive integer difference vector per pair (``item``), stepped with
    ``primitive_step``; ``add``/``related`` take such a vector, while
    ``insert``/``contains`` take a pair of Fraction configurations.  All
    four raise ``ValueError`` on a vector of the wrong length.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    @property
    def rows(self) -> list[list[Fraction]]:
        dense = []
        for pivot, row in sorted(self._rows.items()):
            out = [_ZERO] * self.dim
            for j, x in row.items():
                out[j] = Fraction(x, row[pivot])
            dense.append(out)
        return dense

    def _reduce(self, d: IntVector) -> list[int]:
        """A positive multiple of d minus its component in the span, as a new list.

        Rows are zero at each other's pivots, so d's pivot entries are
        untouched by the other rows and the order of the steps is free.
        """
        if len(d) != self.dim:
            raise ValueError(f"vector has length {len(d)}, expected {self.dim}")
        w = list(d)
        for pivot, row in self._rows.items():
            c = w[pivot]
            if c:
                r = row[pivot]
                g = gcd(r, c)
                r, c = r // g, c // g
                if r != 1:
                    w = [r * x for x in w]
                for j, y in row.items():
                    w[j] -= c * y
        return w

    def add(self, d: IntVector) -> bool:
        """Record a difference vector: add d to the span.

        One reduction both tests membership and records the pair; returns
        False, leaving the basis unchanged, when d was already inside.
        """
        residual = self._reduce(d)
        pivot = next((j for j, c in enumerate(residual) if c), None)
        if pivot is None:
            return False
        content = gcd(*residual)
        if residual[pivot] < 0:
            content = -content
        new = {j: x // content for j, x in enumerate(residual) if x}
        for p, row in self._rows.items():
            if pivot in row:
                self._rows[p] = eliminate(row, new, pivot)
        self._rows[pivot] = new
        return True

    def related(self, d: IntVector) -> bool:
        """True iff d lies in the span; the basis is left unchanged."""
        return not any(self._reduce(d))

    def _pair_difference(self, u: Config, v: Config) -> list[int]:
        return int_difference(checked_ints(self.dim, u), checked_ints(self.dim, v))

    def contains(self, u: Config, v: Config) -> bool:
        """True iff u - v lies in the span of the recorded differences."""
        return self.related(self._pair_difference(u, v))

    def insert(self, u: Config, v: Config) -> bool:
        """Add u - v to the span; returns False when it was already inside."""
        return self.add(self._pair_difference(u, v))

    # the worklist item of a pair is its difference; the unit vectors a run
    # starts from differ by a primitive vector, and steps keep it primitive

    @staticmethod
    def item(u: IntConfig, v: IntConfig) -> IntVector:
        return tuple(int_difference(u, v))

    successor = staticmethod(primitive_step)

    @staticmethod
    def difference(d: IntVector) -> IntVector:
        return d


class _PairItems:
    """The worklist item of a pair is the pair of configurations itself."""

    @staticmethod
    def item(u: IntConfig, v: IntConfig) -> tuple[IntConfig, IntConfig]:
        return u, v

    @staticmethod
    def successor(rep: LinearRep, pair, letter: str) -> tuple[IntConfig, IntConfig]:
        u, v = pair
        return int_step(rep, u, letter), int_step(rep, v, letter)

    @staticmethod
    def difference(pair) -> list[int]:
        return int_difference(*pair)


class _PairStore(_PairItems):
    """Exact pair lookup: the naive membership test."""

    def __init__(self):
        self._pairs: set[tuple[IntConfig, IntConfig]] = set()

    def add(self, pair: tuple[IntConfig, IntConfig]) -> bool:
        if pair in self._pairs:
            return False
        self._pairs.add(pair)
        return True


class _EquivalenceStore(_PairItems):
    """Reflexive-symmetric-transitive closure via union-find over interned vectors."""

    def __init__(self):
        self._ids: dict[IntConfig, int] = {}
        self._parent: list[int] = []

    def _intern(self, u: IntConfig) -> int:
        node = self._ids.get(u)
        if node is None:
            node = len(self._parent)
            self._ids[u] = node
            self._parent.append(node)
        return node

    def _find(self, node: int) -> int:
        while self._parent[node] != node:
            self._parent[node] = self._parent[self._parent[node]]
            node = self._parent[node]
        return node

    def add(self, pair: tuple[IntConfig, IntConfig]) -> bool:
        u, v = pair
        root_u, root_v = self._find(self._intern(u)), self._find(self._intern(v))
        if root_u == root_v:
            return False
        self._parent[root_u] = root_v
        return True


def _check_loop_invariant(rep: LinearRep, basis: CongruenceBasis, recorded,
                          todo) -> None:
    # every letter-successor of a recorded difference is in the span or
    # still pending
    pending = {d for _, d in todo}
    for d in recorded:
        for letter in rep.alphabet:
            successor = basis.successor(rep, d, letter)
            if not (basis.related(successor) or successor in pending):
                raise InvariantError(
                    "loop invariant violated: recorded pair has an unhandled successor")


def _separating_output(rep: LinearRep, d, check_total_mass: bool) -> OutputKind | None:
    # each output is linear, so it separates u and v iff it is nonzero on u - v
    if check_total_mass and sum(d):
        return OutputKind.TOTAL_MASS
    if scaled_out_term(rep, d):
        return OutputKind.TERMINATION
    return None


def _pair_at(rep: LinearRep, configs: dict, word: Word) -> tuple[IntConfig, IntConfig]:
    # the configurations reached along a traced word, stepped from its
    # parent's: breadth-first order extracts and records the parent first
    if not word:
        return configs[word]
    u, v = configs[word[:-1]]
    return int_step(rep, u, word[-1]), int_step(rep, v, word[-1])


def _decide(rep, x, y, store, *, check_total_mass, max_steps=None,
            trace=None, debug=False) -> EquivResult:
    # configurations are lowest-terms IntConfigs, so equal vectors have
    # equal keys in the naive and hk stores; the store makes its worklist
    # items out of them
    start = to_ints(dirac(rep, x)), to_ints(dirac(rep, y))
    todo = deque()
    todo.append(((), store.item(*start)))
    # the items whose outputs agreed: the relation built so far (an item
    # the store took whose outputs differ ends the run)
    recorded = []
    # with a trace, the configuration pair of each extracted word
    configs = {(): start}
    iterations = 0
    while todo:
        if max_steps is not None and iterations >= max_steps:
            return Inconclusive(steps_exhausted=max_steps, relation_size=len(recorded))
        if debug:
            _check_loop_invariant(rep, store, recorded, todo)
        word, item = todo.popleft()
        iterations += 1
        # membership before the outputs: a skipped item costs the store's test only
        new = store.add(item)
        if trace is not None:
            u, v = configs[word] = _pair_at(rep, configs, word)
            trace.append(Extraction(word, from_ints(u), from_ints(v), not new))
        if not new:
            continue
        output = _separating_output(rep, store.difference(item), check_total_mass)
        if output is not None:
            target = Cone(word) if output is OutputKind.TOTAL_MASS else FiniteWord(word)
            lhs, rhs = (measure(rep, dirac(rep, s), target) for s in (x, y))
            return NotEquivalent(word, output, lhs, rhs, iterations, len(recorded))
        for letter in rep.alphabet:
            todo.append((word + (letter,), store.successor(rep, item, letter)))
        recorded.append(item)
    return Equivalent(iterations=iterations, relation_size=len(recorded))


def _checked_bound(rep: LinearRep, result: EquivResult) -> EquivResult:
    # rank growth bounds every hkc run: at most dim insertions, hence at
    # most 1 + |alphabet| * dim extractions
    if (result.iterations > 1 + len(rep.alphabet) * rep.dim
            or result.relation_size > rep.dim):
        raise InvariantError(f"hkc run exceeded its bound: {result}")
    return result


def hkc_inf(rep: LinearRep, x: str, y: str, *, debug: bool = False,
            trace: list | None = None) -> EquivResult:
    """Decide equality of the full trace measures of two states.

    Always terminates.  ``trace`` (a list, appended in place) records every
    extraction; ``debug`` checks the worklist loop invariant at each head
    and raises ``InvariantError`` if it fails.
    """
    result = _decide(rep, x, y, CongruenceBasis(rep.dim), check_total_mass=True,
                     trace=trace, debug=debug)
    return _checked_bound(rep, result)


def hkc_finite(rep: LinearRep, x: str, y: str, *, debug: bool = False,
               trace: list | None = None) -> EquivResult:
    """Decide equality on finite words only: the total-mass comparison is dropped."""
    result = _decide(rep, x, y, CongruenceBasis(rep.dim), check_total_mass=False,
                     trace=trace, debug=debug)
    return _checked_bound(rep, result)


def naive(rep: LinearRep, x: str, y: str, max_steps: int, *,
          trace: list | None = None) -> EquivResult:
    """The plain bisimulation search; may exhaust its budget on weighted systems."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    return _decide(rep, x, y, _PairStore(), check_total_mass=True,
                   max_steps=max_steps, trace=trace)


def hk(rep: LinearRep, x: str, y: str, max_steps: int, *,
       trace: list | None = None) -> EquivResult:
    """Bisimulation up to equivalence; still budget-bound on weighted systems."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    return _decide(rep, x, y, _EquivalenceStore(), check_total_mass=True,
                   max_steps=max_steps, trace=trace)

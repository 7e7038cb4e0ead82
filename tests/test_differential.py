"""The sparse integer kernel against the dense Fraction code it replaced.

The reference below is the earlier implementation, kept small: dense
``mats`` built entry by entry from the system, a dense Fraction ``step``,
a Fraction reduced row-echelon ``CongruenceBasis``, the shared worklist
loop and the dense finite-mass solve; and the reduction that takes the
stored rows in insertion order, which the pivot-order one must match row
for row.  Split-copy systems make the basis
grow, so the basis paths are exercised, not just the clone shortcut.
Runs on wide-alphabet and sink split copies mostly step stored rows, runs
on unary chains mostly their recorded differences; both match the
reference, which steps configurations.
Split copies with non-terminating sinks, closed live and dead components,
self-loops and certain stops exercise the pivot order of the sparse
finite-mass solve; small ones are also checked against ``brute_measure``.
Queries from every state in random orders on one representation check the
on-demand solve, where each query solves only the states it reaches.
The in-place elimination of that solve is checked block for block against
the copying one it replaced, kept below, the rows of each block against
the two-pass block builder it replaced, and a word walk against the chain
of one-letter steps, on words of over 200 letters too, with the entries
its products read bounded on 1,000-letter walks; start vectors built with
fresh zero objects, negative entries or no mass at all check the
Fraction-to-kernel conversion.  hkc runs, which step difference vectors
without dividing out their content, are checked against runs stepping
the content-divided successor they used before.  A traced run hands its
stores the same items as the untraced run and returns the same result.
``build_rep`` and the finite-mass solve's one-step map, seen through the
system it hands the solver, are checked against the per-(letter, state)
builder they replaced, on systems with unused letters, moves of
probability zero, mixed denominators and shuffled moves.
"""

import random
from bisect import bisect_left
from collections import deque
from copy import deepcopy
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptstrace import (All, AllFinite, AllInfinite, Cone, CongruenceBasis,
                      Empty, Equivalent, Extraction, FiniteWord, Inconclusive,
                      InfCone, NotEquivalent, OutputKind, SingularRestrictedSystem,
                      UnknownIdentifier, brute_measure, build_rep, dirac,
                      finite_mass_vector, hk, hkc_finite, hkc_inf, measure, naive,
                      step, validate)
from ptstrace import equivalence, linear
from ptstrace.linear import (eliminate, from_ints, int_step, int_walk, primitive,
                             scaled_step, to_ints)

from systems import (all_words, components_pts, l_star, named, omitted_extractions,
                     pts_of, random_pts, sink_split_pts, split_copy_pts)

F = Fraction
_ZERO = F(0)
_ONE = F(1)


def ref_mats(pts):
    moves = named(pts).moves
    return {letter: tuple(tuple(moves.get((source, letter, target), _ZERO)
                                for source in pts.states)
                          for target in pts.states)
            for letter in pts.alphabet}


def ref_step(mats, u, letter):
    n = len(u)
    return tuple(sum((row[k] * u[k] for k in range(n) if u[k] and row[k]), _ZERO)
                 for row in mats[letter])


def _transform(rep, u, word):
    # M_w . u on the kernel, one step per letter, left to right
    for letter in word:
        u = step(rep, u, letter)
    return u


def ref_build(pts):
    """The columns and denominators of the builder build_rep replaced, which
    made a list and a tuple per (letter, state)."""
    moves = [[[] for _ in pts.states] for _ in pts.alphabet]
    for k, row in enumerate(pts.rows):
        for (a, j), (numerator, denominator) in row.items():
            if numerator:
                moves[a][k].append((j, numerator, denominator))
    columns, denominators = {}, {}
    for letter, per_source in zip(pts.alphabet, moves):
        denominator = lcm(*[d for column in per_source for _, _, d in column])
        denominators[letter] = denominator
        columns[letter] = tuple(tuple([(j, p * (denominator // d)) for j, p, d in column])
                                for column in per_source)
    return columns, denominators


def ref_combined(rep):
    # the finite-mass solve's one-step map from every (letter, state), in
    # the order a solve sums a state's row: its moves in alphabet order
    common = lcm(*[d for _, d in rep.steps.values()])
    combined = [{} for _ in rep.states]
    for columns, d in rep.steps.values():
        for out, column in zip(combined, columns):
            for j, p in column:
                out[j] = out.get(j, 0) + p * (common // d)
    return combined, common


def solved_states(rep):
    """The indices of the states the finite-mass cache holds a mass for."""
    return {k for k, value in enumerate(rep._mass_cache) if value is not None}


def solver_inputs(monkeypatch):
    """Every system handed to ``linear._solve_sparse`` from now on, copied,
    as ``(rows, m)`` with each row's entries listed in order: a combined
    row's entries enter its system row in the order the row holds them."""
    captured, solve = [], linear._solve_sparse

    def capture(rows, m):
        captured.append((ordered(rows), m))
        return solve(rows, m)

    monkeypatch.setattr(linear, "_solve_sparse", capture)
    return captured


def ordered(rows):
    return [list(row.items()) for row in rows]


def _builder_case(rng, pts):
    # the system with unused letters spliced into its alphabet, moves of
    # probability zero added (some on the unused letters) and each state's
    # moves listed in shuffled order
    alphabet, states, term, moves = named(pts)
    letters = list(alphabet)
    for i in range(rng.randint(1, 4)):
        letters.insert(rng.randint(0, len(letters)), f"u{i}")
    for _ in range(rng.randint(1, 5)):
        moves.setdefault((rng.choice(states), rng.choice(letters), rng.choice(states)), _ZERO)
    shuffled = list(moves.items())
    rng.shuffle(shuffled)
    return pts_of(tuple(letters), states, term, dict(shuffled))


def test_build_rep_matches_the_builder_it_replaced(monkeypatch):
    captured = solver_inputs(monkeypatch)
    rng = random.Random(61)
    sources = ([random_pts(rng, max_states=6, max_letters=3) for _ in range(40)]
               + [split_copy_pts(rng, max_base=8, max_letters=4) for _ in range(20)]
               + [sink_split_pts(rng, 30, k) for k in (1, 2, 4)] + [components_pts(rng)])
    unused = zero_moves = mixed = 0
    for pts in sources:
        for case in (pts, _builder_case(rng, pts)):
            assert validate(case) == []
            rep = build_rep(case)
            columns, denominators = ref_build(case)
            assert rep.steps == {a: (columns[a], denominators[a]) for a in case.alphabet}
            assert list(rep.steps) == list(case.alphabet) and l_star(rep) == l_star(case)
            # nothing is solved before a query; a whole-document solve hands
            # the solver the system made from the reference's combined rows
            # and common denominator, the same entries in the same order,
            # and solves every state
            assert solved_states(rep) == set()
            rows, m, _ = ref_block(rep, range(rep.dim))
            captured.clear()
            finite_mass_vector(rep)
            assert captured == [(ordered(rows), m)] and m == rep.dim
            assert solved_states(rep) == set(range(rep.dim))
            unused += sum(not any(columns) for columns, _ in rep.steps.values())
            zero_moves += sum(not p for row in case.rows for p, _ in row.values())
            mixed += sum(len({d for row in case.rows for (b, _), (p, d) in row.items()
                              if b == a and p}) > 1 for a in range(len(case.alphabet)))
    assert unused >= 100 and zero_moves >= 100 and mixed >= 100


# a split copy of 5 base states on two letters (n = 15): the copies b<i>p
# and b<i>q of a base state move to the same targets in different ratios
STEP_PTS = split_copy_pts(random.Random(5), max_base=8, max_letters=2)
STEP_REP, STEP_MATS = build_rep(STEP_PTS), ref_mats(STEP_PTS)
STEP_BASE = len(STEP_PTS.states) // 3


@st.composite
def _random_sparse(draw):
    d = draw(st.dictionaries(st.integers(0, STEP_REP.dim - 1),
                             st.integers(-60, 60).filter(bool), max_size=STEP_REP.dim))
    return d, draw(st.sampled_from(STEP_PTS.alphabet)), None


@st.composite
def _cancelling_difference(draw):
    # x e_p - y e_q for the two copies p, q of one base state, weighted so
    # that M_a cancels exactly at the target t of p's first move on a
    i = draw(st.integers(0, STEP_BASE - 1))
    p, q = (STEP_PTS.states.index(f"b{i}{c}") for c in "pq")
    letters = [a for a in STEP_PTS.alphabet if STEP_REP.steps[a][0][p]]
    if not letters:
        return {p: 1, q: -1}, STEP_PTS.alphabet[0], None
    letter = draw(st.sampled_from(letters))
    t = STEP_REP.steps[letter][0][p][0][0]
    x, y = STEP_MATS[letter][t][q], STEP_MATS[letter][t][p]
    scale = draw(st.integers(1, 6)) * x.denominator * y.denominator
    return {p: int(x * scale), q: -int(y * scale)}, letter, t


@given(case=st.one_of(_random_sparse(), _cancelling_difference()),
       den=st.integers(1, 36))
def test_sparse_steps_match_dense_reference(case, den):
    d, letter, cancelled = case
    n = STEP_REP.dim
    expected = ref_step(STEP_MATS, from_ints((d, den), n), letter)
    resolved = STEP_REP.steps[letter]
    nums, out_den = int_walk(STEP_REP, (d, den), (letter,))
    assert from_ints((nums, out_den), n) == expected
    assert to_ints(expected, n) == (nums, out_den)
    # the one-letter walk on a step resolved once
    assert int_step(resolved, (d, den)) == (nums, out_den)
    direction, a, one = scaled_step(resolved, (d, 1, 1))
    # direction = a M_a d, where d = den * u, not divided by its content
    assert a == STEP_REP.steps[letter][1] and one == 1
    assert from_ints((direction, a), n) == tuple(x * den for x in expected)
    assert primitive(direction) == primitive(to_ints(expected, n)[0])
    assert scaled_step(resolved, (d, 3, -5)) == (direction, 3 * a, -5)
    # entries that cancel to zero are dropped, never stored
    assert 0 not in nums.values() and 0 not in direction.values()
    if cancelled is not None:
        assert expected[cancelled] == 0
        assert cancelled not in nums and cancelled not in direction


class RefBasis:
    """Fraction rows in reduced row-echelon form, pivot entries 1."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []
        self.pivots = []

    def _reduce(self, vector):
        for row, pivot in zip(self.rows, self.pivots):
            coefficient = vector[pivot]
            if coefficient:
                for j in range(pivot, self.dim):
                    if row[j]:
                        vector[j] -= coefficient * row[j]
        return vector

    def contains(self, u, v):
        return not any(self._reduce([a - b for a, b in zip(u, v)]))

    def insert(self, u, v):
        residual = self._reduce([a - b for a, b in zip(u, v)])
        pivot = next((j for j, c in enumerate(residual) if c), None)
        if pivot is None:
            return False
        row = [c / residual[pivot] for c in residual]
        for existing in self.rows:
            coefficient = existing[pivot]
            if coefficient:
                for j in range(self.dim):
                    if row[j]:
                        existing[j] -= coefficient * row[j]
        position = bisect_left(self.pivots, pivot)
        self.rows.insert(position, row)
        self.pivots.insert(position, pivot)
        return True


class RefPairs:
    def __init__(self):
        self.pairs = set()
        self.size = 0

    def subsumed(self, u, v):
        return (u, v) in self.pairs

    def add(self, u, v):
        self.pairs.add((u, v))
        self.size += 1


class RefClosure:
    """Union-find over exact vectors."""

    def __init__(self):
        self.parent = {}
        self.size = 0

    def _find(self, u):
        self.parent.setdefault(u, u)
        while self.parent[u] != u:
            u = self.parent[u]
        return u

    def subsumed(self, u, v):
        return self._find(u) == self._find(v)

    def add(self, u, v):
        self.parent[self._find(u)] = self._find(v)
        self.size += 1


class RefSpan:
    def __init__(self, dim):
        self.basis = RefBasis(dim)
        self.size = 0

    def subsumed(self, u, v):
        return self.basis.contains(u, v)

    def add(self, u, v):
        grew = self.basis.insert(u, v)
        assert grew
        self.size += 1


def ref_decide(pts, x, y, store, check_total_mass, max_steps=None):
    """The worklist loop of the earlier implementation; returns (result, trace)."""
    mats, star = ref_mats(pts), l_star(pts)
    n = len(pts.states)

    def unit(state):
        return tuple(_ONE if s == state else _ZERO for s in pts.states)

    todo = deque([((), unit(x), unit(y))])
    trace, iterations = [], 0
    while todo:
        if max_steps is not None and iterations >= max_steps:
            return Inconclusive(max_steps, store.size), trace
        word, u, v = todo.popleft()
        iterations += 1
        if store.subsumed(u, v):
            trace.append(Extraction(word, u, v, True))
            continue
        trace.append(Extraction(word, u, v, False))
        outputs = [(OutputKind.TERMINATION, star)]
        if check_total_mass:
            outputs.insert(0, (OutputKind.TOTAL_MASS, (_ONE,) * n))
        for kind, row in outputs:
            lhs = sum((a * b for a, b in zip(row, u)), _ZERO)
            rhs = sum((a * b for a, b in zip(row, v)), _ZERO)
            if lhs != rhs:
                return NotEquivalent(word, kind, lhs, rhs, iterations, store.size), trace
        for letter in pts.alphabet:
            todo.append((word + (letter,), ref_step(mats, u, letter),
                         ref_step(mats, v, letter)))
        store.add(u, v)
    return Equivalent(iterations, store.size), trace


def ref_finite_mass(pts):
    """Dense reachability pre-pass and dense Gaussian elimination."""
    n = len(pts.states)
    mats = ref_mats(pts)
    combined = [[sum((m[j][k] for m in mats.values()), _ZERO) for k in range(n)]
                for j in range(n)]
    star = l_star(pts)
    live = {k for k in range(n) if star[k]}
    stack = list(live)
    while stack:
        target = stack.pop()
        for source in range(n):
            if source not in live and combined[target][source]:
                live.add(source)
                stack.append(source)
    order = [k for k in range(n) if k in live]
    m = len(order)
    a = [[(_ONE if i == j else _ZERO) - combined[order[j]][order[i]] for j in range(m)]
         for i in range(m)]
    b = [star[k] for k in order]
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, m):
            factor = a[r][col] / a[col][col]
            for c in range(col, m):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    solution = [_ZERO] * m
    for r in range(m - 1, -1, -1):
        acc = b[r] - sum((a[r][c] * solution[c] for c in range(r + 1, m)), _ZERO)
        solution[r] = acc / a[r][r]
    s = [_ZERO] * n
    for k, value in zip(order, solution):
        s[k] = value
    return tuple(s)


def _replayed_basis(rep, result, trace):
    # the basis the run ended with: every recorded pair, in order
    basis = CongruenceBasis(rep.dim)
    recorded = [e for e in trace if not e.skipped]
    if isinstance(result, NotEquivalent):
        recorded = recorded[:-1]
    for e in recorded:
        grew = basis.insert(e.left, e.right)
        assert grew
    return basis


def _systems():
    rng = random.Random(113)
    cases = []
    for i in range(48):
        pts = split_copy_pts(rng, max_base=10, max_letters=3, perturb=i % 3 == 2)
        cases.append((pts, "a0", "b0p"))
        cases.append((pts, rng.choice(pts.states), rng.choice(pts.states)))
    return cases


SYSTEMS = _systems()


@pytest.mark.parametrize("index", range(0, len(SYSTEMS), 8))
def test_rep_and_finite_mass_match_dense_reference(index):
    for pts, _, _ in SYSTEMS[index:index + 8]:
        rep = build_rep(pts)
        assert rep.mats == ref_mats(pts)
        assert finite_mass_vector(rep) == ref_finite_mass(pts)


@pytest.mark.parametrize("index", range(0, len(SYSTEMS), 8))
def test_hkc_matches_dense_reference(index):
    for pts, x, y in SYSTEMS[index:index + 8]:
        rep = build_rep(pts)
        for algorithm, check_total_mass in ((hkc_inf, True), (hkc_finite, False)):
            store = RefSpan(rep.dim)
            expected, expected_trace = ref_decide(pts, x, y, store, check_total_mass)
            trace = []
            result = algorithm(rep, x, y, trace=trace)
            assert result == expected
            assert trace == expected_trace
            basis = _replayed_basis(rep, result, trace)
            assert basis.rows == store.basis.rows
            assert sorted(basis._rows) == store.basis.pivots


@pytest.mark.parametrize("index", range(0, len(SYSTEMS), 8))
def test_budgeted_searches_match_dense_reference(index):
    for pts, x, y in SYSTEMS[index:index + 8]:
        rep = build_rep(pts)
        for algorithm, store in ((naive, RefPairs()), (hk, RefClosure())):
            expected, expected_trace = ref_decide(pts, x, y, store, True, max_steps=40)
            trace = []
            assert algorithm(rep, x, y, 40, trace=trace) == expected
            assert trace == expected_trace


@pytest.mark.parametrize("seed", [1, 19])
def test_deep_budgeted_searches_match_dense_reference(seed):
    # at budget 100 hk's union-find forms chains long enough for path
    # halving to matter: a halving step that detaches a grandparent from its
    # root changes the run on the 7th document of seed 1 and the 12th of seed 19
    rng = random.Random(seed)
    for _ in range(20):
        pts = split_copy_pts(rng, max_base=8, max_letters=2)
        rep = build_rep(pts)
        for algorithm, store in ((naive, RefPairs()), (hk, RefClosure())):
            expected, expected_trace = ref_decide(pts, "a0", "b0p", store, True, max_steps=100)
            trace = []
            assert algorithm(rep, "a0", "b0p", 100, trace=trace) == expected
            assert trace == expected_trace


@pytest.mark.parametrize("seed", [48, 147])
def test_hkc_matches_dense_reference_on_unary_chains(seed):
    # one letter and up to 20 base states: the basis reaches rank 30 or more
    pts = split_copy_pts(random.Random(seed), max_base=20, max_letters=1)
    rep = build_rep(pts)
    for algorithm, check_total_mass in ((hkc_inf, True), (hkc_finite, False)):
        store = RefSpan(rep.dim)
        expected, expected_trace = ref_decide(pts, "a0", "b0p", store, check_total_mass)
        trace = []
        result = algorithm(rep, "a0", "b0p", trace=trace)
        assert result == expected
        assert trace == expected_trace
        assert result.relation_size >= 30
        basis = _replayed_basis(rep, result, trace)
        assert basis.rows == store.basis.rows
        assert sorted(basis._rows) == store.basis.pivots


# the unary chains above grow their stored rows past the recorded
# differences; a 4-letter split copy (n = 42) and a 2-letter sink split copy
# (n = 90) keep them small
UNARY_CHAINS = [split_copy_pts(random.Random(seed), max_base=20, max_letters=1)
                for seed in (48, 147)]
WIDE_CASES = [split_copy_pts(random.Random(0), max_base=14, max_letters=4),
              sink_split_pts(random.Random(3), 28, 2)]


@pytest.mark.parametrize("index", range(len(WIDE_CASES)))
def test_hkc_matches_dense_reference_on_wide_and_sink_split_copies(index):
    pts = WIDE_CASES[index]
    rep = build_rep(pts)
    for algorithm, check_total_mass in ((hkc_inf, True), (hkc_finite, False)):
        store = RefSpan(rep.dim)
        expected, expected_trace = ref_decide(pts, "a0", "b0p", store, check_total_mass)
        trace = []
        result = algorithm(rep, "a0", "b0p", trace=trace)
        assert result == expected
        assert trace == expected_trace
        assert result.relation_size >= 25
        basis = _replayed_basis(rep, result, trace)
        assert basis.rows == store.basis.rows
        assert sorted(basis._rows) == store.basis.pivots


# sink split copies over 8 and 64 letters, equivalent and perturbed: most
# letters move few of their states or none, so most extractions step a
# vector with no move on their letter, which the run skips unstepped
MANY_LETTER_CASES = [sink_split_pts(random.Random(seed), m, letters, perturb=seed == 3)
                     for letters, m in ((8, 16), (64, 10)) for seed in (1, 3)]


@pytest.mark.parametrize("index", range(len(MANY_LETTER_CASES)))
def test_hkc_matches_dense_reference_over_many_letters(index, monkeypatch):
    items, record = [], CongruenceBasis.record

    def keeping_record(self, d, num, den):
        if (result := record(self, d, num, den)) is not None:
            items.append(result)
        return result

    monkeypatch.setattr(CongruenceBasis, "record", keeping_record)
    pts = MANY_LETTER_CASES[index]
    rep = build_rep(pts)
    for algorithm, check_total_mass in ((hkc_inf, True), (hkc_finite, False)):
        store = RefSpan(rep.dim)
        expected, expected_trace = ref_decide(pts, "a0", "b0p", store, check_total_mass)
        items.clear()
        trace = []
        result = algorithm(rep, "a0", "b0p", trace=trace)
        assert result == expected
        assert trace == expected_trace
        assert isinstance(result, NotEquivalent if index % 2 else Equivalent)
        assert 2 * len(omitted_extractions(rep, trace, items)) > len(trace)


def test_hkc_runs_cut_at_every_budget_match_the_dense_reference():
    # a budget that runs out among the extractions an hkc run skips without
    # a step, the letters that move nothing included, ends the run at the
    # same extraction as a run that steps them all
    pts = sink_split_pts(random.Random(1), 3, 8, perturb=False)
    rep = build_rep(pts)
    start = equivalence._start(rep, "a0", "b0p")
    full = hkc_inf(rep, "a0", "b0p")
    assert isinstance(full, Equivalent)
    for budget in range(1, full.iterations + 2):
        result, parents = equivalence._decide(rep, start, CongruenceBasis(rep.dim),
                                              equivalence._ALL_OUTPUTS, budget)
        taken = result.steps_exhausted if isinstance(result, Inconclusive) else result.iterations
        trace = equivalence._extractions(rep, start, parents, taken)
        expected, expected_trace = ref_decide(pts, "a0", "b0p", RefSpan(rep.dim), True, budget)
        assert result == expected
        assert trace == expected_trace


# the differential systems and one sink split copy, each run by every
# algorithm, naive and hk at budget 100
TRACE_CASES = SYSTEMS + [(WIDE_CASES[1], "a0", "b0p")]


@pytest.mark.parametrize("index", range(0, len(TRACE_CASES), 8))
def test_a_trace_does_not_change_the_run(index, monkeypatch):
    # traced or not, a run hands its stores equal items in the same order,
    # one per extraction it steps, and returns an equal result; naive and
    # hk step every extraction, hkc all but those of a vector with no move
    # on their letter
    calls, results = [], []
    for store in (CongruenceBasis, equivalence._PairStore, equivalence._EquivalenceStore):
        def record(self, *item, _record=store.record):
            calls.append(deepcopy(item))
            results.append(result := _record(self, *item))
            return result
        monkeypatch.setattr(store, "record", record)
    for pts, x, y in TRACE_CASES[index:index + 8]:
        rep = build_rep(pts)
        for algorithm, budget in ((hkc_inf, ()), (hkc_finite, ()), (naive, (100,)), (hk, (100,))):
            calls.clear()
            untraced = algorithm(rep, x, y, *budget)
            untraced_calls = calls[:]
            calls.clear()
            results.clear()
            trace = []
            assert algorithm(rep, x, y, *budget, trace=trace) == untraced
            assert calls == untraced_calls
            recorded = [item for item in results if item is not None]
            omitted = 0 if budget else len(omitted_extractions(rep, trace, recorded))
            assert len(trace) == len(calls) + omitted


def test_every_run_extracts_what_its_result_counts():
    # an Equivalent extracts the start and every letter of every related
    # item, and a trace holds one extraction per counted one: iterations of
    # them, or steps_exhausted for an Inconclusive; naive and hk at budgets
    # that cut some runs short
    cases = TRACE_CASES + [(pts, "a0", "b0p") for pts in MANY_LETTER_CASES]
    seen = set()
    for pts, x, y in cases:
        rep = build_rep(pts)
        runs = [(hkc_inf, ()), (hkc_finite, ())] + [
            (algorithm, (budget,)) for algorithm in (naive, hk) for budget in (1, 7, 100)]
        for algorithm, budget in runs:
            trace = []
            result = algorithm(rep, x, y, *budget, trace=trace)
            seen.add(type(result))
            if isinstance(result, Inconclusive):
                assert len(trace) == result.steps_exhausted == budget[0]
                continue
            assert len(trace) == result.iterations
            if isinstance(result, Equivalent):
                assert result.iterations == 1 + len(rep.alphabet) * result.relation_size
    assert seen == {Equivalent, NotEquivalent, Inconclusive}


# the differential systems and one sink split copy of n = 600
READ_ONLY_CASES = SYSTEMS + [(sink_split_pts(random.Random(5), 198, 2), "a0", "b0p")]


@pytest.mark.parametrize("index", range(0, len(READ_ONLY_CASES), 8))
def test_hkc_runs_write_no_item_stepped_vector_or_stored_row(index, monkeypatch):
    # record steps the stored row and _reduce returns a pivot-free item
    # uncopied, which is safe only while nothing writes to them: with every
    # queue item, stepped vector and stored row a read-only view, where a
    # write raises, runs return the same results, traces and rows
    item, successor, record = (CongruenceBasis.item, CongruenceBasis.successor,
                               CongruenceBasis.record)
    bases = []

    def read_only(scaled):
        return (MappingProxyType(scaled[0]),) + scaled[1:]

    def keeping_record(self, d, num, den):
        bases.append(self)
        return record(self, d, num, den)

    def read_only_record(self, d, num, den):
        result = keeping_record(self, d, num, den)
        if result is None:
            return None
        pivot = next(reversed(self._rows))
        self._rows[pivot] = MappingProxyType(self._rows[pivot])
        return read_only(result)

    runs = {}
    for read_only_run in (False, True):
        with monkeypatch.context() as patched:
            if read_only_run:
                patched.setattr(CongruenceBasis, "item",
                                staticmethod(lambda u, v: read_only(item(u, v))))
                patched.setattr(CongruenceBasis, "successor",
                                staticmethod(lambda step, d: read_only(successor(step, d))))
            patched.setattr(CongruenceBasis, "record",
                            read_only_record if read_only_run else keeping_record)
            runs[read_only_run] = []
            for pts, x, y in READ_ONLY_CASES[index:index + 8]:
                rep = build_rep(pts)
                for algorithm in (hkc_inf, hkc_finite):
                    trace = []
                    result = algorithm(rep, x, y, debug=True, trace=trace)
                    runs[read_only_run].append((result, trace, list(bases[-1]._rows.items())))
    assert runs[True] == runs[False]
    rows = [row for _, _, final in runs[True] for _, row in final]
    assert rows and all(type(row) is MappingProxyType for row in rows)


# the same documents, each with one move of a state reachable from b0p
# shifted to stopping: every one of them separates a0 and b0p
PERTURBED_CASES = ([split_copy_pts(random.Random(seed), max_base=20, max_letters=1,
                                   perturb=True) for seed in (48, 147)]
                   + [split_copy_pts(random.Random(0), max_base=14, max_letters=4,
                                     perturb=True),
                      sink_split_pts(random.Random(3), 28, 2, perturb=True)])


@pytest.mark.parametrize("index", range(len(UNARY_CHAINS + WIDE_CASES + PERTURBED_CASES)))
def test_debug_runs_keep_the_loop_invariant(index):
    equivalent = UNARY_CHAINS + WIDE_CASES
    pts = (equivalent + PERTURBED_CASES)[index]
    rep = build_rep(pts)
    for algorithm in (hkc_inf, hkc_finite):
        result = algorithm(rep, "a0", "b0p", debug=True)
        assert isinstance(result, Equivalent if index < len(equivalent) else NotEquivalent)
        assert result == algorithm(rep, "a0", "b0p")


def test_runs_step_the_smaller_of_row_and_item(monkeypatch):
    # every recorded item is stepped as the vector record returned for it:
    # the new row, or the item itself when its entries take fewer bits in
    # all; by each letter in order but those on which it has no move
    added, stepped = [], []
    record, successor = CongruenceBasis.record, CongruenceBasis.successor

    def recording_record(self, d, *scale):
        result = record(self, d, *scale)
        if result is not None:
            # the row just stored, the last in insertion order
            added.append((d, result, next(reversed(self._rows.values()))))
        return result

    def recording_step(step, d):
        stepped.append(d)
        return successor(step, d)

    monkeypatch.setattr(CongruenceBasis, "record", recording_record)
    monkeypatch.setattr(CongruenceBasis, "successor", staticmethod(recording_step))

    def bits(v):
        return sum(map(int.bit_length, v.values()))

    took_row = took_item = 0
    for pts in UNARY_CHAINS + WIDE_CASES:
        rep = build_rep(pts)
        for algorithm in (hkc_inf, hkc_finite):
            added.clear()
            stepped.clear()
            trace = []
            result = algorithm(rep, "a0", "b0p", trace=trace)
            assert len(added) == result.relation_size
            omitted = len(omitted_extractions(rep, trace, [r for _, r, _ in added]))
            assert len(stepped) == result.relation_size * len(rep.alphabet) - omitted
            assert stepped == [r for _, r, _ in added for letter in rep.alphabet
                               if any(rep.mats[letter][j][k] for k in r[0] for j in range(rep.dim))]
            for d, (r, _, _), row in added:
                assert r is d or r == row
                other = row if r is d else d
                assert bits(r) <= bits(other)
                took_item += r is d
                took_row += r is not d
    assert took_row >= 20 and took_item >= 20


# a sink split copy of n = 600 besides the runs above; the perturbed
# documents check the scale of the swapped item, which lhs and rhs read
CHOICE_CASES = (UNARY_CHAINS + WIDE_CASES + [sink_split_pts(random.Random(5), 198, 2)]
                + PERTURBED_CASES)


@pytest.mark.parametrize("index", range(len(CHOICE_CASES)))
def test_either_choice_in_record_gives_the_same_run(index, monkeypatch):
    # record may step the new row or the difference: a run that steps the
    # other one, with its scale, on every second record returns the same
    # results and traces and ends with the same rows
    record = CongruenceBasis.record
    bases, swapped = [], 0

    def keeping_record(self, d, num, den):
        bases.append(self)
        return record(self, d, num, den)

    def swapping_record(self, d, num, den):
        nonlocal swapped
        residual, multiple, divisor = self._reduce(d)
        result = keeping_record(self, d, num, den)
        if result is None or len(self._rows) % 2:
            return result
        swapped += 1
        row = next(reversed(self._rows.values()))
        if result[0] is d:
            # the residual is content times the row, its sign included
            pivot = min(row)
            content = residual[pivot] // row[pivot]
            return dict(row), num * multiple, den * divisor * content
        return d, num, den

    rep = build_rep(CHOICE_CASES[index])
    runs = []
    for patched in (keeping_record, swapping_record):
        monkeypatch.setattr(CongruenceBasis, "record", patched)
        for algorithm in (hkc_inf, hkc_finite):
            trace = []
            result = algorithm(rep, "a0", "b0p")
            checked = algorithm(rep, "a0", "b0p", debug=True, trace=trace)
            runs.append((result, checked, trace, list(bases[-1]._rows.items())))
    assert swapped >= 4
    assert runs[2:] == runs[:2]
    expected = Equivalent if index < len(CHOICE_CASES) - len(PERTURBED_CASES) else NotEquivalent
    for result, checked, _, _ in runs:
        assert isinstance(result, expected) and checked == result


# the differential systems in groups of 8, then each choice case alone:
# the unary chains, the wide and sink split copies (n = 600 among them) and
# the perturbed documents
ONE_RULE_CASES = ([SYSTEMS[i:i + 8] for i in range(0, len(SYSTEMS), 8)]
                  + [[(pts, "a0", "b0p")] for pts in CHOICE_CASES])


@pytest.mark.parametrize("index", range(len(ONE_RULE_CASES)))
def test_one_accumulator_rule_gives_the_runs_of_the_dict_accumulator(index, walk_steps,
                                                                    monkeypatch):
    # every product picks the dict or the list accumulator by one rule; with
    # every product forced through the dict one, hkc_inf, hkc_finite, naive
    # and hk return the same results and traces, and hkc runs end with the
    # same stored rows, compared as mappings
    record, bases = CongruenceBasis.record, []

    def keeping_record(self, d, num, den):
        bases.append(self)
        return record(self, d, num, den)

    monkeypatch.setattr(CongruenceBasis, "record", keeping_record)
    runs, kinds = [], []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(linear, "_product", linear._sparse_product)
        walk_steps.clear()
        runs.append([])
        for pts, x, y in ONE_RULE_CASES[index]:
            rep = build_rep(pts)
            for algorithm in (hkc_inf, hkc_finite):
                trace = []
                result = algorithm(rep, x, y, debug=True, trace=trace)
                runs[-1].append((result, trace, list(bases[-1]._rows.items())))
            for algorithm in (naive, hk):
                trace = []
                runs[-1].append((algorithm(rep, x, y, 100, trace=trace), trace))
        kinds.append({kind for kind, _ in walk_steps})
    assert runs[1] == runs[0]
    # the dict accumulator alone when forced; unforced, every case but the
    # four-letter split copies and the perturbed unary chains takes the list one too
    assert kinds[1] == {"sparse"}
    dict_only = [WIDE_CASES[0], *PERTURBED_CASES[:3]]
    assert ("dense" in kinds[0]) != any(pts is other for pts, _, _ in ONE_RULE_CASES[index]
                                        for other in dict_only)


@pytest.mark.parametrize("pts", UNARY_CHAINS, ids=["n54", "n60"])
def test_hkc_runs_on_unary_chains_take_the_list_accumulator(pts, walk_steps):
    # the differences of a unary chain cover more than a quarter of the
    # states within a few letters: most of their products sum into a list,
    # each exactly when its vector holds more than a quarter of the states
    rep = build_rep(pts)
    for algorithm in (hkc_inf, hkc_finite):
        walk_steps.clear()
        assert isinstance(algorithm(rep, "a0", "b0p"), Equivalent)
        dense = [kind == "dense" for kind, _ in walk_steps]
        assert 2 * sum(dense) > len(dense) > sum(dense) > 0
        assert all((4 * len(nums) > rep.dim) == (kind == "dense") for kind, nums in walk_steps)


def ref_scaled_step(step, scaled):
    """The successor the hkc runs used to step: ``(d, num, den)`` steps to
    ``(p, num * a, den * g)``, ``p = (a / g) M . d`` divided by its
    content ``g``, for ``step`` a letter's ``(columns, a)``."""
    d, num, den = scaled
    columns, denominator = step
    acc = linear._product(columns, d)
    g = gcd(*acc.values())
    if g > 1:
        return {j: x // g for j, x in acc.items()}, num * denominator, den * g
    return acc, num * denominator, den


def _successor_cases():
    rng = random.Random(191)
    cases = []
    for _ in range(16):
        pts = random_pts(rng, max_states=6, max_letters=3)
        cases.append((pts, rng.choice(pts.states), rng.choice(pts.states)))
    cases += [(split_copy_pts(random.Random(seed), max_base=10, max_letters=3,
                              perturb=seed % 2 == 1), "a0", "b0p") for seed in range(6)]
    # unary split copies of n = 24, 45 and 60, and a perturbed one of n = 60
    cases += [(split_copy_pts(random.Random(seed), max_base=20, max_letters=1,
                              perturb=seed == 37), "a0", "b0p") for seed in (3, 9, 5, 37)]
    cases += [(sink_split_pts(random.Random(seed), 30, 2, perturb=seed == 2), "a0", "b0p")
              for seed in (1, 2)]
    return cases


SUCCESSOR_CASES = _successor_cases()


@pytest.mark.parametrize("index", range(0, len(SUCCESSOR_CASES), 4))
def test_hkc_runs_match_the_primitive_successor_runs(index, monkeypatch):
    # stepping without dividing out the content changes neither a run nor
    # its answer: the same extractions, skips, witness, output and values
    contents = []

    def recording_step(step, item):
        stepped = scaled_step(step, item)
        contents.append(gcd(*stepped[0].values()))
        return stepped

    for pts, x, y in SUCCESSOR_CASES[index:index + 4]:
        rep = build_rep(pts)
        for algorithm in (hkc_inf, hkc_finite):
            with monkeypatch.context() as patched:
                patched.setattr(CongruenceBasis, "successor", staticmethod(ref_scaled_step))
                expected_trace = []
                expected = algorithm(rep, x, y, trace=expected_trace)
            with monkeypatch.context() as patched:
                patched.setattr(CongruenceBasis, "successor", staticmethod(recording_step))
                trace = []
                result = algorithm(rep, x, y, trace=trace)
            assert result == expected
            assert trace == expected_trace
            assert algorithm(rep, x, y, debug=True) == result
    # the runs did step vectors that the old successor divided
    assert any(g > 1 for g in contents)


def insertion_order_reduce(basis, d):
    """``CongruenceBasis._reduce`` taking the rows in insertion order, each
    row checked once: a row is zero at the pivots stored before it."""
    w, num, den = dict(d), 1, 1
    for pivot, row in basis._rows.items():
        if pivot in w:
            r, c = row[pivot], w[pivot]
            g = gcd(r, c)
            r, c = r // g, c // g
            if r != 1:
                w = {j: r * x for j, x in w.items()}
                num *= r
            for j, y in row.items():
                if x := w.get(j, 0) - c * y:
                    w[j] = x
                else:
                    del w[j]
            if r != 1 and (g := gcd(*w.values())) > 1:
                w = {j: x // g for j, x in w.items()}
                den *= g
    return w, num, den


def _order_cases():
    rng = random.Random(137)
    cases = []
    for _ in range(6):
        pts = random_pts(rng)
        cases.append((pts, rng.choice(pts.states), rng.choice(pts.states)))
    for letters in (1, 2, 3):
        found = 0
        while found < 2:
            pts = split_copy_pts(rng, max_base=16, max_letters=letters, perturb=found == 1)
            if len(pts.alphabet) == letters:
                cases.append((pts, "a0", "b0p"))
                found += 1
    cases.append((sink_split_pts(rng, 20, 2), "a0", "b0p"))
    # n = 396: the basis passes rank 100
    cases.append((sink_split_pts(rng, 130, 2), "a0", "b0p"))
    return cases


ORDER_CASES = _order_cases()


def _recorded_bases(monkeypatch):
    bases = []
    init = CongruenceBasis.__init__

    def recording_init(self, dim):
        init(self, dim)
        bases.append(self)

    monkeypatch.setattr(CongruenceBasis, "__init__", recording_init)
    return bases


@pytest.mark.parametrize("index", range(len(ORDER_CASES)))
def test_rows_match_insertion_order_reduction(index, monkeypatch):
    # the rows, taken by pivot index, are in echelon form: reducing in
    # pivot order stores the same rows, in the same order, and gives the
    # same run, as reducing in insertion order
    pts, x, y = ORDER_CASES[index]
    rep = build_rep(pts)
    bases = _recorded_bases(monkeypatch)
    for algorithm in (hkc_inf, hkc_finite):
        result = algorithm(rep, x, y)
        with monkeypatch.context() as patched:
            patched.setattr(CongruenceBasis, "_reduce", insertion_order_reduce)
            assert algorithm(rep, x, y) == result
        basis, reference = bases[-2:]
        assert list(basis._rows.items()) == list(reference._rows.items())
    if index == len(ORDER_CASES) - 1:
        assert basis.rank >= 100


def test_reduce_looks_up_only_rows_whose_pivot_the_vector_holds(monkeypatch):
    # a pivot is looked up only after an elimination brought it into the
    # vector (or the vector came with it), and only once per reduction
    reduce = CongruenceBasis._reduce
    lookups, ranks = [], []

    class WatchedRows(dict):
        def __getitem__(self, pivot):
            fetched.append(pivot)
            return dict.__getitem__(self, pivot)

        def __iter__(self):
            raise AssertionError("a reduction scanned the rows")

        items = keys = values = __iter__

    def watching(self, d):
        nonlocal fetched
        rows, fetched = self._rows, []
        self._rows = WatchedRows(rows)
        try:
            result = reduce(self, d)
        finally:
            self._rows = rows
        held = set(d)
        for pivot in fetched:
            assert pivot in held and pivot in rows
            held.update(rows[pivot])
        assert len(fetched) == len(set(fetched))
        lookups.append(len(fetched))
        ranks.append(len(rows))
        return result

    fetched = []
    monkeypatch.setattr(CongruenceBasis, "_reduce", watching)
    pts, x, y = ORDER_CASES[-1]
    rep = build_rep(pts)
    assert isinstance(hkc_inf(rep, x, y), Equivalent)
    assert max(ranks) >= 100
    # a stepped vector holds a few entries, so it meets a few pivots
    assert sum(lookups) * 10 < sum(ranks)


def test_record_returns_the_scale_of_the_vector_it_steps():
    # d is num / den times a difference plus a vector of the span; the
    # returned vector is the returned scale times that difference plus a
    # vector of the span before d, whatever the reduction multiplied and
    # divided out on the way
    rng = random.Random(139)
    divided = took_row = 0
    for _ in range(150):
        dim = rng.randint(2, 8)
        basis, reference = CongruenceBasis(dim), RefBasis(dim)
        zero = (_ZERO,) * dim
        for _ in range(dim):
            d = {j: x for j in range(dim) if rng.random() < 0.6 and (x := rng.randint(-9, 9))}
            if not d:
                continue
            num, den = rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 6)
            divided += basis._reduce(d)[2] > 1
            result = basis.record(d, num, den)
            vector = from_ints((d, 1), dim)
            assert (result is None) == reference.contains(vector, zero)
            if result is None:
                continue
            r, r_num, r_den = result
            took_row += r is not d
            c = F(r_num, r_den) / F(num, den)
            assert reference.contains(from_ints((r, 1), dim), tuple(c * x for x in vector))
            reference.insert(vector, zero)
    assert divided >= 20 and took_row >= 100


def test_split_copies_grow_the_basis():
    # the a0/b0p cases: equivalent ones must record many pairs, not one
    results = [hkc_inf(build_rep(pts), "a0", "b0p") for pts, _, _ in SYSTEMS[::2]]
    ranks = [r.relation_size for r in results if isinstance(r, Equivalent)]
    assert max(ranks) >= 10
    assert sum(rank > 2 for rank in ranks) >= len(ranks) // 2


def test_basis_matches_reference_on_random_vectors():
    rng = random.Random(127)
    for _ in range(60):
        dim = rng.randint(1, 8)
        basis, reference = CongruenceBasis(dim), RefBasis(dim)
        for _ in range(12):
            u = tuple(F(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(dim))
            v = tuple(F(rng.randint(-5, 5), rng.randint(1, 9)) if rng.random() < 0.7
                      else u[j] for j in range(dim))
            inside = basis.contains(u, v)
            assert inside == reference.contains(u, v)
            grew, expected = basis.insert(u, v), reference.insert(u, v)
            assert grew == expected == (not inside)
            assert basis.rows == reference.rows
            assert sorted(basis._rows) == reference.pivots


def test_random_systems_match_dense_reference():
    rng = random.Random(131)
    for _ in range(60):
        pts = random_pts(rng)
        rep = build_rep(pts)
        assert rep.mats == ref_mats(pts)
        assert finite_mass_vector(rep) == ref_finite_mass(pts)
        x, y = rng.choice(pts.states), rng.choice(pts.states)
        expected, _ = ref_decide(pts, x, y, RefSpan(rep.dim), True)
        assert hkc_inf(rep, x, y) == expected


def _solve_systems():
    rng = random.Random(139)
    cases = [sink_split_pts(rng, m, rng.randint(1, 4), sinks=rng.randint(1, 3))
             for m in (1, 2, 3, 5, 8, 12, 18)]
    cases.append(sink_split_pts(rng, 28, 2))  # n = 90
    cases += [components_pts(rng, components=rng.randint(2, 5), size=rng.randint(1, 5),
                             transient=rng.randint(1, 8), n_letters=rng.randint(1, 3))
              for _ in range(12)]
    return cases


SOLVE_SYSTEMS = _solve_systems()


def test_solve_systems_cover_the_hard_shapes():
    sizes = [len(pts.states) for pts in SOLVE_SYSTEMS]
    assert max(sizes) >= 90 and sum(n <= 12 for n in sizes) >= 4
    masses = [finite_mass_vector(build_rep(pts)) for pts in SOLVE_SYSTEMS]
    # dead states, certain termination and partial mass all occur
    assert all(F(0) in m for m in masses)
    assert sum(F(1) in m for m in masses) >= 10
    assert sum(any(0 < x < 1 for x in m) for m in masses) >= 15
    assert any(j == k and p[0] for pts in SOLVE_SYSTEMS for k, row in enumerate(pts.rows)
               for (_, j), p in row.items())


@pytest.mark.parametrize("index", range(len(SOLVE_SYSTEMS)))
def test_sparse_solve_matches_dense_reference(index):
    pts = SOLVE_SYSTEMS[index]
    rep = build_rep(pts)
    expected = ref_finite_mass(pts)
    assert finite_mass_vector(rep) == expected
    word = pts.alphabet[:1] * 2
    for k, state in enumerate(pts.states):
        u = dirac(rep, state)
        assert measure(rep, u, AllFinite()) == expected[k]
        assert measure(rep, u, AllInfinite()) == 1 - expected[k]
        v = _transform(rep, u, word)
        assert measure(rep, u, InfCone(word)) == \
            sum(v, _ZERO) - sum((a * b for a, b in zip(expected, v)), _ZERO)


def _with_stop(pts, term):
    # the same moves, stopping with the given masses (not a valid system);
    # brute_measure of a word then weighs where the word ends by ``term``
    return pts_of(pts.alphabet, pts.states, dict(zip(pts.states, term)), named(pts).moves)


@pytest.mark.parametrize("index", [i for i, pts in enumerate(SOLVE_SYSTEMS)
                                   if len(pts.states) <= 12])
def test_finite_mass_queries_match_brute_measure(index):
    pts = SOLVE_SYSTEMS[index]
    rep = build_rep(pts)
    mass = finite_mass_vector(rep)
    by_mass, star = _with_stop(pts, mass), l_star(pts)
    words = all_words(pts.alphabet, 2)
    for k, state in enumerate(pts.states):
        u = dirac(rep, state)
        finite = measure(rep, u, AllFinite())
        # the fixed point, one letter at a time, and the partial sums below it
        assert finite == mass[k] == star[k] + sum(
            (brute_measure(by_mass, state, FiniteWord((a,))) for a in pts.alphabet), _ZERO)
        assert sum((brute_measure(pts, state, FiniteWord(w)) for w in words), _ZERO) \
            <= finite
        assert measure(rep, u, AllInfinite()) == \
            brute_measure(pts, state, Cone(())) - finite
        for w in words:
            assert measure(rep, u, InfCone(w)) == \
                brute_measure(pts, state, Cone(w)) - brute_measure(by_mass, state, FiniteWord(w))


def _on_demand_systems():
    rng = random.Random(149)
    cases = [random_pts(rng) for _ in range(12)]
    cases += [split_copy_pts(rng, max_base=8, perturb=i % 2 == 1) for i in range(6)]
    return cases + SOLVE_SYSTEMS


ON_DEMAND_SYSTEMS = _on_demand_systems()


def _walk(rng, moves, state, length):
    # a random word along the Named moves of one run; it may end in a sink
    word = []
    for _ in range(length):
        out = [(letter, target) for (source, letter, target), p in moves.items()
               if source == state and p]
        if not out:
            break
        letter, state = rng.choice(sorted(out))
        word.append(letter)
    return tuple(word), state


@pytest.mark.parametrize("index", range(0, len(ON_DEMAND_SYSTEMS), 4))
def test_on_demand_finite_mass_matches_whole_solve(index):
    # every finite-mass query kind from every state, in seeded random orders
    # on one representation, against the dense reference and a fresh
    # whole-document solve
    for pts in ON_DEMAND_SYSTEMS[index:index + 4]:
        expected = ref_finite_mass(pts)
        assert finite_mass_vector(build_rep(pts)) == expected
        small, moves = len(pts.states) <= 12, named(pts).moves
        by_mass = _with_stop(pts, expected)
        for seed in range(2):
            rng = random.Random(seed)
            rep = build_rep(pts)
            queries = [(state, kind) for state in pts.states
                       for kind in ("finite", "infinite", "infcone")]
            rng.shuffle(queries)
            for state, kind in queries:
                k, u = pts.states.index(state), dirac(rep, state)
                if kind == "finite":
                    assert measure(rep, u, AllFinite()) == expected[k]
                elif kind == "infinite":
                    assert measure(rep, u, AllInfinite()) == 1 - expected[k]
                else:
                    word, end = _walk(rng, moves, state, rng.randint(0, 6))
                    v = _transform(rep, u, word)
                    value = measure(rep, u, InfCone(word))
                    assert value == sum(v, _ZERO) - sum(
                        (a * b for a, b in zip(expected, v)), _ZERO)
                    if small:
                        assert value == brute_measure(pts, state, Cone(word)) - \
                            brute_measure(by_mass, state, FiniteWord(word))
            assert finite_mass_vector(rep) == expected


def test_on_demand_infcone_from_walks_ending_inside_sinks():
    # the transformed vector of such a query lies where nothing stops, so
    # its own solve is a block of dead states, or none at all
    rng = random.Random(157)
    into_sinks = 0
    for pts in SOLVE_SYSTEMS:
        expected = ref_finite_mass(pts)
        rep, moves = build_rep(pts), named(pts).moves
        states = list(pts.states)
        rng.shuffle(states)
        for state in states:
            word, end = _walk(rng, moves, state, 8)
            if expected[pts.states.index(end)] or not word:
                continue
            into_sinks += 1
            u = dirac(rep, state)
            v = _transform(rep, u, word)
            assert measure(rep, u, InfCone(word)) == sum(v, _ZERO) - sum(
                (a * b for a, b in zip(expected, v)), _ZERO)
        assert finite_mass_vector(rep) == expected
    assert into_sinks >= 20


def test_finite_mass_of_a_vector_spanning_solved_blocks():
    # configurations over states solved in separate blocks, before and after
    # a whole-document solve, against the dense reference
    rng = random.Random(151)
    for pts in SOLVE_SYSTEMS[:8]:
        expected = ref_finite_mass(pts)
        rep = build_rep(pts)
        n = len(pts.states)
        for _ in range(3):
            measure(rep, dirac(rep, rng.choice(pts.states)), AllFinite())
            u = tuple(F(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.4
                      else _ZERO for _ in range(n))
            assert measure(rep, u, AllFinite()) == \
                sum((a * b for a, b in zip(expected, u)), _ZERO)


@st.composite
def _pivot_steps(draw):
    # sparse w and row sharing col; small entries make cancellations and
    # pivot entries dividing w[col] (factor 1) common
    column, entry = st.integers(0, 9), st.integers(-6, 6).filter(bool)
    col = draw(column)
    w = draw(st.dictionaries(column, entry, max_size=7)) | {col: draw(entry)}
    row = draw(st.dictionaries(column, entry, max_size=7)) | {col: draw(entry)}
    return w, row, col


@given(case=_pivot_steps())
def test_the_pivot_step_matches_a_fraction_reference(case):
    w, row, col = case
    old = dict(w)
    factor, content, appeared = eliminate(w, row, col)
    g = gcd(row[col], old[col])
    expected = {j: F(row[col], g) * old.get(j, 0) - F(old[col], g) * row.get(j, 0)
                for j in old.keys() | row.keys()}
    assert factor == row[col] // g
    assert col not in w and 0 not in w.values()
    assert {j: content * x for j, x in w.items()} == {j: x for j, x in expected.items() if x}
    # every column of row that w lacked enters w: the entry is -(w[col]/g) row[j] != 0
    assert appeared == [j for j in row if j not in old] and all(j in w for j in appeared)
    if factor == 1:
        assert content == 1
    else:
        assert content >= 1 and gcd(*w.values()) <= 1


def ref_eliminate(row, pivot_row, col):
    # a scaled copy of row minus a multiple of pivot_row, then its content out
    p, c = pivot_row[col], row[col]
    g = gcd(p, c)
    a, c = p // g, c // g
    new = {j: a * x for j, x in row.items()}
    for j, y in pivot_row.items():
        new[j] = new.get(j, 0) - c * y
    return primitive({j: x for j, x in new.items() if x})


def ref_solve_sparse(rows, m):
    """The copying Markowitz elimination: each target row is rebuilt, and
    the column index is patched from the key sets before and after."""
    rows = [primitive(row) for row in rows]
    holders = [set() for _ in range(m)]
    for i, row in enumerate(rows):
        for j in row:
            if j != m:
                holders[j].add(i)
    heap = [(len(held), j) for j, held in enumerate(holders)]
    heapify(heap)
    cleared = [False] * m
    eliminated = []
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
        targets, holders[col] = holders[col], set()
        for i in targets:
            old = rows[i]
            rows[i] = new = ref_eliminate(old, pivot_row, col)
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


def _copied(rows):
    return [dict(row) for row in rows]


@pytest.mark.parametrize("index", range(len(ON_DEMAND_SYSTEMS)))
def test_in_place_solve_matches_the_copying_reference(index, monkeypatch):
    # every block a query solves, first from two states, then the rest:
    # the kernel's (nums, den) equals the reference's on the same rows
    pts = ON_DEMAND_SYSTEMS[index]
    solve, blocks = linear._solve_sparse, []

    def checked(rows, m):
        expected = ref_solve_sparse(_copied(rows), m)
        got = solve(rows, m)
        assert got == expected
        blocks.append(m)
        return got

    monkeypatch.setattr(linear, "_solve_sparse", checked)
    rep = build_rep(pts)
    rng = random.Random(index)
    for state in rng.sample(pts.states, min(2, len(pts.states))):
        measure(rep, dirac(rep, state), AllFinite())
    assert finite_mass_vector(rep) == ref_finite_mass(pts)
    assert blocks and sum(blocks) == rep.dim


def ref_block(rep, support):
    """The block of a finite-mass query as the two-pass builder made it: a
    reach walk, then a second pass over the block's edges for the sources,
    the solved neighbours and the live seeds.  Returns ``(rows, m, facts)``,
    or None when nothing is left to solve; ``facts`` tells the coverage
    test which shapes the query had."""
    combined, common = ref_combined(rep)
    solved = rep._mass_cache
    star, star_den = rep.stop_row
    stack = [k for k in support if solved[k] is None]
    reached = set(stack)
    while stack:
        for j in combined[stack.pop()]:
            if j not in reached and solved[j] is None:
                reached.add(j)
                stack.append(j)
    if not reached:
        return None
    states = sorted(reached)
    local = {k: i for i, k in enumerate(states)}
    m = len(states)
    sources = {k: [] for k in states}
    masses = {}
    live = {k for k in states if k in star}
    for k in states:
        for j in combined[k]:
            if j in local:
                sources[j].append(k)
            else:
                masses[j] = solved[j]
                if solved[j][0]:
                    live.add(k)
    const = lcm(*(value_den for _, value_den in masses.values()))
    fixed = {j: x * (const // value_den) for j, (x, value_den) in masses.items()}
    stack = list(live)
    while stack:
        for source in sources[stack.pop()]:
            if source not in live:
                live.add(source)
                stack.append(source)
    rows = [{i: 1} for i in range(m)]
    for k in live:
        row = rows[local[k]] = {local[k]: common * star_den * const}
        rhs = common * star.get(k, 0) * const
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
    support = list(support)
    facts = {"repeated": len(set(support)) < len(support),
             "solved_in_support": any(solved[k] is not None for k in support),
             "solved_neighbours": bool(masses),
             "dead": len(live) < m}
    return rows, m, facts


@pytest.mark.parametrize("index", range(0, len(ON_DEMAND_SYSTEMS), 4))
def test_finite_mass_blocks_match_the_two_pass_builder(index, monkeypatch):
    # every block that a sequence of queries solves gets exactly the rows
    # the two-pass builder makes from the same cache: queries through
    # measure, and direct solves of supports with repeated and solved states
    solve_block, solve = linear.solve_finite_mass, linear._solve_sparse
    captured, expected, seen = [], [], []

    def capture(rows, m):
        captured.append((_copied(rows), m))
        return solve(rows, m)

    def checked(rep, support):
        support = list(support)
        block = ref_block(rep, support)
        captured.clear()
        solved = solve_block(rep, support)
        assert captured == ([] if block is None else [block[:2]])
        if block is not None:
            seen.append(block[2])
        expected.append(block)
        return solved

    monkeypatch.setattr(linear, "_solve_sparse", capture)
    monkeypatch.setattr(linear, "solve_finite_mass", checked)
    for pts in ON_DEMAND_SYSTEMS[index:index + 4]:
        rng = random.Random(index)
        rep, n, moves = build_rep(pts), len(pts.states), named(pts).moves
        reference = ref_finite_mass(pts)
        # the last state solved first, then a support holding it, repeated
        measure(rep, dirac(rep, pts.states[-1]), AllFinite())
        checked(rep, [n - 1, 0, 0, n - 1])
        for _ in range(4):
            state = rng.choice(pts.states)
            u = dirac(rep, state)
            kind = rng.choice(("finite", "infcone", "mixed", "direct"))
            if kind == "finite":
                assert measure(rep, u, AllFinite()) == reference[pts.states.index(state)]
            elif kind == "infcone":
                word, _ = _walk(rng, moves, state, rng.randint(1, 4))
                measure(rep, u, InfCone(word))
            elif kind == "mixed":
                measure(rep, _random_config(rng, n), AllFinite())
            else:
                support = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
                checked(rep, support + support[:2])
        checked(rep, list(range(n)) * 2)
        assert finite_mass_vector(rep) == reference
    assert any(block is None for block in expected)
    for fact in ("repeated", "solved_in_support", "solved_neighbours", "dead"):
        assert any(facts[fact] for facts in seen), fact


@pytest.mark.parametrize("letters", [1, 2, 4])
def test_a_finite_query_builds_the_rows_of_its_block_only(letters, monkeypatch):
    # from a0 of a sink split copy the solve reaches the a-states alone, a
    # third of the document: it solves one system, the one made from the
    # reference's combined rows of those states, entry for entry, and a
    # later whole-document solve makes the rest's
    pts = sink_split_pts(random.Random(7), 20, letters)
    rep = build_rep(pts)
    start = rep.state_index("a0")
    rows, m, _ = ref_block(rep, [start])
    captured = solver_inputs(monkeypatch)
    assert measure(rep, dirac(rep, "a0"), AllFinite()) == ref_finite_mass(pts)[start]
    assert captured == [(ordered(rows), m)] and m == rep.dim // 3 < rep.dim
    assert solved_states(rep) == {k for k, state in enumerate(pts.states)
                                  if state.startswith("a")}
    rest, size, _ = ref_block(rep, range(rep.dim))
    assert finite_mass_vector(rep) == ref_finite_mass(pts)
    assert captured[1:] == [(ordered(rest), size)] and m + size == rep.dim
    assert solved_states(rep) == set(range(rep.dim))


def test_in_place_solve_with_negative_pivots_and_singular_systems():
    # negative pivots force a scaling with a sign change; the reference and
    # the kernel agree, and both find a singular system singular
    cases = [
        ([{0: -3, 2: 1}, {1: 6, 2: -1}], 2),
        ([{0: -2, 1: 3, 2: 1}, {0: 3, 1: -5, 2: -2}], 2),
        ([{0: -4, 1: 6, 3: 2}, {0: 6, 1: -3, 2: 9}, {1: -2, 2: -4, 3: 7}], 3),
        ([{0: 2, 1: -1}, {0: -1, 1: 2, 2: -1}, {1: -1, 2: 2, 3: 1}], 3),
    ]
    for rows, m in cases:
        expected = ref_solve_sparse(_copied(rows), m)
        assert linear._solve_sparse(_copied(rows), m) == expected
    for rows, m in [([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 3}], 2),
                    ([{0: 1, 2: 1}, {0: 2, 2: 2}], 2),
                    ([{0: -2, 1: 4}, {0: 3, 1: -6, 2: 1}], 2),
                    ([{0: 1, 1: 2, 3: 1}, {1: 1, 2: -1}, {0: 1, 1: 3, 2: -1, 3: 5}], 3),
                    ([{2: 1}, {0: 1, 1: 1}], 2)]:
        with pytest.raises(SingularRestrictedSystem):
            ref_solve_sparse(_copied(rows), m)
        with pytest.raises(SingularRestrictedSystem):
            linear._solve_sparse(_copied(rows), m)


@st.composite
def _small_systems(draw):
    m = draw(st.integers(1, 5))
    entry = st.integers(-6, 6).filter(bool)
    rows = [draw(st.dictionaries(st.integers(0, m), entry, max_size=m + 1))
            for _ in range(m)]
    return rows, m


@given(case=_small_systems())
def test_in_place_solve_matches_the_copying_reference_on_small_systems(case):
    rows, m = case
    try:
        expected = ref_solve_sparse(_copied(rows), m)
    except SingularRestrictedSystem:
        with pytest.raises(SingularRestrictedSystem):
            linear._solve_sparse(_copied(rows), m)
    else:
        assert linear._solve_sparse(_copied(rows), m) == expected


# the random systems and split copies of the on-demand solve's cases
WALK_CASES = ON_DEMAND_SYSTEMS[:18]


def _random_config(rng, n, density=0.4):
    # fresh zero objects, never the shared one dirac uses
    return tuple(F(rng.randint(-5, 5), rng.randint(1, 7)) if rng.random() < density
                 else F(0) for _ in range(n))


@pytest.mark.parametrize("index", range(len(WALK_CASES)))
def test_walk_equals_the_chain_of_steps(index, monkeypatch):
    pts = WALK_CASES[index]
    rep = build_rep(pts)
    rng = random.Random(index)
    starts = [to_ints(dirac(rep, state), rep.dim) for state in pts.states]
    starts += [to_ints(_random_config(rng, rep.dim), rep.dim) for _ in range(3)]
    for u in starts:
        word = tuple(rng.choice(pts.alphabet) for _ in range(rng.randint(0, 8)))
        before = dict(u[0]), u[1]
        chained = u
        for length in range(len(word) + 1):
            if length:
                chained = int_walk(rep, chained, (word[length - 1],))
            assert int_walk(rep, u, word[:length]) == chained
        assert u == before
    # words of 200 letters or more, read at a few lengths: a walk reduces
    # its terms between some letters and not between others
    reductions, lowest = [0], linear._lowest

    def counting_lowest(nums, den):
        reductions[0] += 1
        return lowest(nums, den)

    monkeypatch.setattr(linear, "_lowest", counting_lowest)
    between = []
    for u in starts:
        word = tuple(rng.choice(pts.alphabet) for _ in range(rng.randint(200, 240)))
        checked = {1, 2, 100, 199, len(word)} | set(rng.sample(range(len(word)), 3))
        chained = u
        for length in range(1, len(word) + 1):
            chained = int_walk(rep, chained, (word[length - 1],))
            if length in checked:
                reductions[0] = 0
                assert int_walk(rep, u, word[:length]) == chained
        # the last count is the whole word's, one of them at its end, and
        # len(word) - 1 the number of places between its letters
        between.append((reductions[0] - 1, len(word) - 1))
    assert any(done < places for done, places in between)
    # with every move probability an integer no denominator ever grows
    assert any(done for done, _ in between) or max(d for _, d in rep.steps.values()) == 1


# x loops with probability 1 on the one letter, whose moves from y have
# denominator 6: walking x's unit vector without ever reducing ends at
# 6^1000 / 6^1000, 2,585 bits on each side
LOOP_PTS = pts_of(("a",), ("x", "y"), {"x": F(0), "y": F(1, 6)},
                  {("x", "a", "x"): F(1), ("y", "a", "x"): F(1, 2), ("y", "a", "y"): F(1, 3)})


@pytest.mark.parametrize("pts, state", [(LOOP_PTS, "x"), (UNARY_CHAINS[0], "b0p")],
                         ids=["loop", "unary"])
def test_long_walks_keep_their_entries_bounded(pts, state, walk_steps):
    # every product reads entries of at most twice the bits of the widest
    # lowest-terms denominator along the walk, plus the letter's, plus one
    rep = build_rep(pts)
    u, word = to_ints(dirac(rep, state), rep.dim), ("a",) * 1000
    chained, widest = u, 1
    for letter in word:
        chained = int_walk(rep, chained, (letter,))
        widest = max(widest, chained[1].bit_length())
    walk_steps.clear()
    assert int_walk(rep, u, word) == chained
    # the wrappers saw every step, whichever accumulator took it
    assert len(walk_steps) == len(word)
    largest = max(abs(x) for _, nums in walk_steps for x in nums.values())
    bound = 2 * widest + rep.steps["a"][1].bit_length() + 1
    assert largest.bit_length() <= bound
    if pts is LOOP_PTS:
        assert chained == ({0: 1}, 1) and bound == 6


# the two-letter split copy of the step tests (n = 15), a unary split copy
# (n = 54) and a four-letter sink split copy (n = 36, where a quarter of
# the states is a whole number)
ACCUMULATOR_CASES = [STEP_PTS, UNARY_CHAINS[0], sink_split_pts(random.Random(13), 10, 4)]


def _signed_vector(rng, n, size):
    return {k: rng.choice((-1, 1)) * rng.randint(1, 60) for k in rng.sample(range(n), size)}


def _cancelling(rng, columns, d):
    """d scaled, with one entry changed, so that the product's terms at a
    target of that entry's column cancel: ``(vector, target)``, or None
    when every such change would clear the entry."""
    for k in rng.sample(sorted(d), len(d)):
        if columns[k]:
            j, p = rng.choice(columns[k])
            total = sum(q * d[i] for i in d for t, q in columns[i] if t == j)
            if x := p * d[k] - total:
                return {**{i: p * y for i, y in d.items()}, k: x}, j
    return None


@pytest.mark.parametrize("index", range(len(ACCUMULATOR_CASES)))
def test_the_two_accumulators_agree_with_the_reference(index, walk_steps):
    # seeded signed vectors on both sides of the switch (a quarter of the
    # states), the full support, the empty vector and products whose terms
    # cancel: equal dicts, no zero stored, the dense one in index order; a
    # one-letter walk takes the dense one exactly past a quarter
    pts = ACCUMULATOR_CASES[index]
    rep, mats, n = build_rep(pts), ref_mats(pts), len(pts.states)
    rng = random.Random(300 + index)
    vectors = [{}] + [_signed_vector(rng, n, size)
                      for size in (n // 4, n // 4 + 1, n) for _ in range(4)]
    cancelled = set()
    for letter in pts.alphabet:
        columns, denominator = rep.steps[letter]
        for d in vectors:
            walk_steps.clear()
            int_walk(rep, (d, 1), (letter,))
            assert [kind for kind, _ in walk_steps] == ["dense" if 4 * len(d) > n else "sparse"]
            cases = [(d, None)]
            if d and (case := _cancelling(rng, columns, d)):
                cases.append(case)
            for v, target in cases:
                sparse, dense = linear._sparse_product(columns, v), linear._dense_product(columns, v)
                assert sparse == dense and 0 not in dense.values()
                assert list(dense) == sorted(dense)
                assert from_ints((dense, denominator), n) == \
                    ref_step(mats, from_ints((v, 1), n), letter)
                if target is not None:
                    assert target not in dense
                    cancelled.add(len(v))
    assert cancelled == {n // 4, n // 4 + 1, n}


@pytest.mark.parametrize("pts", UNARY_CHAINS, ids=["n54", "n60"])
def test_walks_crossing_the_switch_equal_the_chain_of_steps(pts, walk_steps):
    # b0p's support grows past a quarter of the states a few letters in:
    # the walk moves from the dict accumulator to the list one
    rep, mats = build_rep(pts), ref_mats(pts)
    u, word = to_ints(dirac(rep, "b0p"), rep.dim), ("a",) * 40
    chained, reference = u, dirac(rep, "b0p")
    for letter in word:
        chained = int_walk(rep, chained, (letter,))
        reference = ref_step(mats, reference, letter)
    walk_steps.clear()
    assert int_walk(rep, u, word) == chained == to_ints(reference, rep.dim)
    kinds = [kind for kind, _ in walk_steps]
    switch = kinds.index("dense")
    assert 0 < switch and kinds == ["sparse"] * switch + ["dense"] * (len(word) - switch)
    assert all((4 * len(nums) > rep.dim) == (kind == "dense") for kind, nums in walk_steps)


def test_a_walk_reads_its_word_once_and_names_an_undeclared_letter(yz_rep):
    u, word = to_ints(dirac(yz_rep, "y"), yz_rep.dim), ("b", "a", "b", "b", "a")
    read = []

    def letters(word):
        for letter in word:
            read.append(letter)
            yield letter

    expected = int_walk(yz_rep, u, word)
    assert int_walk(yz_rep, u, letters(word)) == expected
    assert read == list(word)
    for bad in (("z",), ("a", "b", "z", "a"), letters(("a", "z"))):
        with pytest.raises(UnknownIdentifier, match=r"^undeclared letter 'z'$"):
            int_walk(yz_rep, u, bad)


def ref_to_ints(u):
    den = lcm(*(x.denominator for x in u if x))
    return {k: int(x * den) for k, x in enumerate(u) if x}, den


def ref_measure(star, mats, mass, u, target):
    if isinstance(target, Empty):
        return _ZERO
    for letter in getattr(target, "word", ()):
        u = ref_step(mats, u, letter)
    total = sum(u, _ZERO)
    finite = sum((a * b for a, b in zip(mass, u)), _ZERO)
    if isinstance(target, FiniteWord):
        return sum((s * x for s, x in zip(star, u)), _ZERO)
    if isinstance(target, (Cone, All)):
        return total
    return finite if isinstance(target, AllFinite) else total - finite


@pytest.mark.parametrize("index", range(len(WALK_CASES)))
def test_start_vectors_match_the_fraction_reference(index):
    # fresh zeros, negative entries, all-zero vectors and a unit vector
    # with one extra entry: to_ints, step and measure agree with the
    # Fraction reference
    pts = WALK_CASES[index]
    rep, mats, mass = build_rep(pts), ref_mats(pts), ref_finite_mass(pts)
    n, star = rep.dim, l_star(pts)
    rng = random.Random(index)
    mixed = list(dirac(rep, pts.states[0]))
    mixed[-1] = F(-2, 3) if n > 1 else F(5, 4)
    configs = [_random_config(rng, n) for _ in range(4)]
    configs += [tuple(F(0) for _ in range(n)), (linear._ZERO,) * n, tuple(mixed)]
    assert not any(x is linear._ZERO for u in configs[:5] for x in u)
    word = tuple(rng.choice(pts.alphabet) for _ in range(3))
    targets = [Empty(), FiniteWord(word), Cone(word), InfCone(word), AllFinite(),
               AllInfinite(), All(), FiniteWord(()), InfCone(())]
    for u in configs:
        assert to_ints(u, n) == ref_to_ints(u)
        for letter in pts.alphabet:
            assert step(rep, u, letter) == ref_step(mats, u, letter)
        for target in targets:
            assert measure(rep, u, target) == ref_measure(star, mats, mass, u, target)
    assert to_ints(configs[-3], n) == ({}, 1) == to_ints(configs[-2], n)


def test_step_and_to_ints_refuse_a_configuration_of_the_wrong_length(worked_rep):
    u = dirac(worked_rep, "x")
    for wrong in (u[:-1], u + (F(0),), ()):
        with pytest.raises(ValueError, match=f"length {len(wrong)}, expected 4"):
            to_ints(wrong, worked_rep.dim)
        with pytest.raises(ValueError, match=f"length {len(wrong)}, expected 4"):
            step(worked_rep, wrong, "a")

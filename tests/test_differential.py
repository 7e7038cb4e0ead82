"""The sparse integer kernel against the dense Fraction code it replaced.

The reference below is the earlier implementation, kept small: dense
``mats`` built entry by entry from the system, a dense Fraction ``step``,
a Fraction reduced row-echelon ``CongruenceBasis``, the shared worklist
loop and the dense finite-mass solve.  Split-copy systems make the basis
grow, so the basis paths are exercised, not just the clone shortcut.
Split copies with non-terminating sinks, closed live and dead components,
self-loops and certain stops exercise the pivot order of the sparse
finite-mass solve; small ones are also checked against ``brute_measure``.
Queries from every state in random orders on one representation check the
on-demand solve, where each query solves only the states it reaches.
"""

import random
from bisect import bisect_left
from collections import deque
from fractions import Fraction

import pytest

from ptstrace import (AllFinite, AllInfinite, Cone, CongruenceBasis,
                      Equivalent, Extraction, FiniteWord, Inconclusive,
                      InfCone, NotEquivalent, OutputKind, Pts, brute_measure,
                      build_rep, dirac, finite_mass_vector, hk, hkc_finite,
                      hkc_inf, measure, naive, step)

from systems import (all_words, components_pts, random_pts, sink_split_pts,
                     split_copy_pts)

F = Fraction
_ZERO = F(0)
_ONE = F(1)


def ref_mats(pts):
    return {letter: tuple(tuple(pts.moves.get((source, letter, target), _ZERO)
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
    mats = ref_mats(pts)
    l_star = tuple(pts.stop(s) for s in pts.states)
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
        outputs = [(OutputKind.TERMINATION, l_star)]
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
    l_star = [pts.stop(s) for s in pts.states]
    live = {k for k in range(n) if l_star[k]}
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
    b = [l_star[k] for k in order]
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
            assert basis.pivots == store.basis.pivots


@pytest.mark.parametrize("index", range(0, len(SYSTEMS), 8))
def test_budgeted_searches_match_dense_reference(index):
    for pts, x, y in SYSTEMS[index:index + 8]:
        rep = build_rep(pts)
        for algorithm, store in ((naive, RefPairs()), (hk, RefClosure())):
            expected, expected_trace = ref_decide(pts, x, y, store, True, max_steps=40)
            trace = []
            assert algorithm(rep, x, y, 40, trace=trace) == expected
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
        assert basis.pivots == store.basis.pivots


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
            assert basis.pivots == reference.pivots


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
    assert any(pts.moves.get((s, a, s)) for pts in SOLVE_SYSTEMS for s in pts.states
               for a in pts.alphabet)


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
    return Pts(pts.alphabet, pts.states, dict(zip(pts.states, term)), pts.moves)


@pytest.mark.parametrize("index", [i for i, pts in enumerate(SOLVE_SYSTEMS)
                                   if len(pts.states) <= 12])
def test_finite_mass_queries_match_brute_measure(index):
    pts = SOLVE_SYSTEMS[index]
    rep = build_rep(pts)
    mass = finite_mass_vector(rep)
    by_mass = _with_stop(pts, mass)
    words = all_words(pts.alphabet, 2)
    for k, state in enumerate(pts.states):
        u = dirac(rep, state)
        finite = measure(rep, u, AllFinite())
        # the fixed point, one letter at a time, and the partial sums below it
        assert finite == mass[k] == pts.stop(state) + sum(
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


def _walk(rng, pts, state, length):
    # a random word along the moves of one run; it may end in a sink
    word = []
    for _ in range(length):
        moves = [(letter, target) for (source, letter, target), p in pts.moves.items()
                 if source == state and p]
        if not moves:
            break
        letter, state = rng.choice(sorted(moves))
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
        small = len(pts.states) <= 12
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
                    word, end = _walk(rng, pts, state, rng.randint(0, 6))
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
        rep = build_rep(pts)
        states = list(pts.states)
        rng.shuffle(states)
        for state in states:
            word, end = _walk(rng, pts, state, 8)
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

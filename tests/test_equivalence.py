"""Congruence basis maintenance and the four equivalence procedures."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from ptstrace import (CongruenceBasis, Equivalent, FiniteWord,
                      Inconclusive, InvariantError, NotEquivalent, OutputKind,
                      brute_measure, build_rep, dirac, hk, hkc_finite,
                      hkc_inf, measure, naive, parse_pts, step,
                      word_oracle_equiv)
from ptstrace.equivalence import _check_certificate, _checked_bound, _start
from ptstrace.linear import to_ints

from systems import (document, load, omitted_extractions, random_pts, sink_split_pts,
                     split_copy_pts)

F = Fraction
# the output rows hkc_inf and hkc_finite check, in check order
FULL = (OutputKind.TOTAL_MASS, OutputKind.TERMINATION)
FINITE = (OutputKind.TERMINATION,)


def test_basis_contains_worked_query():
    basis = CongruenceBasis(4)
    basis.insert((F(1), F(0), F(0), F(0)), (F(0), F(0), F(1), F(0)))
    basis.insert((F(0), F(1, 6), F(0), F(1, 2)), (F(0), F(0), F(1, 3), F(1, 3)))
    assert basis.rank == 2
    assert basis.contains((F(0), F(1, 18), F(0), F(1, 2)),
                          (F(0), F(0), F(1, 9), F(4, 9)))


def test_empty_basis_contains_equal_vectors():
    basis = CongruenceBasis(3)
    u = (F(1, 2), F(0), F(5))
    assert basis.contains(u, u)
    assert not basis.contains(u, (F(0), F(0), F(5)))


def test_basis_rejects_non_multiple():
    basis = CongruenceBasis(2)
    basis.insert((F(1), F(0)), (F(0), F(1)))
    # 1/2 e_y - 3/4 e_z is no scalar multiple of e_y - e_z:
    # the 2x2 determinant |1 1; 1/2 -3/4| is nonzero
    assert not basis.contains((F(1, 2), F(0)), (F(0), F(3, 4)))


def test_basis_insert_single_reduction():
    basis = CongruenceBasis(4)
    changed = basis.insert((F(1), F(0), F(0), F(0)), (F(0), F(0), F(1), F(0)))
    assert changed
    assert sorted(basis._rows) == [0]
    assert basis.rows == [[F(1), F(0), F(-1), F(0)]]


def test_basis_insert_same_vector_is_noop():
    basis = CongruenceBasis(3)
    u = (F(1, 3), F(2, 3), F(0))
    assert not basis.insert(u, u)
    assert basis.rank == 0
    assert not basis.insert(u, u)
    assert basis.rank == 0


def test_basis_rejects_configurations_of_the_wrong_length():
    basis = CongruenceBasis(3)
    e0, e1 = (F(1), F(0), F(0)), (F(0), F(1), F(0))
    basis.insert(e0, e1)
    rows, pivots = basis.rows, sorted(basis._rows)
    for u, v in [((F(1), F(0)), (F(0), F(1))),
                 ((F(1), F(0), F(0), F(7)), e1),
                 ((F(1), F(0), F(0), F(0), F(1)), (F(0),) * 5)]:
        for method in (basis.contains, basis.insert):
            with pytest.raises(ValueError, match=r"has length \d, expected 3"):
                method(u, v)
    assert basis.rows == rows and sorted(basis._rows) == pivots


def test_basis_views_cannot_corrupt_the_basis():
    basis = CongruenceBasis(3)
    e0, e1, e2 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    # the second pair brings the smaller pivot
    assert basis.insert(e2, e1)
    assert basis.insert(e0, e1)
    assert sorted(basis._rows) == [0, 1]
    assert basis.rows == [[F(1), F(0), F(-1)], [F(0), F(1), F(-1)]]
    basis.rows.reverse()
    assert basis.contains(e0, e2)
    assert sorted(basis._rows) == [0, 1]
    assert basis.rows == [[F(1), F(0), F(-1)], [F(0), F(1), F(-1)]]


def test_basis_add_never_rewrites_a_stored_row():
    basis = CongruenceBasis(3)
    e0, e1, e2 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    assert basis.insert(e0, e1)
    assert basis.insert(e1, e2)
    # rows are written once in echelon form; only the rows view is reduced
    assert basis._rows[0] == {0: 1, 1: -1}
    assert basis.rows == [[F(1), F(0), F(-1)], [F(0), F(1), F(-1)]]
    assert sorted(basis._rows) == [0, 1]


def test_record_stores_a_pivot_free_difference_as_its_row():
    # a difference that holds no pivot is its own residual: primitive with
    # a positive first entry it is stored and returned as the same object,
    # with its scale unchanged; otherwise divided by its signed content c,
    # with den * c
    basis = CongruenceBasis(6)
    d = {1: 3, 4: -2}
    stepped = basis.record(d, 7, 5)
    assert stepped[0] is d and basis._rows[1] is d and stepped[1:] == (7, 5)
    for d, content, row in (({0: 4, 2: 8}, 4, {0: 1, 2: 2}),
                            ({2: -6, 3: 9}, -3, {2: 2, 3: -3})):
        assert basis.record(d, 7, 5) == (row, 7, 5 * content)
        assert basis._rows[min(d)] == row and basis._rows[min(d)] is not d
    assert list(basis._rows) == [1, 0, 2]


def _sized_record(basis, d, num, den):
    # record as it was before pivot-free differences were stored as they
    # are: the row always a new dict, and the smaller of it and d stepped
    residual, multiple, divisor = basis._reduce(d)
    if not residual:
        return None
    pivot = min(residual)
    content = gcd(*residual.values())
    if residual[pivot] < 0:
        content = -content
    row = basis._rows[pivot] = {j: x // content for j, x in residual.items()}
    if sum(map(int.bit_length, row.values())) <= sum(map(int.bit_length, d.values())):
        return row, num * multiple, den * divisor * content
    return d, num, den


def test_record_returns_what_the_sized_record_returns():
    rng = random.Random(67)
    pivot_free = 0
    for _ in range(200):
        dim = rng.randint(1, 8)
        basis, sized = CongruenceBasis(dim), CongruenceBasis(dim)
        for _ in range(2 * dim):
            d = {j: x for j in range(dim) if (x := rng.choice((0, 0, 1, -1, 2, -4, 6, 9)))}
            if not d:
                continue
            pivot_free += not any(j in basis._rows for j in d)
            num, den = rng.randint(1, 9), rng.choice((1, -2, 3))
            assert basis.record(d, num, den) == _sized_record(sized, dict(d), num, den)
            assert list(basis._rows.items()) == list(sized._rows.items())
    assert pivot_free >= 200


def test_basis_two_rows_from_worked_loops():
    basis = CongruenceBasis(4)
    basis.insert((F(1), F(0), F(0), F(0)), (F(0), F(0), F(1), F(0)))
    basis.insert((F(0), F(1, 6), F(0), F(1, 2)), (F(0), F(0), F(1, 3), F(1, 3)))
    assert len(basis.rows) == 2


def test_basis_stays_in_reduced_row_echelon_form():
    rng = random.Random(61)
    for _ in range(30):
        dim = rng.randint(1, 6)
        basis = CongruenceBasis(dim)
        for _ in range(10):
            u = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim))
            v = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim))
            basis.insert(u, v)
            pivots = sorted(basis._rows)
            assert pivots == sorted(set(pivots))
            for row, pivot in zip(basis.rows, pivots):
                assert row[pivot] == 1
                assert all(row[j] == 0 for j in range(pivot))
                for other, other_pivot in zip(basis.rows, pivots):
                    if other_pivot != pivot:
                        assert other[pivot] == 0
            if basis.rank == dim:
                break


def test_hkc_inf_worked_run(worked_rep):
    trace = []
    result = hkc_inf(worked_rep, "x", "z", trace=trace, debug=True)
    assert result == Equivalent(iterations=3, relation_size=2)
    assert len(trace) == 3
    assert not trace[0].skipped and not trace[1].skipped and trace[2].skipped


def test_hkc_inf_two_letter_counterexample(yz_rep):
    result = hkc_inf(yz_rep, "y", "z")
    assert isinstance(result, NotEquivalent)
    assert result.witness == ("a",)
    assert result.output == OutputKind.TOTAL_MASS
    assert (result.lhs, result.rhs) == (F(1, 2), F(3, 4))


def test_hkc_inf_half_loop_single_insert(half_loop_rep):
    result = hkc_inf(half_loop_rep, "x", "y")
    assert isinstance(result, Equivalent)
    assert result.relation_size == 1


def test_hkc_finite_ignores_infinite_difference(yz_rep, worked_rep):
    assert isinstance(hkc_finite(yz_rep, "y", "z"), Equivalent)
    assert isinstance(hkc_finite(worked_rep, "x", "z"), Equivalent)


def test_hkc_finite_termination_witness():
    rep = build_rep(parse_pts(json.dumps({
        "alphabet": ["a"],
        "states": ["x", "y"],
        "transitions": {
            "x": {"stop": "1"},
            "y": {"moves": [{"letter": "a", "to": "y", "p": "1"}]},
        },
    })))
    result = hkc_finite(rep, "x", "y")
    assert isinstance(result, NotEquivalent)
    assert result.witness == ()
    assert result.output == OutputKind.TERMINATION
    assert (result.lhs, result.rhs) == (F(1), F(0))


def test_naive_half_loop_exhausts_budget(half_loop_rep):
    assert naive(half_loop_rep, "x", "y", 100) == \
        Inconclusive(steps_exhausted=100, relation_size=100)
    assert hk(half_loop_rep, "x", "y", 100) == \
        Inconclusive(steps_exhausted=100, relation_size=100)


def test_naive_on_identical_state_with_fixed_point(chain_rep):
    # x maps to itself on a, so the self pair repeats and naive closes
    # within |alphabet| + 1 extractions
    result = naive(chain_rep, "x", "x", 10)
    assert isinstance(result, Equivalent)
    assert result.iterations <= len(chain_rep.alphabet) + 1


def test_hk_closes_self_pair_by_reflexivity(chain_rep, half_loop_rep):
    for rep in (chain_rep, half_loop_rep):
        for state in rep.states:
            result = hk(rep, state, state, 10)
            assert result == Equivalent(iterations=1, relation_size=0)


def test_hk_two_letter_counterexample(yz_rep):
    result = hk(yz_rep, "y", "z", 50)
    assert isinstance(result, NotEquivalent)
    assert result.witness == ("a",)


def test_step_budget_must_be_positive(half_loop_rep):
    with pytest.raises(ValueError):
        naive(half_loop_rep, "x", "y", 0)
    with pytest.raises(ValueError):
        hk(half_loop_rep, "x", "y", -3)


def test_hkc_iteration_bound_on_random_systems():
    rng = random.Random(67)
    for _ in range(80):
        pts = random_pts(rng)
        rep = build_rep(pts)
        x, y = rng.choice(pts.states), rng.choice(pts.states)
        result = hkc_inf(rep, x, y)
        bound = 1 + len(rep.alphabet) * rep.dim
        if isinstance(result, (Equivalent, NotEquivalent)):
            assert result.iterations <= bound
            assert result.relation_size <= rep.dim
        else:
            pytest.fail("hkc_inf may not be inconclusive")


def test_hkc_agrees_with_word_oracle():
    rng = random.Random(71)
    for _ in range(80):
        pts = random_pts(rng)
        rep = build_rep(pts)
        x, y = rng.choice(pts.states), rng.choice(pts.states)
        decided = isinstance(hkc_inf(rep, x, y, debug=True), Equivalent)
        oracle = word_oracle_equiv(rep, dirac(rep, x), dirac(rep, y), rep.dim)
        assert decided == oracle


def test_counterexamples_revalidate():
    rng = random.Random(73)
    checked = 0
    for _ in range(80):
        pts = random_pts(rng, clone_prob=0.0)
        rep = build_rep(pts)
        x, y = rng.choice(pts.states), rng.choice(pts.states)
        result = hkc_inf(rep, x, y)
        if not isinstance(result, NotEquivalent):
            continue
        checked += 1
        # independent of the kernel: path enumeration on the witness set
        witness = result.output.target(result.witness)
        lhs, rhs = (brute_measure(pts, s, witness) for s in (x, y))
        assert (lhs, rhs) == (result.lhs, result.rhs)
        assert lhs != rhs
    assert checked >= 20


def test_full_equivalence_implies_finite_equivalence():
    rng = random.Random(79)
    for _ in range(60):
        pts = random_pts(rng)
        rep = build_rep(pts)
        x, y = rng.choice(pts.states), rng.choice(pts.states)
        if isinstance(hkc_inf(rep, x, y), Equivalent):
            assert isinstance(hkc_finite(rep, x, y), Equivalent)


def _terminations_agree(rep, u, v, depth):
    # finite-trace analogue of the word oracle: compare the termination
    # output only, on every word up to the given depth
    if measure(rep, u, FiniteWord(())) != measure(rep, v, FiniteWord(())):
        return False
    if depth == 0:
        return True
    return all(_terminations_agree(rep, step(rep, u, a), step(rep, v, a), depth - 1)
               for a in rep.alphabet)


def test_hkc_finite_agrees_with_termination_only_oracle():
    rng = random.Random(101)
    for _ in range(60):
        pts = random_pts(rng)
        rep = build_rep(pts)
        x, y = rng.choice(pts.states), rng.choice(pts.states)
        decided = isinstance(hkc_finite(rep, x, y, debug=True), Equivalent)
        oracle = _terminations_agree(rep, dirac(rep, x), dirac(rep, y), rep.dim)
        assert decided == oracle


def test_iteration_bound_breach_raises(worked_rep):
    bound = 1 + len(worked_rep.alphabet) * worked_rep.dim
    within = Equivalent(iterations=bound, relation_size=worked_rep.dim)
    assert _checked_bound(worked_rep, within) is within
    # the budget is the bound: an hkc run that spends it has broken it
    with pytest.raises(InvariantError):
        _checked_bound(worked_rep, Inconclusive(steps_exhausted=bound, relation_size=1))
    with pytest.raises(InvariantError):
        _checked_bound(worked_rep, Equivalent(iterations=1,
                                              relation_size=worked_rep.dim + 1))


def test_add_refuses_a_related_pair(worked_rep):
    basis = CongruenceBasis(worked_rep.dim)
    u, v = dirac(worked_rep, "x"), dirac(worked_rep, "z")
    assert basis.insert(u, v)
    assert basis.contains(u, v)
    assert not basis.insert(u, v)
    assert not basis.insert(v, u)
    assert basis.rank == 1


@pytest.mark.parametrize("algorithm", [naive, hk])
@pytest.mark.parametrize("max_steps", [0, -1])
def test_budgeted_runs_refuse_a_budget_below_one(worked_rep, algorithm, max_steps):
    trace = []
    with pytest.raises(ValueError, match=r"^max_steps must be >= 1$"):
        algorithm(worked_rep, "x", "z", max_steps, trace=trace)
    assert trace == []


@pytest.mark.parametrize("algorithm", [naive, hk])
@pytest.mark.parametrize("max_steps", [5.5, 5.0, float("inf"), "5", None])
def test_budgeted_runs_refuse_a_budget_that_is_not_an_integer(worked_rep, algorithm, max_steps,
                                                              monkeypatch):
    # x and z never separate, so the run ends only when node == max_steps:
    # with 5.5 or inf it would never end, so no run may start
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr("ptstrace.equivalence._decide", no_run)
    trace = []
    with pytest.raises(TypeError):
        algorithm(worked_rep, "x", "z", max_steps, trace=trace)
    assert trace == []


@pytest.mark.parametrize("algorithm", [naive, hk])
def test_budgeted_runs_take_any_integer_budget(worked_rep, algorithm):
    np = pytest.importorskip("numpy")
    expected = Inconclusive(steps_exhausted=5, relation_size=5)
    for max_steps in (5, np.int64(5), np.uint8(5)):
        trace = []
        result = algorithm(worked_rep, "x", "z", max_steps, trace=trace)
        assert result == expected and type(result.steps_exhausted) is int
        assert len(trace) == 5


def _keeping_items(monkeypatch) -> list:
    # the items the hkc record returns for the extractions it records, in order
    items, record = [], CongruenceBasis.record

    def keeping_record(self, d, num, den):
        if (result := record(self, d, num, den)) is not None:
            items.append(result)
        return result

    monkeypatch.setattr(CongruenceBasis, "record", keeping_record)
    return items


def test_one_reduction_per_extraction(monkeypatch):
    # every extraction the run steps is reduced once, and only the ones
    # that step a vector with no move on their letter are not stepped
    calls = 0
    reduce = CongruenceBasis._reduce

    def counting(self, w):
        nonlocal calls
        calls += 1
        return reduce(self, w)

    monkeypatch.setattr(CongruenceBasis, "_reduce", counting)
    items = _keeping_items(monkeypatch)
    pts = split_copy_pts(random.Random(9), max_base=10, max_letters=2)
    rep = build_rep(pts)
    for decide in (hkc_inf, hkc_finite):
        calls = 0
        items.clear()
        trace = []
        result = decide(rep, "a0", "b0p", trace=trace)
        assert isinstance(result, Equivalent)
        assert result.relation_size >= 10
        omitted = len(omitted_extractions(rep, trace, items))
        assert omitted >= 1
        assert calls == result.iterations - omitted


def test_hkc_steps_one_difference_per_recorded_pair(walk_steps, monkeypatch):
    # every kernel step, of a configuration or of a difference vector, is
    # one product through either accumulator.  Stepping both configurations
    # of every recorded pair takes twice this; an entry is stepped when it
    # is extracted, so a run that separates steps exactly its extractions
    # after the first, and a counterexample's values add one walk of the
    # witness.  The perturbed document's witness is extracted while entries
    # are still queued, which a run stepping them when queued would step
    # too.  An extraction of a vector with no move on its letter is not
    # stepped; they are counted on a traced run, whose trace takes steps of
    # its own, of the items the run records
    items, all_omitted = _keeping_items(monkeypatch), 0
    equivalent = split_copy_pts(random.Random(9), max_base=10, max_letters=2)
    perturbed = sink_split_pts(random.Random(3), 10, 2, perturb=True)
    for pts, verdict in ((equivalent, Equivalent), (perturbed, NotEquivalent)):
        rep = build_rep(pts)
        for decide in (hkc_inf, hkc_finite):
            items.clear()
            trace = []
            decide(rep, "a0", "b0p", trace=trace)
            omitted = len(omitted_extractions(rep, trace, items))
            all_omitted += omitted
            walk_steps.clear()
            result = decide(rep, "a0", "b0p")
            assert isinstance(result, verdict)
            assert result.relation_size >= 10
            steps = result.relation_size * len(rep.alphabet)
            if verdict is Equivalent:
                assert len(walk_steps) == steps - omitted
            else:
                assert len(result.witness) >= 5 and result.iterations - 1 < steps
                assert len(walk_steps) == result.iterations - 1 - omitted + len(result.witness)
    assert all_omitted >= 1


def test_pair_searches_read_counterexample_values_from_the_pair(walk_steps):
    # naive and hk step both configurations of every extracted pair after
    # the first, and nothing more: the separating pair's outputs are the values
    rng = random.Random(83)
    found = 0
    for _ in range(4):
        pts = split_copy_pts(rng, max_base=20, max_letters=2, perturb=True)
        rep = build_rep(pts)
        for k in range(len(pts.states) // 3):
            for decide in (naive, hk):
                walk_steps.clear()
                result = decide(rep, f"a{k}", f"b{k}p", 600)
                if isinstance(result, NotEquivalent):
                    found += len(result.witness) >= 3
                    assert len(walk_steps) == 2 * (result.iterations - 1)
    assert found >= 10


@pytest.mark.parametrize("letters", [2, 4])
def test_witness_runs_never_step_what_is_still_queued(letters, monkeypatch):
    # an entry is stepped when it is extracted: the successor calls step,
    # in order, the vector recorded at the parent of each extraction after
    # the first but those that step a vector with no move on their letter,
    # and a run that stops at a witness leaves entries queued that it never
    # stepped
    recorded, stepped = [], []
    record, successor = CongruenceBasis.record, CongruenceBasis.successor

    def recording_record(self, d, *scale):
        recorded.append(result := record(self, d, *scale))
        return result

    def recording_step(step, item):
        stepped.append(item)
        return successor(step, item)

    monkeypatch.setattr(CongruenceBasis, "record", recording_record)
    monkeypatch.setattr(CongruenceBasis, "successor", staticmethod(recording_step))
    rng = random.Random(71)
    documents = [sink_split_pts(random.Random(seed), 30, letters, perturb=True)
                 for seed in range(3)]
    runs = unstepped = 0
    while runs < 18:
        pts = documents.pop() if documents else _letters_exactly(
            rng, letters, max_base=20, perturb=True)
        rep = build_rep(pts)
        for decide in (hkc_inf, hkc_finite):
            recorded.clear()
            stepped.clear()
            trace = []
            result = decide(rep, "a0", "b0p", trace=trace)
            if not isinstance(result, NotEquivalent):
                continue
            runs += 1
            items = [item for item in recorded if item is not None]
            omitted = set(omitted_extractions(rep, trace, items))
            at = dict(zip((e.word for e in trace if not e.skipped), items, strict=True))
            parents = [at[e.word[:-1]] for node, e in enumerate(trace[1:], 1)
                       if node not in omitted]
            assert len(stepped) == result.iterations - 1 - len(omitted)
            assert all(item is parent for item, parent in zip(stepped, parents, strict=True))
            # every recorded pair but the witness's queued one entry per letter
            unstepped += 1 + letters * result.relation_size - result.iterations
    assert unstepped >= 20


class _RowVector(dict):
    """A stepped vector on whose path the run stepped an echelon row."""


def _mark_row_paths(monkeypatch):
    # marks the vectors record returns as rows, and every successor of a
    # marked vector; returns the list of witness items' marks
    marks = []
    record, successor, values = (CongruenceBasis.record, CongruenceBasis.successor,
                                 CongruenceBasis.values)

    def marking_record(self, d, *scale):
        result = record(self, d, *scale)
        if result is not None and result[0] is not d:
            return (_RowVector(result[0]),) + result[1:]
        return result

    def marking_successor(step, item):
        result = successor(step, item)
        if isinstance(item[0], _RowVector):
            return (_RowVector(result[0]),) + result[1:]
        return result

    def marking_values(rep, x, word, item, kind):
        marks.append(isinstance(item[0], _RowVector))
        return values(rep, x, word, item, kind)

    monkeypatch.setattr(CongruenceBasis, "record", marking_record)
    monkeypatch.setattr(CongruenceBasis, "successor", staticmethod(marking_successor))
    monkeypatch.setattr(CongruenceBasis, "values", staticmethod(marking_values))
    return marks


def _letters_exactly(rng, k, **kwargs):
    while len((pts := split_copy_pts(rng, max_letters=k, **kwargs)).alphabet) != k:
        pass
    return pts


def test_witness_values_are_measures_of_deep_witnesses(monkeypatch):
    rng = random.Random(83)
    depths = {algorithm: [] for algorithm in ("hkc_inf", "hkc_finite", "naive", "hk")}
    for _ in range(12):
        pts = split_copy_pts(rng, max_base=20, max_letters=2, perturb=True)
        rep = build_rep(pts)
        for k in range(len(pts.states) // 3):
            x, y = f"a{k}", f"b{k}p"
            results = {"hkc_inf": hkc_inf(rep, x, y), "hkc_finite": hkc_finite(rep, x, y),
                       "naive": naive(rep, x, y, 600), "hk": hk(rep, x, y, 600)}
            for algorithm, result in results.items():
                if not isinstance(result, NotEquivalent):
                    continue
                depths[algorithm].append(len(result.witness))
                target = result.output.target(result.witness)
                assert result.lhs == measure(rep, dirac(rep, x), target)
                assert result.rhs == measure(rep, dirac(rep, y), target)
                assert result.lhs != result.rhs
    for found in depths.values():
        assert len(found) >= 40
        assert sum(depth >= 4 for depth in found) >= 10

    # one and three letters: hkc's right-hand value is the left one minus
    # the witness item's output over its scale, which a path through an
    # echelon row takes from record
    marks = _mark_row_paths(monkeypatch)
    for letters in (1, 3):
        marked = brute = 0
        for _ in range(10):
            pts = _letters_exactly(rng, letters, max_base=20, perturb=True)
            rep = build_rep(pts)
            for k in range(len(pts.states) // 3):
                x, y = f"a{k}", f"b{k}p"
                for decide in (hkc_inf, hkc_finite):
                    marks.clear()
                    result = decide(rep, x, y)
                    if not isinstance(result, NotEquivalent):
                        assert not marks
                        continue
                    marked += marks == [True]
                    target = result.output.target(result.witness)
                    assert result.lhs == measure(rep, dirac(rep, x), target)
                    assert result.rhs == measure(rep, dirac(rep, y), target)
                    assert result.lhs != result.rhs
                    if rep.dim <= 30:
                        brute += 1
                        assert (result.lhs, result.rhs) == \
                            (brute_measure(pts, x, target), brute_measure(pts, y, target))
        assert marked >= 40 and brute >= 20


def test_certificate_check_raises_on_an_unhandled_successor(worked_rep):
    # rows holding the (x, z) item but not its a-successor are not closed
    # under M_a, so they do not prove an Equivalent
    basis = CongruenceBasis(worked_rep.dim)
    item = basis.item(*(to_ints(dirac(worked_rep, s), worked_rep.dim) for s in ("x", "z")))
    successor = basis.successor(worked_rep.steps["a"], item)
    assert any(successor[0])
    basis.record(*item)
    verdict = Equivalent(iterations=3, relation_size=2)
    with pytest.raises(InvariantError):
        _check_certificate(worked_rep, _start(worked_rep, "x", "z"), basis, verdict, FULL)
    basis.record(*successor)
    _check_certificate(worked_rep, _start(worked_rep, "x", "z"), basis, verdict, FULL)



def test_certificate_check_requires_the_checked_outputs_to_vanish(yz_rep):
    # the whole space holds e_y - e_z and is closed under every M_a; only
    # the total mass, which finite-trace equivalence drops, is nonzero on it
    basis = CongruenceBasis(yz_rep.dim)
    for state in ("y", "z"):
        basis.record({yz_rep.state_index(state): 1}, 1, 1)
    verdict = Equivalent(iterations=1, relation_size=2)
    _check_certificate(yz_rep, _start(yz_rep, "y", "z"), basis, verdict, FINITE)
    with pytest.raises(InvariantError):
        _check_certificate(yz_rep, _start(yz_rep, "y", "z"), basis, verdict, FULL)


def test_certificate_check_requires_the_witness_to_separate(worked_rep):
    # x and z agree on every word: their true values on a word prove nothing
    values = [measure(worked_rep, dirac(worked_rep, s), FiniteWord(("a",))) for s in "xz"]
    assert values[0] == values[1]
    verdict = NotEquivalent(("a",), OutputKind.TERMINATION, *values, 2, 1)
    with pytest.raises(InvariantError):
        _check_certificate(worked_rep, _start(worked_rep, "x", "z"),
                           CongruenceBasis(worked_rep.dim), verdict, FULL)


# x and y differ on the word a in both rows, with the same values: each
# stops with 1/2, then x moves on a with 1/2 and y with 1/3 (and on b with
# 1/6), and every successor stops
BOTH_ROWS_SEPARATE = document(
    ("a", "b"), ("x", "x1", "y", "y1", "y2"),
    {"x": F(1, 2), "x1": F(1), "y": F(1, 2), "y1": F(1), "y2": F(1)},
    {("x", "a", "x1"): F(1, 2), ("y", "a", "y1"): F(1, 3), ("y", "b", "y2"): F(1, 6)})


def test_the_first_checked_row_that_separates_is_reported():
    rep = build_rep(load(BOTH_ROWS_SEPARATE))
    runs = {hkc_inf: OutputKind.TOTAL_MASS, hkc_finite: OutputKind.TERMINATION,
            lambda *pair: naive(*pair, 60): OutputKind.TOTAL_MASS,
            lambda *pair: hk(*pair, 60): OutputKind.TOTAL_MASS}
    for decide, output in runs.items():
        result = decide(rep, "x", "y")
        assert isinstance(result, NotEquivalent)
        assert (result.witness, result.output) == (("a",), output)
        assert (result.lhs, result.rhs) == (F(1, 2), F(1, 3))


def test_certificate_check_requires_a_checked_row():
    # a total-mass witness proves nothing about finite words alone
    rep = build_rep(load(BOTH_ROWS_SEPARATE))
    start, verdict = _start(rep, "x", "y"), hkc_inf(rep, "x", "y", debug=True)
    assert verdict.output == OutputKind.TOTAL_MASS
    _check_certificate(rep, start, CongruenceBasis(rep.dim), verdict, FULL)
    with pytest.raises(InvariantError):
        _check_certificate(rep, start, CongruenceBasis(rep.dim), verdict, FINITE)


def _skipping_record(k):
    """A wrong store: from the k-th novel item on, it takes every item for
    one already related, so the run never sees that difference."""
    record = CongruenceBasis.record

    def skipping(self, d, num, den):
        return None if self.rank >= k - 1 else record(self, d, num, den)
    return skipping


def test_debug_catches_every_equivalent_of_a_store_that_skips_novel_items(monkeypatch):
    # the witnesses are 2-13 letters long, after recording 4-25 pairs
    reps = [build_rep(sink_split_pts(random.Random(seed), 15, 2, perturb=True))
            for seed in range(6)]
    wrong = caught = 0
    for rep in reps:
        for algorithm in (hkc_inf, hkc_finite):
            assert isinstance(algorithm(rep, "a0", "b0p"), NotEquivalent)
            for k in range(1, 40, 2):
                with monkeypatch.context() as patched:
                    patched.setattr(CongruenceBasis, "record", _skipping_record(k))
                    result = algorithm(rep, "a0", "b0p")
                    if not isinstance(result, Equivalent):
                        # an earlier difference is still a true witness
                        assert algorithm(rep, "a0", "b0p", debug=True) == result
                        continue
                    wrong += 1
                    # k = 1 records nothing: the run ends after its first item
                    assert k > 1 or result.relation_size == 0
                    with pytest.raises(InvariantError):
                        algorithm(rep, "a0", "b0p", debug=True)
                    caught += 1
    assert caught == wrong >= 100


class _RanOn(Exception):
    """A run went on past ten times its bound."""


@pytest.mark.parametrize("algorithm", [hkc_inf, hkc_finite])
def test_a_basis_that_never_grows_stops_at_the_rank_bound(worked_rep, monkeypatch, algorithm):
    # a record that stores no row takes every item for a new one, so no
    # rank growth ends the run: only its budget of 1 + |alphabet| * dim
    # extractions does, each recorded but those that step a vector with no
    # move on their letter
    split = build_rep(split_copy_pts(random.Random(3), max_base=6, max_letters=3))
    for rep, x, y in ((worked_rep, "x", "z"), (split, "a0", "b0p")):
        assert isinstance(algorithm(rep, x, y), Equivalent)
        bound = 1 + len(rep.alphabet) * rep.dim
        items = []

        def storing_nothing(self, d, num, den):
            items.append((d, num, den))
            if len(items) == 10 * bound:
                raise _RanOn
            return d, num, den

        trace = []
        with monkeypatch.context() as patched:
            patched.setattr(CongruenceBasis, "record", storing_nothing)
            with pytest.raises(InvariantError, match="exceeded its bound"):
                algorithm(rep, x, y, trace=trace)
        assert len(trace) == bound
        assert len(items) == bound - len(omitted_extractions(rep, trace, items))


def test_debug_catches_a_shifted_rhs(monkeypatch):
    pts = split_copy_pts(random.Random(0), max_base=14, max_letters=4, perturb=True)
    rep = build_rep(pts)
    values = CongruenceBasis.values

    def shifted(*args):
        lhs, rhs = values(*args)
        return lhs, rhs + F(1, 7)

    for algorithm in (hkc_inf, hkc_finite):
        result = algorithm(rep, "a0", "b0p", debug=True)
        with monkeypatch.context() as patched:
            patched.setattr(CongruenceBasis, "values", staticmethod(shifted))
            assert algorithm(rep, "a0", "b0p").rhs == result.rhs + F(1, 7)
            with pytest.raises(InvariantError):
                algorithm(rep, "a0", "b0p", debug=True)


def test_guards_survive_optimized_mode():
    # python -O strips assert statements; the guards must still raise
    script = """
import json
from ptstrace import (AllFinite, CongruenceBasis, Equivalent, Inconclusive,
                      InvariantError, OutputKind, SingularRestrictedSystem, build_rep,
                      dirac, measure, parse_pts)
from ptstrace import linear
from ptstrace.equivalence import _check_certificate, _checked_bound, _start
from ptstrace.linear import _solve_sparse, to_ints
import sys
sys.path.insert(0, "tests")
from systems import CONGRUENCE_XZ
assert False, "asserts are stripped"
rep = build_rep(parse_pts(json.dumps(CONGRUENCE_XZ)))
basis = CongruenceBasis(rep.dim)
x, z = (to_ints(dirac(rep, s), rep.dim) for s in ("x", "z"))
basis.record(*basis.item(x, z))
# a finite-mass block solved as all zeros breaks the fixed point at x
linear._solve_sparse = lambda rows, m: ((0,) * m, 1)
# one row, not closed under M_a: no proof of an Equivalent
for guard in (lambda: _check_certificate(rep, _start(rep, "x", "z"), basis, Equivalent(3, 2),
                                         (OutputKind.TOTAL_MASS, OutputKind.TERMINATION)),
              lambda: _checked_bound(rep, Inconclusive(steps_exhausted=1 + rep.dim,
                                                       relation_size=1)),
              lambda: _solve_sparse([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 3}], 2),
              lambda: measure(rep, dirac(rep, "x"), AllFinite())):
    try:
        guard()
    except (InvariantError, SingularRestrictedSystem):
        print("raised")
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\nraised\nraised\nraised\n"

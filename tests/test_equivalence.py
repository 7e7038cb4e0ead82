"""Congruence basis maintenance and the four equivalence procedures."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ptstrace import (Cone, CongruenceBasis, Equivalent, FiniteWord,
                      Inconclusive, InvariantError, NotEquivalent, OutputKind,
                      brute_measure, build_rep, dirac, hk, hkc_finite,
                      hkc_inf, measure, naive, parse_pts, step,
                      word_oracle_equiv)
from ptstrace.equivalence import _check_loop_invariant, _checked_bound
from ptstrace.linear import LinearRep, to_ints

from systems import random_pts, split_copy_pts

F = Fraction


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
    assert basis.pivots == [0]
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
    rows, pivots = basis.rows, list(basis.pivots)
    for u, v in [((F(1), F(0)), (F(0), F(1))),
                 ((F(1), F(0), F(0), F(7)), e1),
                 ((F(1), F(0), F(0), F(0), F(1)), (F(0),) * 5)]:
        for method in (basis.contains, basis.insert):
            with pytest.raises(ValueError, match=r"has length \d, expected 3"):
                method(u, v)
    assert basis.rows == rows and basis.pivots == pivots


def test_basis_rejects_difference_vectors_of_the_wrong_length():
    basis = CongruenceBasis(3)
    basis.add((1, -1, 0))
    rows, pivots = basis.rows, basis.pivots
    for d in [(1, 0, 0, 0, 1), (1, -1), ()]:
        for method in (basis.add, basis.related):
            with pytest.raises(ValueError, match=r"has length \d, expected 3"):
                method(d)
    assert basis.rank == 1
    assert basis.rows == rows and basis.pivots == pivots


def test_basis_views_cannot_corrupt_the_basis():
    basis = CongruenceBasis(3)
    e0, e1, e2 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    # the second pair brings the smaller pivot
    assert basis.insert(e2, e1)
    assert basis.insert(e0, e1)
    assert basis.pivots == [0, 1]
    assert basis.rows == [[F(1), F(0), F(-1)], [F(0), F(1), F(-1)]]
    basis.pivots.reverse()
    basis.rows.reverse()
    assert basis.contains(e0, e2)
    assert basis.pivots == [0, 1]
    assert basis.rows == [[F(1), F(0), F(-1)], [F(0), F(1), F(-1)]]


def test_basis_add_never_rewrites_a_stored_row():
    basis = CongruenceBasis(3)
    e0, e1, e2 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    assert basis.insert(e0, e1)
    assert basis.insert(e1, e2)
    # rows are written once in echelon form; only the rows view is reduced
    assert basis._rows[0] == {0: 1, 1: -1}
    assert basis.rows == [[F(1), F(0), F(-1)], [F(0), F(1), F(-1)]]
    assert basis.pivots == [0, 1]


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
            assert basis.pivots == sorted(set(basis.pivots))
            for row, pivot in zip(basis.rows, basis.pivots):
                assert row[pivot] == 1
                assert all(row[j] == 0 for j in range(pivot))
                for other, other_pivot in zip(basis.rows, basis.pivots):
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
        witness = (Cone if result.output == OutputKind.TOTAL_MASS
                   else FiniteWord)(result.witness)
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
    with pytest.raises(InvariantError):
        _checked_bound(worked_rep, Equivalent(iterations=bound + 1, relation_size=1))
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


def test_one_reduction_per_extraction(monkeypatch):
    calls = 0
    reduce = CongruenceBasis._reduce

    def counting(self, w):
        nonlocal calls
        calls += 1
        return reduce(self, w)

    monkeypatch.setattr(CongruenceBasis, "_reduce", counting)
    pts = split_copy_pts(random.Random(9), max_base=10, max_letters=2)
    rep = build_rep(pts)
    for decide in (hkc_inf, hkc_finite):
        calls = 0
        result = decide(rep, "a0", "b0p")
        assert isinstance(result, Equivalent)
        assert result.relation_size >= 10
        assert calls == result.iterations


def _count_steps(monkeypatch):
    # every kernel step, of a configuration or of a difference vector,
    # looks its letter's columns up exactly once
    calls = [0]
    lookup = LinearRep.letter_columns

    def counting(self, letter):
        calls[0] += 1
        return lookup(self, letter)

    monkeypatch.setattr(LinearRep, "letter_columns", counting)
    return calls


def test_hkc_steps_one_difference_per_recorded_pair(monkeypatch):
    # stepping both configurations of every recorded pair takes twice this
    calls = _count_steps(monkeypatch)
    equivalent = split_copy_pts(random.Random(9), max_base=10, max_letters=2)
    perturbed = split_copy_pts(random.Random(50), max_base=20, max_letters=2, perturb=True)
    for pts, verdict in ((equivalent, Equivalent), (perturbed, NotEquivalent)):
        rep = build_rep(pts)
        for decide in (hkc_inf, hkc_finite):
            calls[0] = 0
            result = decide(rep, "a0", "b0p")
            assert isinstance(result, verdict)
            assert result.relation_size >= 10
            steps = result.relation_size * len(rep.alphabet)
            if verdict is Equivalent:
                assert calls[0] == steps
            else:
                assert len(result.witness) >= 5
                assert calls[0] <= steps + 2 * len(result.witness)


def test_witness_values_are_measures_of_deep_witnesses():
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
                target = (Cone(result.witness) if result.output == OutputKind.TOTAL_MASS
                          else FiniteWord(result.witness))
                assert result.lhs == measure(rep, dirac(rep, x), target)
                assert result.rhs == measure(rep, dirac(rep, y), target)
                assert result.lhs != result.rhs
    for found in depths.values():
        assert len(found) >= 40
        assert sum(depth >= 4 for depth in found) >= 10


def test_loop_invariant_check_raises_on_an_unhandled_successor(worked_rep):
    basis = CongruenceBasis(worked_rep.dim)
    d = basis.item(*(to_ints(dirac(worked_rep, s)) for s in ("x", "z")))
    successor = basis.successor(worked_rep, d, "a")
    assert any(successor)
    _check_loop_invariant(worked_rep, basis, [d], [(("a",), successor)])
    with pytest.raises(InvariantError):
        _check_loop_invariant(worked_rep, basis, [d], [])
    basis.add(successor)
    _check_loop_invariant(worked_rep, basis, [d], [])


def test_guards_survive_optimized_mode():
    # python -O strips assert statements; the guards must still raise
    script = """
import json
from ptstrace import (AllFinite, CongruenceBasis, Equivalent, InvariantError,
                      SingularRestrictedSystem, build_rep, dirac, measure, parse_pts)
from ptstrace import linear
from ptstrace.equivalence import _check_loop_invariant, _checked_bound
from ptstrace.linear import _solve_sparse, to_ints
import sys
sys.path.insert(0, "tests")
from systems import CONGRUENCE_XZ
assert False, "asserts are stripped"
rep = build_rep(parse_pts(json.dumps(CONGRUENCE_XZ)))
basis = CongruenceBasis(rep.dim)
d = basis.item(to_ints(dirac(rep, "x")), to_ints(dirac(rep, "z")))
# a finite-mass block solved as all zeros breaks the fixed point at x
linear._solve_sparse = lambda rows, m: ((0,) * m, 1)
for guard in (lambda: _check_loop_invariant(rep, basis, [d], []),
              lambda: _checked_bound(rep, Equivalent(iterations=rep.dim * 9,
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

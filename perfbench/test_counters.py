"""Tests of the benchmark itself: its generators, gate and traced counters.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from ptstrace import build_rep, dirac, parse_pts, word_oracle_equiv  # noqa: E402
from spans import Tracer, per_layer  # noqa: E402

COUNTERS = ["linear.step_calls", "linear.coeff_bits_max", "linear.step_nonzero_frac",
            "measure.value_bits_max", "equivalence.extractions", "equivalence.skipped",
            "equivalence.rank", "equivalence.basis_bits_max", "equivalence.witness_len"]


def _small_workload(name, seed, tmp_path):
    """The workload restricted to documents of at most 30 states."""
    workload = workloads.build(name, seed, str(tmp_path))
    workloads.setup(workload.env)
    workload.queries = [q for q in workload.queries
                        if workload.env.reps[q.doc].dim <= 30][:200]
    return workload


def _traced_round(workload):
    tracer = Tracer()
    outputs = {}
    for index, q in enumerate(workload.queries):
        tracer.query = index
        outputs[q.key], _ = q.traced(workload.env, tracer)
    for q in workload.queries:
        assert q.check(workload.env, outputs[q.key], outputs) is None, q.key
    return outputs, {name: value for name, (value, _) in per_layer(tracer, 1.0, 1.0).items()
                     if name in COUNTERS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly_for_one_seed(name, tmp_path):
    _, first = _traced_round(_small_workload(name, 7, tmp_path / "a"))
    _, second = _traced_round(_small_workload(name, 7, tmp_path / "b"))
    assert first == second
    assert first["linear.step_calls"] > 0


def test_equivalence_counters_and_iteration_bound(tmp_path):
    workload = _small_workload("equiv_splitcopy", 7, tmp_path)
    outputs, counters = _traced_round(workload)
    assert counters["equivalence.extractions"] > counters["equivalence.skipped"] > 0
    assert counters["equivalence.rank"] > 10  # the basis grows past one pair
    assert counters["equivalence.witness_len"] == 9  # chain depth at n=30
    assert 0 < counters["linear.step_nonzero_frac"] < 1
    for q in workload.queries:
        rep = workload.env.reps[q.doc]
        assert outputs[q.key].iterations <= 1 + len(rep.alphabet) * rep.dim


def test_perturbed_pairs_differ_first_at_chain_depth():
    rng = random.Random(3)
    for _ in range(20):
        base = gen.base_system(rng, rng.randint(2, 4), rng.randint(1, 3),
                               sinks=rng.randint(0, 1))
        rep = build_rep(parse_pts(gen.perturbed_copy(base).to_json()))
        left, right = dirac(rep, "a0"), dirac(rep, "b0p")
        assert word_oracle_equiv(rep, left, right, base.depth - 1)
        assert not word_oracle_equiv(rep, left, right, base.depth)


def test_gate_rejects_a_wrong_answer(tmp_path):
    workload = _small_workload("eval_mixed", 7, tmp_path)
    q = workload.queries[0]
    value = q.run(workload.env)
    assert q.check(workload.env, value, {q.key: value}) is None
    wrong = value / 2 if value else value + 1
    assert q.check(workload.env, wrong, {q.key: wrong}) is not None

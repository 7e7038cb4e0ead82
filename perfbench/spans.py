"""Spans and counters for the traced run, recorded from outside the program.

The traced run times each query call as one span, then replays what the
call did through the public API: every ``Extraction`` of an ``hkc_*`` run
against a fresh ``CongruenceBasis``, every letter of a measured word through
``step``, the finite-mass solve, and the parse/validate/build calls that
``cli.main`` makes.  Replay spans name the call span as their parent, so a
span's self time (its duration minus its direct children's) is the part the
replay did not reproduce: ``equivalence.unaccounted_s`` and
``cli.overhead_s``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from ptstrace import (AllFinite, AllInfinite, CongruenceBasis, Cone,
                      FiniteWord, InfCone, NotEquivalent, finite_mass_vector,
                      step)

MEASURE_KINDS = {FiniteWord: "word", Cone: "cone", InfCone: "infcone",
                 AllFinite: "finite", AllInfinite: "infinite"}


class ReplayMismatch(Exception):
    """The replay through the public API disagreed with the recorded run."""


def bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for x in values if x), default=0)


class Tracer:
    """Spans (name, start, end, parent, query) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.query = None
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._columns_rep = None
        self._columns: dict[str, list[int]] = {}

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        index = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield index
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.query)

    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        children = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        return sum(end - start - children[i]
                   for i, (n, start, end, _, _) in enumerate(self.spans) if n == name)

    def peak(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "query": query}) + "\n")

    # replays -----------------------------------------------------------

    def step(self, rep, u, letter, parent):
        with self.span("linear.step", parent):
            v = step(rep, u, letter)
        if self._columns_rep is not rep:
            # nonzero entries per matrix column, for the one rep being replayed
            self._columns_rep = rep
            self._columns = {a: [sum(1 for row in m if row[k]) for k in range(rep.dim)]
                             for a, m in rep.mats.items()}
        self.counts["linear.step_calls"] += 1
        self.counts["step_products"] += sum(c for c, x in zip(self._columns[letter], u) if x)
        self.counts["step_tested"] += rep.dim * rep.dim
        self.peak("linear.coeff_bits_max", max(bits(u), bits(v)))
        return v

    def decide(self, rep, result, extractions, parent):
        """Replay an hkc run; raises ReplayMismatch where it diverges."""
        basis = CongruenceBasis(rep.dim)
        last = len(extractions) - 1
        for i, e in enumerate(extractions):
            with self.span("equivalence.contains", parent):
                inside = basis.contains(e.left, e.right)
            if inside != e.skipped:
                raise ReplayMismatch(f"skip decision differs at extraction {i}")
            if e.skipped or (i == last and isinstance(result, NotEquivalent)):
                continue
            for letter in rep.alphabet:
                self.step(rep, e.left, letter, parent)
                self.step(rep, e.right, letter, parent)
            with self.span("equivalence.insert", parent):
                grew = basis.insert(e.left, e.right)
            if not grew:
                raise ReplayMismatch(f"extraction {i} did not grow the basis")
        if basis.rank != result.relation_size:
            raise ReplayMismatch(f"rank {basis.rank} != {result.relation_size}")
        self.counts["equivalence.extractions"] += len(extractions)
        self.counts["equivalence.skipped"] += sum(e.skipped for e in extractions)
        self.peak("equivalence.rank", basis.rank)
        self.peak("equivalence.basis_bits_max",
                  max((bits(row) for row in basis.rows), default=0))
        if isinstance(result, NotEquivalent):
            self.peak("equivalence.witness_len", len(result.witness))

    def measure(self, rep, u, target, value, parent):
        if isinstance(target, (FiniteWord, Cone, InfCone)):
            for letter in target.word:
                u = self.step(rep, u, letter, parent)
        if isinstance(target, (AllFinite, AllInfinite, InfCone)):
            with self.span("measure.finite_mass", parent):
                finite_mass_vector(rep)
        self.peak("measure.value_bits_max", bits([value]))


def per_layer(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics of one traced round, by name."""
    counts, maxima = tracer.counts, tracer.maxima
    extractions = counts["equivalence.extractions"]
    metrics = {
        "model.parse_s": (tracer.total("model.parse"), "s"),
        "model.validate_s": (tracer.total("model.validate"), "s"),
        "linear.build_rep_s": (tracer.total("linear.build_rep"), "s"),
        "linear.step_s": (tracer.total("linear.step"), "s"),
        "linear.step_calls": (counts["linear.step_calls"], "count"),
        "linear.coeff_bits_max": (maxima["linear.coeff_bits_max"], "bits"),
        "linear.step_nonzero_frac": (
            counts["step_products"] / counts["step_tested"]
            if counts["step_tested"] else 0.0, "ratio"),
        "measure.finite_mass_s": (tracer.total("measure.finite_mass"), "s"),
    }
    for kind in MEASURE_KINDS.values():
        metrics[f"measure.query_s.{kind}"] = (tracer.total(f"measure.query.{kind}"), "s")
    metrics.update({
        "measure.value_bits_max": (maxima["measure.value_bits_max"], "bits"),
        "equivalence.decide_s": (tracer.total("equivalence.decide"), "s"),
        "equivalence.contains_s": (tracer.total("equivalence.contains"), "s"),
        "equivalence.insert_s": (tracer.total("equivalence.insert"), "s"),
        "equivalence.unaccounted_s": (tracer.self_time("equivalence.decide"), "s"),
        "equivalence.basis_bits_max": (maxima["equivalence.basis_bits_max"], "bits"),
        "equivalence.extractions": (extractions, "count"),
        "equivalence.skipped": (counts["equivalence.skipped"], "count"),
        "equivalence.skip_frac": (
            counts["equivalence.skipped"] / extractions if extractions else 0.0, "ratio"),
        "equivalence.rank": (maxima["equivalence.rank"], "count"),
        "equivalence.witness_len": (maxima["equivalence.witness_len"], "count"),
        "cli.main_s": (tracer.total("cli.main"), "s"),
        "cli.overhead_s": (tracer.self_time("cli.main"), "s"),
        "trace.overhead_frac": (traced_s / untraced_s, "ratio"),
    })
    return metrics

"""Seeded end-to-end and per-layer benchmark of ptstrace.

Run from the repository root:

    python3 perfbench/run.py --workload equiv_splitcopy --seed 1 --seconds 20 --trace 0

Workloads: equiv_splitcopy, eval_mixed, cli_small (see workloads.py).  One
closed-loop caller, a single thread: each query starts after the previous
one returns.  Rounds of set-up plus every query repeat until ``--seconds``
of query time have passed.  Every answer is checked; a query that raises,
times out or answers wrongly counts as failed.  End-to-end times are
scaled to a fixed machine speed by reference samples taken between the
calls (clock.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also runs one
traced round and reports the per-layer metrics, writing its spans to
``perfbench/out/spans-<workload>.jsonl``.  Each metric is printed as
``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
QUERY_TIMEOUT_S = 30
MIN_ROUNDS = 5


class QueryTimeout(Exception):
    pass


class Failed:
    """The outcome of a query that raised or timed out."""

    def __init__(self, exc: Exception):
        self.reason = f"raised {exc!r}"


def _timeout(signum, frame):
    raise QueryTimeout(f"query ran longer than {QUERY_TIMEOUT_S} s")


def _timed(fn, *args):
    """Call fn under the per-query time limit; (output, start, end)."""
    signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
    try:
        start = time.perf_counter()
        try:
            output = fn(*args)
        except Exception as exc:  # the program failed this query
            output = Failed(exc)
        return output, start, time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _check(queries, env, outputs) -> list:
    by_key = {q.key: out for q, out in zip(queries, outputs)
              if not isinstance(out, Failed)}
    reasons = []
    for q, out in zip(queries, outputs):
        if isinstance(out, Failed):
            reasons.append(out.reason)
            continue
        try:
            reasons.append(q.check(env, out, by_key))
        except Exception as exc:  # a malformed answer the check cannot read
            reasons.append(f"check raised {exc!r}")
    return reasons


def _report(failures: list) -> None:
    for key, reason in failures[:10]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from clock import Clock
    from spans import Tracer, per_layer

    scratch = os.path.join(OUT, f"cli-{os.getpid()}")
    try:
        workload = workloads.build(workload_name, seed, scratch)
        env, queries = workload.env, workload.queries

        # Each round sets the documents up afresh, so that nothing a query
        # caches on a parsed system outlives its round, then runs every query
        # once.  Rounds repeat until `seconds` of query time, at least
        # MIN_ROUNDS times.  Reference samples between the calls let every
        # interval be scaled to a fixed machine speed (clock.py).
        clock = Clock()
        setups, intervals = [], [[] for _ in queries]
        failures, first, spent = [], None, 0.0
        while len(setups) < MIN_ROUNDS or spent < seconds:
            clock.sample()
            start = time.perf_counter()
            workloads.setup(env)
            setups.append((start, time.perf_counter()))
            clock.sample()
            gc.collect()
            outputs = []
            for q, times in zip(queries, intervals):
                output, start, end = _timed(q.run, env)
                outputs.append(output)
                times.append((start, end))
                spent += end - start
                clock.maybe_sample()
            if first is None:
                first = outputs
                reasons = _check(queries, env, outputs)
            else:
                reasons = [None if out == ref else "answer changed between rounds"
                           for out, ref in zip(outputs, first)]
            failures += [(q.key, r) for q, r in zip(queries, reasons) if r]
        clock.sample()
        rounds = len(setups)
        attempted = rounds * len(queries)
        # A query's time is the median of its scaled times over the rounds.
        typical = [statistics.median(clock.scaled(*span) for span in times)
                   for times in intervals]
        setup_s = statistics.median(clock.scaled(*span) for span in setups)

        layers = None
        if trace:
            tracer = Tracer()
            workloads.setup_traced(env, tracer)
            workloads.setup(env)
            traced_s = 0.0
            for index, q in enumerate(queries):
                tracer.query = index
                try:
                    output, span = q.traced(env, tracer)
                except Exception as exc:  # a ReplayMismatch or a failed call
                    failures.append((q.key, f"traced run: {exc!r}"))
                    continue
                traced_s += tracer.duration(span)
                if output != first[index]:
                    failures.append((q.key, "traced answer differs"))
            tracer.query = None
            attempted += len(queries)
            # one traced round against the untraced rounds' median times
            layers = per_layer(tracer, traced_s,
                               sum(statistics.median(end - start for start, end in times)
                                   for times in intervals))
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"spans-{workload_name}.jsonl"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    quartiles = statistics.quantiles(typical, n=4)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(typical) / sum(typical), "1/s"),
        "query_s.p50": (quartiles[1], "s"),
        "query_s.p75": (quartiles[2], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics = layers if trace else end_to_end
    _report(failures)
    print(f"workload {workload_name} seed {seed}: {rounds} rounds of "
          f"{len(queries)} queries, {spent:.1f} s of query time")
    raw = sum(statistics.median(end - start for start, end in times) for times in intervals)
    print(f"reference {clock.median()} s, median of {len(clock.took)} samples; "
          f"unscaled queries_per_s {len(queries) / raw}")
    print(f"failed_frac {len(failures) / attempted} ({len(failures)} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import ptstrace
    except ImportError as exc:
        print(f"error: cannot import ptstrace from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(ptstrace.__file__).startswith(SRC + os.sep):
        print(f"error: ptstrace imported from {ptstrace.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _timeout)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

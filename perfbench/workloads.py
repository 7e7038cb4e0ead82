"""The benchmark's workloads: seeded documents, the queries run on them, and
the correctness gate that checks every answer.

A workload is a list of documents (JSON text) and a fixed round of queries.
Every query has a ``run`` (the timed call into the program), a ``traced``
variant that records spans and replays the call's work, and a ``check``
against references independent of the timed path: the label and witness
length known from construction, ``oracle.brute_measure``, the document
itself, and agreement between equivalent states.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

from ptstrace import (Cone, Equivalent, FiniteWord, NotEquivalent,
                      OutputKind, brute_measure, build_rep, dirac, hkc_finite,
                      hkc_inf, measure, parse_pts, parse_query, validate)
from ptstrace.cli import main as cli_main

import gen
from spans import MEASURE_KINDS

ALGORITHMS = {"hkc_inf": hkc_inf, "hkc_finite": hkc_finite}
BRUTE_MAX_STATES = 30
WORD_LENGTH = 40

# (n, |alphabet|, systems) per size, where n counts every state of a
# document.  Many small documents set the median and the tail; the large
# ones set throughput.  n=120 is decided with two letters only: with one
# letter the basis reaches rank 80 with ~300-bit coefficients and a single
# query takes ~10 s, and four letters would double the round; n=60 covers
# both alphabet sizes.
EQUIV_SIZES = [(30, k, 4) for k in (1, 2, 4)] + [(60, k, 1) for k in (1, 2, 4)] \
    + [(120, 2, 1)]
# every document of at most this size is decided by both algorithms; larger
# ones once: equivalent pairs by hkc_inf, perturbed pairs by hkc_finite
BOTH_ALGORITHMS_MAX = 30
EVAL_SIZES = [(n, k) for n in (30, 60, 120) for k in (1, 2, 4)]
EVAL_SINKS = 2
# (kinds asked from both a0 and b0p, kinds asked from a0 only) per size.
# Each finite-mass query solves the system again (~0.45 s at n=120), so the
# larger documents ask fewer of them.
EVAL_KINDS = {30: (("word", "cone", "infcone", "finite", "infinite"), ()),
              60: (("word", "cone"), ("infcone", "finite", "infinite")),
              120: (("word", "cone"), ("finite",))}
CLI_SYSTEMS = 150


@dataclass
class Env:
    """What set-up produced: parsed systems, their linear views, and files."""

    systems: dict
    texts: dict
    pts: dict = field(default_factory=dict)
    reps: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)


def setup(env: Env) -> None:
    """parse_pts (with validation) plus build_rep over every document."""
    for name, text in env.texts.items():
        env.pts[name] = parse_pts(text)
        env.reps[name] = build_rep(env.pts[name])


def setup_traced(env: Env, tracer) -> None:
    """The same set-up pass, with parse and validation as separate spans."""
    for text in env.texts.values():
        with tracer.span("model.parse"):
            pts = parse_pts(text, check=False)
        with tracer.span("model.validate"):
            validate(pts)
        with tracer.span("linear.build_rep"):
            build_rep(pts)


def _bound_ok(rep, result) -> bool:
    # every hkc run extracts at most 1 + |alphabet| * dim pairs
    return (result.iterations <= 1 + len(rep.alphabet) * rep.dim
            and result.relation_size <= rep.dim)


def _witness_target(output: OutputKind, word):
    return Cone(word) if output is OutputKind.TOTAL_MASS else FiniteWord(word)


def traced_decide(tracer, rep, algo: str, parent=None):
    """Run ``hkc_*`` with ``trace=list`` as one span, then replay it."""
    extractions = []
    with tracer.span("equivalence.decide", parent) as span:
        result = ALGORITHMS[algo](rep, "a0", "b0p", trace=extractions)
    tracer.decide(rep, result, extractions, span)
    return result, span


def traced_measure(tracer, rep, state: str, text: str, parent=None):
    """Run one measure query as one span, then replay its steps and solve."""
    target = parse_query(text, rep.alphabet)
    with tracer.span(f"measure.query.{MEASURE_KINDS[type(target)]}", parent) as span:
        value = measure(rep, dirac(rep, state), target)
    tracer.measure(rep, dirac(rep, state), target, value, span)
    return value, span


class EquivQuery:
    """``hkc_*(rep, "a0", "b0p")`` on a split-copy or perturbed document."""

    def __init__(self, doc: str, algo: str):
        self.doc, self.algo = doc, algo
        self.key = (doc, algo)

    def run(self, env: Env):
        return ALGORITHMS[self.algo](env.reps[self.doc], "a0", "b0p")

    def traced(self, env: Env, tracer):
        return traced_decide(tracer, env.reps[self.doc], self.algo)

    def check(self, env: Env, result, outputs) -> str | None:
        system, rep, pts = env.systems[self.doc], env.reps[self.doc], env.pts[self.doc]
        expected = Equivalent if system.equivalent else NotEquivalent
        if not isinstance(result, expected):
            return f"verdict {type(result).__name__}, expected {expected.__name__}"
        if not _bound_ok(rep, result):
            return "iteration or rank bound exceeded"
        if system.equivalent:
            return None
        if len(result.witness) != system.depth:
            return f"witness length {len(result.witness)}, expected {system.depth}"
        if result.lhs == result.rhs:
            return "witness does not separate"
        target = _witness_target(result.output, result.witness)
        if (measure(rep, dirac(rep, "a0"), target) != result.lhs
                or measure(rep, dirac(rep, "b0p"), target) != result.rhs):
            return "witness values not reproduced by measure"
        if rep.dim <= BRUTE_MAX_STATES and (
                brute_measure(pts, "a0", target) != result.lhs
                or brute_measure(pts, "b0p", target) != result.rhs):
            return "witness values differ from brute_measure"
        return None


class MeasureQuery:
    """``measure(rep, dirac(state), parse_query(text))``."""

    def __init__(self, doc: str, state: str, text: str):
        self.doc, self.state, self.text = doc, state, text
        self.key = (doc, state, text)

    def run(self, env: Env):
        rep = env.reps[self.doc]
        return measure(rep, dirac(rep, self.state), parse_query(self.text, rep.alphabet))

    def traced(self, env: Env, tracer):
        return traced_measure(tracer, env.reps[self.doc], self.state, self.text)

    def check(self, env: Env, value, outputs) -> str | None:
        return check_value(env.systems[self.doc], env.pts[self.doc], self.doc,
                           self.state, self.text, value, outputs)


def check_value(system, pts, doc, state, text, value, outputs) -> str | None:
    """Checks shared by library and CLI measure queries; ``outputs`` maps
    (doc, state, text) to the value found in the same round."""
    if not 0 <= value <= 1:
        return f"value {value} outside [0, 1]"
    head, _, rest = text.partition(":")
    word = tuple(rest.split(".")) if rest else ()
    if head in ("word", "cone"):
        target = FiniteWord(word) if head == "word" else Cone(word)
        if brute_measure(pts, state, target) != value:
            return "differs from brute_measure"
    if head == "infcone" and value > brute_measure(pts, state, Cone(word)):
        return "infinite-word cone exceeds its cone"
    if head in ("finite", "infinite"):
        other = outputs.get((doc, state, "infinite" if head == "finite" else "finite"))
        if other is not None and value + other != brute_measure(pts, state, Cone(())):
            return "finite + infinite != all"
    if system.equivalent:
        twin = {"a0": "b0p", "b0p": "a0"}[state]
        other = outputs.get((doc, twin, text))
        if other is not None and other != value:
            return f"equivalent states disagree: {value} vs {other}"
    return None


class CliQuery:
    """``cli.main(argv)`` in-process, with stdout and stderr captured."""

    def __init__(self, doc: str, command: str, *extra: str):
        self.doc, self.command, self.extra = doc, command, extra
        self.key = (doc, command) + extra

    def run(self, env: Env):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main([self.command, env.paths[self.doc], *self.extra])
        return code, out.getvalue()

    def traced(self, env: Env, tracer):
        with tracer.span("cli.main") as parent:
            output = self.run(env)
        # the calls main made, replayed through the public API
        with open(env.paths[self.doc], encoding="utf-8") as handle:
            text = handle.read()
        with tracer.span("model.parse", parent):
            pts = parse_pts(text, check=False)
        with tracer.span("model.validate", parent):
            validate(pts)
        if self.command != "validate":
            with tracer.span("linear.build_rep", parent):
                rep = build_rep(pts)
        if self.command == "eval":
            traced_measure(tracer, rep, self.extra[1], self.extra[3], parent)
        if self.command == "equiv":
            traced_decide(tracer, rep, "hkc_inf", parent)
        return output, parent

    def check(self, env: Env, output, outputs) -> str | None:
        code, stdout = output
        system, pts = env.systems[self.doc], env.pts[self.doc]
        if self.command == "validate":
            return None if (code, stdout) == (0, "ok\n") else f"validate gave {code} {stdout!r}"
        if code != (1 if self.command == "equiv" and not system.equivalent else 0):
            return f"exit code {code}"
        if self.command == "rep":
            return None if json.loads(stdout) == expected_rep(system) else "rep differs"
        if self.command == "eval":
            values = {(doc, key[1], key[3]): Fraction(out[1])
                      for (doc, command, *key), out in outputs.items()
                      if doc == self.doc and command == "eval" and out[0] == 0}
            return check_value(system, pts, self.doc, self.extra[1], self.extra[3],
                               Fraction(stdout), values)
        payload = json.loads(stdout)
        n = len(system.states)
        if payload["iterations"] > 1 + len(system.alphabet) * n or payload["relation_size"] > n:
            return "iteration or rank bound exceeded"
        if system.equivalent:
            return None if payload["result"] == "equivalent" else payload["result"]
        word = tuple(payload["witness"].split(".")) if payload["witness"] else ()
        target = _witness_target(OutputKind(payload["output"]), word)
        if (payload["result"] != "not_equivalent" or len(word) != system.depth
                or payload["lhs"] == payload["rhs"]
                or Fraction(payload["lhs"]) != brute_measure(pts, "a0", target)
                or Fraction(payload["rhs"]) != brute_measure(pts, "b0p", target)):
            return f"bad counterexample {payload}"
        return None


def expected_rep(system) -> dict:
    """The ``rep`` output, computed from the generated system itself."""
    states = system.states
    return {
        "l_one": ["1"] * len(states),
        "l_star": [str(system.stop[s]) for s in states],
        "mats": {a: [[str(system.moves.get((source, a, target), 0)) for source in states]
                     for target in states] for a in system.alphabet},
    }


@dataclass
class Workload:
    env: Env
    queries: list


def _equiv_splitcopy(rng: random.Random) -> tuple[dict, list]:
    systems, queries = {}, []
    for n, letters, copies in EQUIV_SIZES:
        for copy in range(copies):
            base = gen.base_system(rng, n // 3, letters)
            for label, system, algo in (("eq", gen.split_copy(base), "hkc_inf"),
                                        ("ne", gen.perturbed_copy(base), "hkc_finite")):
                name = f"n{n}-k{letters}-{copy}-{label}"
                systems[name] = system
                algos = ALGORITHMS if n <= BOTH_ALGORITHMS_MAX else [algo]
                queries += [EquivQuery(name, a) for a in algos]
    return systems, queries


def _eval_mixed(rng: random.Random) -> tuple[dict, list]:
    systems, queries = {}, []
    for n, letters in EVAL_SIZES:
        base = gen.base_system(rng, n // 3 - EVAL_SINKS, letters, sinks=EVAL_SINKS)
        name = f"n{n}-k{letters}"
        systems[name] = gen.split_copy(base)
        word = ".".join(base.walk(rng, "a0", WORD_LENGTH))
        both, a0_only = EVAL_KINDS[n]
        for kind in both + a0_only:
            text = f"{kind}:{word}" if kind in ("word", "cone", "infcone") else kind
            queries += [MeasureQuery(name, state, text)
                        for state in (("a0", "b0p") if kind in both else ("a0",))]
    return systems, queries


def _cli_small(rng: random.Random) -> tuple[dict, list]:
    systems, queries = {}, []
    for i in range(CLI_SYSTEMS):
        system = gen.small_system(rng)
        name = f"s{i}"
        systems[name] = system
        word = ".".join(system.walk(rng, "a0", 6))
        state = rng.choice(("a0", "b0p"))
        queries += [CliQuery(name, "validate"), CliQuery(name, "rep"),
                    CliQuery(name, "equiv", "a0", "b0p")]
        queries += [CliQuery(name, "eval", "--state", state, "--query", text)
                    for text in (f"word:{word}", f"cone:{word}", f"infcone:{word}",
                                 "finite", "infinite")]
    return systems, queries


WORKLOADS = {"equiv_splitcopy": _equiv_splitcopy, "eval_mixed": _eval_mixed,
             "cli_small": _cli_small}


def build(name: str, seed: int, scratch: str) -> Workload:
    """Generate a workload's documents from the seed; CLI documents are
    also written as files under ``scratch``."""
    systems, queries = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    env = Env(systems, {doc: system.to_json() for doc, system in systems.items()})
    if any(isinstance(q, CliQuery) for q in queries):
        os.makedirs(scratch, exist_ok=True)
        for doc, text in env.texts.items():
            env.paths[doc] = os.path.join(scratch, f"{doc}.json")
            with open(env.paths[doc], "w", encoding="utf-8") as handle:
                handle.write(text)
    return Workload(env, queries)

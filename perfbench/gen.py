"""Seeded system families for the benchmark.

Every generator takes a ``random.Random`` and returns a ``System``: plain
data that the benchmark serialises to the JSON document format and hands to
the program as text.  The ground truth each workload checks against (the
equivalence label, the witness length) follows from the construction, not
from running the program.

Families:

* ``base_system``: m states ``a0..a{m-1}`` on a chain.  State i moves to
  i+1 and back to two states <= i, so state i is first reachable from
  ``a0`` after exactly i letters.  Optional non-terminating sink states
  ``a{m}..`` never stop, which makes finite mass a nontrivial rational.
* ``split_copy``: the base system A plus a copy B in which every state s is
  split into ``b<s>p`` and ``b<s>q``; mass flowing into s is divided between
  the two copies, in a different ratio from each source copy.  Both copies
  behave exactly like s, so ``a0`` and ``b0p`` are trace equivalent, yet the
  congruence basis has to grow.
* ``perturbed_copy``: a split copy in which the deepest chain state's p-copy
  moves half of one move's mass to stopping.  The shortest word reaching it
  is the chain depth d, every shorter word is unaffected, and that word's
  own measure changes by a positive amount, so ``a0`` and ``b0p`` differ
  and the shortest witness has length exactly d, on the termination output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# The edges and their letters are fixed by m and the alphabet size; the seed
# only picks how each state splits 6 units of mass over stopping and its
# edges.  Split copies divide each edge 1/3 : 2/3 from the p-copy and
# 2/3 : 1/3 from the q-copy.  So the basis rank (2m for the pair) and the
# coefficient growth are alike across seeds, and so is the cost of a run.
UNITS = 6
RATIOS = {"p": Fraction(1, 3), "q": Fraction(2, 3)}
LETTERS = ("a", "b", "c", "d")


@dataclass
class System:
    alphabet: tuple[str, ...]
    states: list[str]
    stop: dict[str, Fraction]
    moves: dict[tuple[str, str, str], Fraction]
    # construction facts used as references by the correctness gate
    equivalent: bool = True
    depth: int = 0

    def to_json(self) -> str:
        transitions = {}
        for state in self.states:
            entry = {"stop": str(self.stop[state])}
            items = [{"letter": a, "to": t, "p": str(p)}
                     for (s, a, t), p in self.moves.items() if s == state]
            if items:
                entry["moves"] = items
            transitions[state] = entry
        return json.dumps({"alphabet": list(self.alphabet),
                           "states": self.states,
                           "transitions": transitions})

    def walk(self, rng: random.Random, start: str, length: int) -> tuple[str, ...]:
        """A word of positive cone measure, read along a random path."""
        out = {}
        for (s, a, t), p in self.moves.items():
            out.setdefault(s, []).append((a, t))
        word, state = [], start
        for _ in range(length):
            if state not in out:
                break
            letter, state = rng.choice(out[state])
            word.append(letter)
        return tuple(word)


def _split_units(rng: random.Random, total: int, parts: int) -> list[int]:
    """``total`` units split into ``parts`` positive counts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def base_system(rng: random.Random, m: int, n_letters: int, sinks: int = 0) -> System:
    alphabet = LETTERS[:n_letters]
    states = [f"a{i}" for i in range(m + sinks)]
    stop: dict[str, Fraction] = {}
    moves: dict[tuple[str, str, str], Fraction] = {}

    def add(source, letter, target, p):
        key = (source, letter, target)
        moves[key] = moves.get(key, Fraction(0)) + p

    k = n_letters
    for i in range(m):
        outcomes = [("stop", None)]
        if i + 1 < m:
            outcomes.append((alphabet[i % k], i + 1))
        outcomes.append((alphabet[(i + 1) % k], i // 2))
        outcomes.append((alphabet[(3 * i + 2) % k], (7 * i + 3) % (i + 1)))
        if sinks and i % 3 == 1:
            outcomes.append((alphabet[i % k], m + i % sinks))
        counts = _split_units(rng, UNITS, len(outcomes))
        stop[states[i]] = Fraction(0)
        for (letter, target), count in zip(outcomes, counts):
            p = Fraction(count, UNITS)
            if letter == "stop":
                stop[states[i]] = p
            else:
                add(states[i], letter, states[target], p)
    for j in range(m, m + sinks):
        stop[states[j]] = Fraction(0)
        targets = [j, m + (j + 1 - m) % sinks]
        for target, count in zip(targets, _split_units(rng, UNITS, 2)):
            add(states[j], alphabet[j % k], states[target], Fraction(count, UNITS))
    return System(alphabet, states, stop, moves, depth=m - 1)


def split_copy(base: System) -> System:
    """A and its split copy B in one document; ``a0`` ~ ``b0p``."""
    copies = [f"b{s[1:]}{c}" for s in base.states for c in "pq"]
    stop = dict(base.stop)
    moves = dict(base.moves)
    for s in base.states:
        for c in "pq":
            stop[f"b{s[1:]}{c}"] = base.stop[s]
    for (s, a, t), p in base.moves.items():
        for c, r in RATIOS.items():
            moves[(f"b{s[1:]}{c}", a, f"b{t[1:]}p")] = p * r
            moves[(f"b{s[1:]}{c}", a, f"b{t[1:]}q")] = p * (1 - r)
    return System(base.alphabet, base.states + copies, stop, moves,
                  equivalent=True, depth=base.depth)


def perturbed_copy(base: System) -> System:
    """A split copy whose deepest chain state differs; ``a0`` !~ ``b0p``."""
    system = split_copy(base)
    deep = f"b{base.depth}p"
    key = next(k for k in system.moves if k[0] == deep)
    half = system.moves[key] / 2
    system.moves[key] -= half
    system.stop[deep] += half
    system.equivalent = False
    return system


def small_system(rng: random.Random) -> System:
    """A split-copy or perturbed pair with at most 15 states."""
    base = base_system(rng, rng.randint(2, 4), rng.randint(1, 3),
                       sinks=rng.randint(0, 1))
    if rng.random() < 0.5:
        return split_copy(base)
    return perturbed_copy(base)

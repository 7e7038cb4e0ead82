"""Canonical example systems, randomized system generation and a count
read off hkc runs, for the tests."""

import json
from collections import namedtuple
from fractions import Fraction

from ptstrace import Pts, parse_pts, validate
from ptstrace.model import format_rational, pts_from_dict

# Single-letter chain: x loops forever on a; y stops with 1/3, moves to x or
# stays with 1/3 each.  From y, a^n has measure 1/3^(n+1) and the cone of
# a^n has measure (1 + 3^-n)/2.
SINGLE_LETTER_CHAIN = {
    "alphabet": ["a"],
    "states": ["x", "y"],
    "transitions": {
        "x": {"moves": [{"letter": "a", "to": "x", "p": "1"}]},
        "y": {"stop": "1/3",
              "moves": [{"letter": "a", "to": "x", "p": "1/3"},
                        {"letter": "a", "to": "y", "p": "1/3"}]},
    },
}

# Ternary-digit generator: runs stop exactly when a 1 is emitted, so the
# infinite words it produces are the 1-free ones and carry total mass 0.
CANTOR = {
    "alphabet": ["0", "1", "2"],
    "states": ["x", "y"],
    "transitions": {
        "x": {"moves": [{"letter": "0", "to": "x", "p": "1/3"},
                        {"letter": "2", "to": "x", "p": "1/3"},
                        {"letter": "1", "to": "y", "p": "1/3"}]},
        "y": {"stop": "1"},
    },
}

# Four states where x and z are trace equivalent but the naive search
# diverges; the congruence check closes the run after two recorded pairs.
CONGRUENCE_XZ = {
    "alphabet": ["a"],
    "states": ["x", "y", "z", "i"],
    "transitions": {
        "x": {"stop": "1/3",
              "moves": [{"letter": "a", "to": "y", "p": "1/6"},
                        {"letter": "a", "to": "i", "p": "1/2"}]},
        "y": {"stop": "2/3",
              "moves": [{"letter": "a", "to": "y", "p": "1/3"}]},
        "z": {"stop": "1/3",
              "moves": [{"letter": "a", "to": "z", "p": "1/3"},
                        {"letter": "a", "to": "i", "p": "1/3"}]},
        "i": {"moves": [{"letter": "a", "to": "i", "p": "1"}]},
    },
}

# Two never-terminating states over {a, b}: every single word has measure 0
# from both, yet the infinite-word behaviour differs (y emits a and b evenly,
# z is biased), so only the finite-trace check deems them equivalent.
TWO_LETTER_YZ = {
    "alphabet": ["a", "b"],
    "states": ["y", "z"],
    "transitions": {
        "y": {"moves": [{"letter": "a", "to": "y", "p": "1/2"},
                        {"letter": "b", "to": "y", "p": "1/2"}]},
        "z": {"moves": [{"letter": "a", "to": "z", "p": "3/4"},
                        {"letter": "b", "to": "z", "p": "1/4"}]},
    },
}

# Two copies of the same coin-flip loop; equivalent, but the explored pair
# vectors shrink by half forever, so only the span check terminates.
HALF_LOOP_XY = {
    "alphabet": ["a"],
    "states": ["x", "y"],
    "transitions": {
        "x": {"stop": "1/2", "moves": [{"letter": "a", "to": "x", "p": "1/2"}]},
        "y": {"stop": "1/2", "moves": [{"letter": "a", "to": "y", "p": "1/2"}]},
    },
}

ALL_DOCS = {
    "single_letter_chain": SINGLE_LETTER_CHAIN,
    "cantor": CANTOR,
    "congruence_xz": CONGRUENCE_XZ,
    "two_letter_yz": TWO_LETTER_YZ,
    "half_loop_xy": HALF_LOOP_XY,
}


# the tests' one reference record of a system: ``term`` (state to stop mass)
# and ``moves`` ((source, letter, target) to mass), Fraction dicts in document order
Named = namedtuple("Named", "alphabet states term moves")


def l_star(rep) -> tuple[Fraction, ...]:
    """The termination row of a representation, read from its ``stop_row``,
    or of a system, read from its stop pairs: one Fraction per state."""
    if isinstance(rep, Pts):
        return tuple(Fraction(*p) for p in rep.stops)
    star, den = rep.stop_row
    return tuple(Fraction(star.get(k, 0), den) for k in range(len(rep.states)))


def named(pts: Pts) -> Named:
    """The ``Named`` record of a parsed system, read from its stop and move pairs."""
    alphabet, states = pts.alphabet, pts.states
    return Named(alphabet, states, dict(zip(states, l_star(pts))),
                 {(state, alphabet[a], states[j]): Fraction(*p)
                  for state, row in zip(states, pts.rows) for (a, j), p in row.items()})


def load(doc: dict) -> Pts:
    return parse_pts(json.dumps(doc))


def document(alphabet, states, term, moves) -> dict:
    """The document with the name-keyed Fraction masses ``term`` (state to
    stop mass; a state left out stops with 0) and ``moves`` ((source,
    letter, target) to mass), listed in the order of the dicts."""
    transitions = {state: {"stop": format_rational(p)} for state, p in term.items()}
    for (source, letter, target), p in moves.items():
        transitions.setdefault(source, {}).setdefault("moves", []).append(
            {"letter": letter, "to": target, "p": format_rational(p)})
    return {"alphabet": list(alphabet), "states": list(states), "transitions": transitions}


def pts_of(alphabet, states, term, moves) -> Pts:
    """The system of ``document(alphabet, states, term, moves)``, parsed
    unchecked: its masses may break the model, its names must be declared."""
    return pts_from_dict(document(alphabet, states, term, moves), check=False)


def omitted_extractions(rep, trace, items) -> list[int]:
    """The extractions of an hkc run that step a vector with no move on
    their letter, by index into the run's trace, read from the trace and
    the items ``record`` returned for its recorded extractions, in order,
    with the moves read from the dense matrices: such a step is zero, and
    the run skips it without stepping or recording anything."""
    moving = {letter: {k for k in range(rep.dim) if any(row[k] for row in rep.mats[letter])}
              for letter in rep.alphabet}
    recorded = [extraction.word for extraction in trace if not extraction.skipped]
    stepped = {word: item[0] for word, item in zip(recorded, items, strict=True)}
    return [node for node, e in enumerate(trace[1:], 1)
            if moving[e.word[-1]].isdisjoint(stepped[e.word[:-1]])]


def all_words(alphabet, max_len):
    """Every word over the alphabet up to the given length, shortest first."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in alphabet]
        words.extend(frontier)
    return words


def _random_distribution(rng, letters, states):
    outcomes = ["stop"] + [(a, t) for a in letters for t in states]
    support = rng.sample(outcomes, rng.randint(1, min(3, len(outcomes))))
    units = rng.randint(1, 6)
    counts = {}
    for _ in range(units):
        outcome = rng.choice(support)
        counts[outcome] = counts.get(outcome, 0) + 1
    stop = Fraction(counts.pop("stop", 0), units)
    return stop, {key: Fraction(c, units) for key, c in counts.items()}


def random_pts(rng, max_states=5, max_letters=2, clone_prob=0.3):
    """A random valid system; masses are exact by unit counting.

    With probability ``clone_prob`` the last state is a verbatim copy of the
    first one, which makes the pair trace equivalent by construction and
    gives the equivalence tests positive cases to chew on.
    """
    n = rng.randint(1, max_states)
    letters = ("a", "b", "c")[: rng.randint(1, max_letters)]
    states = tuple(f"s{i}" for i in range(n))
    term, moves = {}, {}
    for state in states:
        stop, row = _random_distribution(rng, letters, states)
        term[state] = stop
        for (letter, target), p in row.items():
            moves[(state, letter, target)] = p
    if n >= 2 and rng.random() < clone_prob:
        original, clone = states[0], states[-1]
        term[clone] = term[original]
        moves = {key: p for key, p in moves.items() if key[0] != clone}
        for (source, letter, target), p in list(moves.items()):
            if source == original:
                moves[(clone, letter, target)] = p
    pts = pts_of(tuple(letters), states, term, moves)
    assert validate(pts) == []
    return pts


SPLIT_RATIOS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                Fraction(3, 4))


def split_copy_pts(rng, max_base=10, max_letters=3, perturb=False):
    """A random system A (states a0..) plus a split copy B of it.

    Every state s of A becomes b<s>p and b<s>q in B, with A's stop mass,
    and each move of a B state into s is split between the two copies in a
    ratio r : (1 - r) drawn per source state.  Both copies behave like s,
    so a0 and b0p are trace equivalent, and since the ratios differ the
    explored difference vectors are not plain clones: the congruence basis
    has to grow.  With ``perturb`` one B state reachable from b0p moves
    part of one move's mass to stopping, which usually breaks the
    equivalence.
    """
    m = rng.randint(1, max_base)
    letters = ("a", "b", "c", "d")[: rng.randint(1, max_letters)]
    base = tuple(f"a{i}" for i in range(m))
    term, moves = {}, {}
    for state in base:
        stop, row = _random_distribution(rng, letters, base)
        term[state] = stop
        for (letter, target), p in row.items():
            moves[(state, letter, target)] = p
    copies = tuple(f"b{i}{c}" for i in range(m) for c in "pq")
    for i, state in enumerate(base):
        for c in "pq":
            source = f"b{i}{c}"
            term[source] = term[state]
            r = rng.choice(SPLIT_RATIOS)
            for (s, letter, target), p in list(moves.items()):
                if s == state:
                    moves[(source, letter, f"b{target[1:]}p")] = p * r
                    moves[(source, letter, f"b{target[1:]}q")] = p * (1 - r)
    if perturb:
        _perturb(rng, term, moves)
    pts = pts_of(tuple(letters), base + copies, term, moves)
    assert validate(pts) == []
    return pts


def _perturb(rng, term, moves):
    """Move part of one move's mass to stopping, in place, at a state
    reachable from b0p: this usually breaks the equivalence of a0 and b0p."""
    reachable, frontier = {"b0p"}, ["b0p"]
    while frontier:
        state = frontier.pop()
        for s, _, target in moves:
            if s == state and target not in reachable:
                reachable.add(target)
                frontier.append(target)
    outgoing = sorted(key for key in moves if key[0] in reachable)
    if outgoing:
        key = rng.choice(outgoing)
        source = key[0]
        shift = moves[key] / rng.randint(2, 4)
        moves[key] -= shift
        term[source] += shift


def _units(rng, outcomes, units=12):
    """Exact masses over distinct outcomes: ``units`` unit counts spread
    over them, every outcome getting at least one."""
    counts = [1] * len(outcomes)
    for _ in range(units - len(outcomes)):
        counts[rng.randrange(len(outcomes))] += 1
    return {outcome: Fraction(c, units) for outcome, c in zip(outcomes, counts)}


def _system(letters, states, outcomes_by_state):
    # outcomes_by_state[s] maps "stop" or (letter, target) to a mass
    term, moves = {}, {}
    for state, masses in outcomes_by_state.items():
        term[state] = masses.get("stop", Fraction(0))
        for key, p in masses.items():
            if key != "stop":
                moves[(state,) + key] = moves.get((state,) + key, Fraction(0)) + p
    pts = pts_of(tuple(letters), tuple(states), term, moves)
    assert validate(pts) == []
    return pts


def sink_split_pts(rng, m, n_letters=2, sinks=2, perturb=False):
    """A chain-like system with non-terminating sink components, and its
    split copy (states a<i> and b<i>p / b<i>q, 3 (m + sinks) in all),
    perturbed as in ``split_copy_pts`` with ``perturb``.

    Chain state i stops, moves on to i + 1, back to i // 2 and to a
    pseudo-random earlier state, and every third one leaks into a sink;
    the sinks only move among themselves.  The finite-mass system then
    couples far-apart states, the case where elimination order matters.
    The letters are ``a``-``d`` and then ``l4``, ``l5``, ..., as many as
    ``n_letters``; with more letters than states some never move.
    """
    letters = ("a", "b", "c", "d")[:n_letters] + tuple(f"l{i}" for i in range(4, n_letters))
    k = len(letters)
    base = [f"a{i}" for i in range(m + sinks)]
    outcomes = {}
    for i in range(m):
        keys = ["stop", (letters[(i + 1) % k], base[i // 2]),
                (letters[(3 * i + 2) % k], base[(7 * i + 3) % (i + 1)])]
        if i + 1 < m:
            keys.append((letters[i % k], base[i + 1]))
        if i % 3 == 1:
            keys.append((letters[i % k], base[m + i % sinks]))
        outcomes[base[i]] = _units(rng, list(dict.fromkeys(keys)))
    for j in range(m, m + sinks):
        keys = [(letters[j % k], base[j]), (letters[j % k], base[m + (j + 1 - m) % sinks])]
        outcomes[base[j]] = _units(rng, list(dict.fromkeys(keys)))
    states = list(base)
    for i, state in enumerate(base):
        for c in "pq":
            r = rng.choice(SPLIT_RATIOS)
            split = {}
            for key, p in outcomes[state].items():
                if key == "stop":
                    split["stop"] = p
                else:
                    letter, target = key
                    split[(letter, f"b{target[1:]}p")] = p * r
                    split[(letter, f"b{target[1:]}q")] = p * (1 - r)
            outcomes[f"b{i}{c}"] = split
            states.append(f"b{i}{c}")
    pts = _system(letters, states, outcomes)
    if perturb:
        _, _, term, moves = named(pts)
        _perturb(rng, term, moves)
        pts = pts_of(pts.alphabet, pts.states, term, moves)
        assert validate(pts) == []
    return pts


def components_pts(rng, components=4, size=4, transient=6, n_letters=2):
    """Closed components, some dead, fed by transient states.

    Each component is a cycle with random extra edges inside it and
    self-loops; in a live component some states stop (one with
    probability 1), in a dead one nothing ever stops, so its finite-word
    mass is 0 and the reachability pre-pass must remove it.  Transient
    states stop, loop on themselves and move into later transient states
    and into the components.
    """
    letters = ("a", "b", "c")[:n_letters]
    groups = [[f"c{g}_{i}" for i in range(size)] for g in range(components)]
    live = [g % 2 == 0 or rng.random() < 0.3 for g in range(components)]
    live[-1] = False
    tstates = [f"t{i}" for i in range(transient)]
    outcomes = {}
    for g, group in enumerate(groups):
        for i, state in enumerate(group):
            keys = [(rng.choice(letters), group[(i + 1) % size]),
                    (rng.choice(letters), state),
                    (rng.choice(letters), rng.choice(group))]
            if live[g] and i == 0:
                outcomes[state] = {"stop": Fraction(1)}
                continue
            if live[g] and rng.random() < 0.5:
                keys.append("stop")
            outcomes[state] = _units(rng, list(dict.fromkeys(keys)))
    targets = [s for group in groups for s in group]
    for i, state in enumerate(tstates):
        keys = [(rng.choice(letters), state), (rng.choice(letters), rng.choice(targets))]
        if i + 1 < transient:
            keys.append((rng.choice(letters), rng.choice(tstates[i + 1:])))
        if rng.random() < 0.5:
            keys.append("stop")
        outcomes[state] = _units(rng, list(dict.fromkeys(keys)))
    return _system(letters, tstates + targets, outcomes)

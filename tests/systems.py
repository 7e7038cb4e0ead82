"""Canonical example systems and randomized system generation for the tests."""

import json
from fractions import Fraction

from ptstrace import Pts, parse_pts, validate

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


def load(doc: dict) -> Pts:
    return parse_pts(json.dumps(doc))


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
    pts = Pts(tuple(letters), states, term, moves)
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
    letters = ("a", "b", "c")[: rng.randint(1, max_letters)]
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
    pts = Pts(tuple(letters), base + copies, term, moves)
    assert validate(pts) == []
    return pts

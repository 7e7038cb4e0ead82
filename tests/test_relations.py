"""Metamorphic relations: a decision must not depend on naming or order.

The exhaustive oracles stop at a few states; a relation between two runs
needs no oracle, so these also run on a sink split copy of 606 states.

- Swap: deciding (y, x) instead of (x, y) gives the same verdict, witness,
  output, ``iterations`` and ``relation_size``, with ``lhs`` and ``rhs``
  swapped.
- Rename: renaming every letter and state, each keeping its place in the
  declared order, changes only the witness's letters, and no finite mass.
- Reorder: declaring the states in another order (shuffled, or reversed
  for the sink split copy) and shuffling the transitions object and every
  move list changes no result and no state's finite mass.
- Unused letters: appending k letters that no state moves on adds k empty
  successors to every item an hkc run records, each skipped, so an
  ``Equivalent`` gains exactly ``k * relation_size`` iterations and a
  ``NotEquivalent`` keeps its witness, output, values and relation size.
- Unreachable states: adding states that no declared state moves to
  changes no result and no finite mass of a declared state.
"""

import random
from dataclasses import replace

from ptstrace import (Equivalent, NotEquivalent, build_rep, finite_mass_vector,
                      hk, hkc_finite, hkc_inf, naive, pts_to_dict)

from systems import load, random_pts, sink_split_pts, split_copy_pts

DECIDERS = {"hkc_inf": hkc_inf, "hkc_finite": hkc_finite,
            "naive": lambda rep, x, y: naive(rep, x, y, 60),
            "hk": lambda rep, x, y: hk(rep, x, y, 60)}


def cases(seed, count):
    """``(pts, x, y)``: seeded random systems with a random pair, split
    copies with the pair (a0, b0p), half of them perturbed, and the sink
    split copy of 606 states, equivalent and perturbed."""
    rng = random.Random(seed)
    for i in range(count):
        pts = random_pts(rng, max_states=6, max_letters=3)
        yield pts, rng.choice(pts.states), rng.choice(pts.states)
        yield split_copy_pts(rng, max_base=8, perturb=i % 2 == 1), "a0", "b0p"
    for perturb in (False, True):
        yield sink_split_pts(random.Random(101), 200, perturb=perturb), "a0", "b0p"


def test_swapping_the_states_swaps_only_the_values():
    runs = separated = 0
    for pts, x, y in cases(16, 75):
        rep = build_rep(pts)
        for name, decide in DECIDERS.items():
            forward, backward = decide(rep, x, y), decide(rep, y, x)
            runs += 2
            if isinstance(forward, NotEquivalent):
                separated += 1
                forward = replace(forward, lhs=forward.rhs, rhs=forward.lhs)
            assert backward == forward, (name, x, y)
    assert runs >= 1200 and separated >= 200


def renaming(pts):
    """Each letter and state renamed, in place in the declared order, to a
    name that sorts the other way; returns the document, its moves listed
    canonically, and both maps."""
    letters = {a: f"é{len(pts.alphabet) - i:02d}" for i, a in enumerate(pts.alphabet)}
    states = {s: f"q{len(pts.states) - k:04d}" for k, s in enumerate(pts.states)}
    doc = pts_to_dict(pts)
    transitions = {}
    for state, entry in doc["transitions"].items():
        moves = [{**m, "letter": letters[m["letter"]], "to": states[m["to"]]}
                 for m in entry.get("moves", [])]
        transitions[states[state]] = {**entry, "moves": moves}
    return {"alphabet": [letters[a] for a in doc["alphabet"]],
            "states": [states[s] for s in doc["states"]],
            "transitions": transitions}, letters, states


def test_renaming_letters_and_states_changes_only_the_witness_letters():
    runs = witnesses = 0
    for pts, x, y in cases(17, 50):
        doc, letters, states = renaming(pts)
        rep, renamed = build_rep(pts), build_rep(load(doc))
        assert finite_mass_vector(renamed) == finite_mass_vector(rep)
        for name, decide in DECIDERS.items():
            result, other = decide(rep, x, y), decide(renamed, states[x], states[y])
            runs += 2
            if isinstance(result, NotEquivalent):
                witnesses += bool(result.witness)
                result = replace(result, witness=tuple(letters[a] for a in result.witness))
            assert other == result, (name, x, y)
    assert runs >= 800 and witnesses >= 100


def masses(rep):
    """Each state's finite mass, by name."""
    return dict(zip(rep.states, finite_mass_vector(rep)))


def reordering(pts, rng, states):
    """The document with its states declared in the order ``states`` and its
    transitions object and every move list shuffled; the alphabet keeps its
    order, which fixes the search's."""
    doc = pts_to_dict(pts)
    entries = list(doc["transitions"].items())
    rng.shuffle(entries)
    transitions = {state: {**entry, "moves": rng.sample(moves, len(moves))}
                   if (moves := entry.get("moves")) else entry for state, entry in entries}
    return {**doc, "states": list(states), "transitions": transitions}


def test_reordering_states_and_moves_changes_nothing():
    runs = separated = 0
    rng = random.Random(18)
    for pts, x, y in cases(18, 50):
        # the sink split copy is declared in reverse: a random numbering
        # costs its equivalent hkc runs 8-16 times the time, seconds each
        states = (rng.sample(pts.states, len(pts.states)) if len(pts.states) < 100
                  else pts.states[::-1])
        rep, reordered = build_rep(pts), build_rep(load(reordering(pts, rng, states)))
        assert reordered.states != rep.states or len(rep.states) < 4
        assert masses(reordered) == masses(rep)
        for name, decide in DECIDERS.items():
            result = decide(rep, x, y)
            assert decide(reordered, x, y) == result, (name, x, y)
            runs += 2
            separated += isinstance(result, NotEquivalent)
    assert runs >= 800 and separated >= 100


def test_unused_letters_add_only_skipped_iterations():
    runs = equivalent = separated = 0
    rng = random.Random(19)
    for pts, x, y in cases(19, 50):
        k = rng.randint(1, 3)
        doc = pts_to_dict(pts)
        doc["alphabet"] += [f"unused{i}" for i in range(k)]
        rep, wider = build_rep(pts), build_rep(load(doc))
        assert masses(wider) == masses(rep)
        for decide in (hkc_inf, hkc_finite):
            result, other = decide(rep, x, y), decide(wider, x, y)
            runs += 2
            if isinstance(result, Equivalent):
                equivalent += result.relation_size > 0
                added = k * result.relation_size
                assert other == replace(result, iterations=result.iterations + added)
            else:
                separated += 1
                assert other == replace(result, iterations=other.iterations)
                assert other.iterations >= result.iterations
    assert runs >= 400 and equivalent >= 50 and separated >= 50


def test_unreachable_states_change_nothing():
    runs = separated = 0
    rng = random.Random(20)
    for pts, x, y in cases(20, 50):
        doc = pts_to_dict(pts)
        # each added state stops or moves to any state, added ones included
        added = [f"unreachable{i}" for i in range(rng.randint(1, 4))]
        targets = doc["states"] + added
        for state in added:
            doc["states"].insert(rng.randint(0, len(doc["states"])), state)
            doc["transitions"][state] = {"stop": "1/3", "moves": [
                {"letter": rng.choice(doc["alphabet"]), "to": rng.choice(targets), "p": "2/3"}]}
        rep, larger = build_rep(pts), build_rep(load(doc))
        larger_masses = masses(larger)
        assert {s: larger_masses[s] for s in rep.states} == masses(rep)
        for name, decide in DECIDERS.items():
            result = decide(rep, x, y)
            assert decide(larger, x, y) == result, (name, x, y)
            runs += 2
            separated += isinstance(result, NotEquivalent)
    assert runs >= 800 and separated >= 100

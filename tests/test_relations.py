"""Metamorphic relations: a decision must not depend on naming or order.

The exhaustive oracles stop at a few states; a relation between two runs
needs no oracle, so these also run on a sink split copy of 606 states.

- Swap: deciding (y, x) instead of (x, y) gives the same verdict, witness,
  output, ``iterations`` and ``relation_size``, with ``lhs`` and ``rhs``
  swapped.
- Rename: renaming every letter and state, each keeping its place in the
  declared order, changes only the witness's letters, and no finite mass.
"""

import random
from dataclasses import replace

from ptstrace import (NotEquivalent, build_rep, finite_mass_vector, hk,
                      hkc_finite, hkc_inf, naive, pts_to_dict)

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

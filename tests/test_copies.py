"""A parsed system and its representation survive pickle and deepcopy.

Both are frozen dataclasses.  A system is a plain record of its parsed
pairs; a representation keeps its derived views and caches on the
instance once read.  A copy, of a system or of a representation whose
caches are filled, must equal the original and give the same answers.
"""

import copy
import pickle
import random

from ptstrace import (AllFinite, AllInfinite, Cone, FiniteWord, InfCone, build_rep, dirac,
                      hkc_finite, hkc_inf, measure, parse_pts, serialize_pts, validate)

from systems import ALL_DOCS, load, sink_split_pts, split_copy_pts

SYSTEMS = [load(doc) for doc in ALL_DOCS.values()]
SYSTEMS += [split_copy_pts(random.Random(68), max_base=5, perturb=True),
            sink_split_pts(random.Random(71), 6, n_letters=2)]


def _copies(value):
    return [pickle.loads(pickle.dumps(value)), copy.deepcopy(value)]


def test_a_parsed_system_survives_pickle_and_deepcopy():
    for system in SYSTEMS:
        pts = parse_pts(serialize_pts(system))
        for copied in _copies(pts):
            assert copied == pts
            assert validate(copied) == validate(pts) == []
            assert serialize_pts(copied) == serialize_pts(pts)
            assert build_rep(copied) == build_rep(pts)


def test_a_representation_survives_pickle_and_deepcopy_with_its_caches_filled():
    for pts in SYSTEMS:
        rep = build_rep(pts)
        x, y = pts.states[0], pts.states[-1]
        assert rep.stop_row and rep.mats is rep.mats
        finite = measure(rep, dirac(rep, x), AllFinite())
        word = pts.alphabet[:1] * 3
        for copied in _copies(rep):
            assert copied == rep
            assert copied.stop_row == rep.stop_row and copied.mats == rep.mats
            assert measure(copied, dirac(copied, x), AllFinite()) == finite
            for state in pts.states:
                for target in (AllFinite(), AllInfinite(), FiniteWord(word), Cone(word),
                               InfCone(word)):
                    assert measure(copied, dirac(copied, state), target) == \
                        measure(rep, dirac(rep, state), target)
            for decide in (hkc_inf, hkc_finite):
                assert decide(copied, x, y) == decide(rep, x, y)

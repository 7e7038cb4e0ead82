"""Brute-force oracles and their agreement with the main code paths."""

import random
from fractions import Fraction

import pytest

from ptstrace import (Cone, FiniteWord, NotEquivalent, UnknownIdentifier,
                      brute_measure, build_rep, dirac, hkc_inf, measure,
                      word_oracle_equiv)

from systems import all_words, named, random_pts

F = Fraction


def test_brute_chain_double_step(chain_pts):
    assert brute_measure(chain_pts, "y", FiniteWord(("a", "a"))) == F(1, 27)


def test_brute_empty_word_is_stop_mass(chain_pts, worked_pts):
    assert brute_measure(chain_pts, "y", FiniteWord(())) == named(chain_pts).term["y"]
    reference = named(worked_pts)
    for state in worked_pts.states:
        assert brute_measure(worked_pts, state, FiniteWord(())) == reference.term[state]


def test_brute_cantor_cone(cantor_pts):
    assert brute_measure(cantor_pts, "x", Cone(("0", "2"))) == F(1, 9)


def test_brute_rejects_bad_arguments(chain_pts):
    with pytest.raises(UnknownIdentifier):
        brute_measure(chain_pts, "ghost", FiniteWord(()))
    with pytest.raises(UnknownIdentifier):
        brute_measure(chain_pts, "x", Cone(("b",)))
    with pytest.raises(TypeError):
        brute_measure(chain_pts, "x", ("a",))


def test_word_oracle_on_worked_pair(worked_rep):
    assert word_oracle_equiv(worked_rep, dirac(worked_rep, "x"),
                             dirac(worked_rep, "z"), 4)


def test_word_oracle_reflexive(worked_rep):
    u = (F(1, 2), F(0), F(1, 3), F(-2))
    assert word_oracle_equiv(worked_rep, u, u, 6)


def test_word_oracle_refutes_two_letter_pair(yz_rep):
    assert not word_oracle_equiv(yz_rep, dirac(yz_rep, "y"),
                                 dirac(yz_rep, "z"), 2)


def test_word_oracle_rejects_a_negative_depth(worked_rep):
    u = dirac(worked_rep, "x")
    with pytest.raises(ValueError, match=r"^depth must be >= 0$"):
        word_oracle_equiv(worked_rep, u, u, -1)


def test_brute_agrees_with_measure_on_random_systems():
    rng = random.Random(83)
    for _ in range(40):
        pts = random_pts(rng, max_states=4)
        rep = build_rep(pts)
        state = rng.choice(pts.states)
        u = dirac(rep, state)
        for word in all_words(pts.alphabet, 6):
            assert brute_measure(pts, state, FiniteWord(word)) == \
                measure(rep, u, FiniteWord(word))
            assert brute_measure(pts, state, Cone(word)) == \
                measure(rep, u, Cone(word))


def test_shallow_refutation_implies_not_equivalent():
    rng = random.Random(89)
    refuted = 0
    for _ in range(60):
        pts = random_pts(rng, clone_prob=0.0)
        rep = build_rep(pts)
        x, y = rng.choice(pts.states), rng.choice(pts.states)
        for depth in range(rep.dim + 1):
            if not word_oracle_equiv(rep, dirac(rep, x), dirac(rep, y), depth):
                assert isinstance(hkc_inf(rep, x, y), NotEquivalent)
                refuted += 1
                break
    assert refuted >= 20

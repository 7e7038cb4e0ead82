"""Acceptance suite: one test per criterion, all equalities exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import random
from fractions import Fraction

from ptstrace import (All, AllFinite, AllInfinite, Cone, Equivalent,
                      FiniteWord, Inconclusive, NotEquivalent, OutputKind,
                      brute_measure, build_rep, dirac, hkc_finite, hkc_inf,
                      measure, naive, word_oracle_equiv)

from systems import (CANTOR, CONGRUENCE_XZ, HALF_LOOP_XY,
                     SINGLE_LETTER_CHAIN, TWO_LETTER_YZ, all_words, load,
                     random_pts)

F = Fraction


def test_criterion_1_single_letter_chain_measures():
    rep = build_rep(load(SINGLE_LETTER_CHAIN))
    y = dirac(rep, "y")
    x = dirac(rep, "x")
    for n in range(21):
        word = ("a",) * n
        assert measure(rep, y, FiniteWord(word)) == F(1, 3 ** (n + 1))
        assert measure(rep, y, Cone(word)) == (1 + F(1, 3 ** n)) / 2
        assert measure(rep, x, FiniteWord(word)) == F(0)
        assert measure(rep, x, Cone(word)) == F(1)
    assert measure(rep, y, AllInfinite()) == F(1, 2)
    print("\n[criterion 1] PASS: single-letter chain word/cone/infinite measures")


def test_criterion_2_cantor_measures():
    rep = build_rep(load(CANTOR))
    x = dirac(rep, "x")
    for word in all_words(("0", "2"), 8):
        assert measure(rep, x, FiniteWord(word + ("1",))) == F(1, 3) ** (len(word) + 1)
        assert measure(rep, x, Cone(word)) == F(1, 3) ** len(word)
    assert measure(rep, x, AllInfinite()) == F(0)
    assert measure(rep, x, AllFinite()) == F(1)
    print("\n[criterion 2] PASS: ternary-digit generator measures, "
          "zero mass on infinite words")


def test_criterion_3_worked_congruence_run():
    rep = build_rep(load(CONGRUENCE_XZ))
    assert rep.l_star == (F(1, 3), F(2, 3), F(1, 3), F(0))
    assert rep.mats["a"] == (
        (F(0), F(0), F(0), F(0)),
        (F(1, 6), F(1, 3), F(0), F(0)),
        (F(0), F(0), F(1, 3), F(0)),
        (F(1, 2), F(0), F(1, 3), F(1)),
    )
    trace = []
    result = hkc_inf(rep, "x", "z", trace=trace, debug=True)
    assert result == Equivalent(iterations=3, relation_size=2)
    assert len(trace) == 3
    assert trace[1].left == (F(0), F(1, 6), F(0), F(1, 2))
    assert trace[1].right == (F(0), F(0), F(1, 3), F(1, 3))
    assert trace[2].left == (F(0), F(1, 18), F(0), F(1, 2))
    assert trace[2].right == (F(0), F(0), F(1, 9), F(4, 9))
    assert trace[2].skipped
    print("\n[criterion 3] PASS: four-state run reproduces outputs, matrices, "
          "and both intermediate pair vectors")


def test_criterion_4_infinite_trace_discrimination():
    rep = build_rep(load(TWO_LETTER_YZ))
    result = hkc_inf(rep, "y", "z")
    assert isinstance(result, NotEquivalent)
    assert result.witness == ("a",)
    assert result.output == OutputKind.TOTAL_MASS
    assert (result.lhs, result.rhs) == (F(1, 2), F(3, 4))
    assert isinstance(hkc_finite(rep, "y", "z"), Equivalent)
    print("\n[criterion 4] PASS: infinite traces separate y/z; "
          "finite-only variant accepts them")


def test_criterion_5_congruence_terminates_where_naive_cannot():
    rep = build_rep(load(HALF_LOOP_XY))
    result = hkc_inf(rep, "x", "y")
    assert isinstance(result, Equivalent)
    assert result.relation_size == 1
    assert naive(rep, "x", "y", 100) == \
        Inconclusive(steps_exhausted=100, relation_size=100)
    print("\n[criterion 5] PASS: one recorded pair closes the half-loop run; "
          "naive exhausts its 100-step budget")


def test_criterion_6_randomized_property_suite():
    rng = random.Random(20260811)
    instances = 500
    for _ in range(instances):
        pts = random_pts(rng, max_states=5, max_letters=2)
        rep = build_rep(pts)
        n = rep.dim

        # (a) factorization identity l_one = l_star + sum_a l_one . M_a
        for k in range(n):
            outflow = sum((m[j][k] for m in rep.mats.values()
                           for j in range(n)), F(0))
            assert rep.l_one[k] == rep.l_star[k] + outflow

        # (b) generator additivity up to length 4 from every state
        words4 = all_words(pts.alphabet, 4)
        for state in pts.states:
            u = dirac(rep, state)
            for word in words4:
                assert measure(rep, u, Cone(word)) == \
                    measure(rep, u, FiniteWord(word)) + sum(
                        (measure(rep, u, Cone(word + (a,)))
                         for a in pts.alphabet), F(0))

        # (c) total mass splits into finite and infinite parts
        for state in pts.states:
            v = dirac(rep, state)
            assert measure(rep, v, All()) == \
                measure(rep, v, AllFinite()) + measure(rep, v, AllInfinite())

        # (d, f, g) decision procedure against the word oracle
        x, y = rng.choice(pts.states), rng.choice(pts.states)
        result = hkc_inf(rep, x, y)
        oracle = word_oracle_equiv(rep, dirac(rep, x), dirac(rep, y), n)
        assert isinstance(result, Equivalent) == oracle
        assert result.iterations <= 1 + len(pts.alphabet) * n
        if isinstance(result, NotEquivalent):
            # independent of the kernel: path enumeration on the witness set
            witness = (Cone if result.output == OutputKind.TOTAL_MASS
                       else FiniteWord)(result.witness)
            lhs, rhs = (brute_measure(pts, s, witness) for s in (x, y))
            assert (lhs, rhs) == (result.lhs, result.rhs)
            assert lhs != rhs

        # (e) matrix path against raw path enumeration up to length 6
        state = rng.choice(pts.states)
        w = dirac(rep, state)
        for word in all_words(pts.alphabet, 6):
            assert brute_measure(pts, state, FiniteWord(word)) == \
                measure(rep, w, FiniteWord(word))
            assert brute_measure(pts, state, Cone(word)) == \
                measure(rep, w, Cone(word))

    print(f"\n[criterion 6] PASS: {instances} random systems satisfy "
          "properties (a) through (g)")

"""The determinized linear representation and configuration algebra."""

import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptstrace import (All, Cone, CongruenceBasis, FiniteWord, UnknownIdentifier,
                      brute_measure, build_rep, dirac, measure, parse_pts, step)

from systems import CONGRUENCE_XZ, l_star, load, random_pts

F = Fraction


def test_worked_rep_reproduces_printed_matrices(worked_rep):
    assert l_star(worked_rep) == (F(1, 3), F(2, 3), F(1, 3), F(0))
    assert worked_rep.mats["a"] == (
        (F(0), F(0), F(0), F(0)),
        (F(1, 6), F(1, 3), F(0), F(0)),
        (F(0), F(0), F(1, 3), F(0)),
        (F(1, 2), F(0), F(1, 3), F(1)),
    )


def test_two_letter_rep_is_diagonal(yz_rep):
    assert yz_rep.mats["a"] == ((F(1, 2), F(0)), (F(0), F(3, 4)))
    assert yz_rep.mats["b"] == ((F(1, 2), F(0)), (F(0), F(1, 4)))
    assert l_star(yz_rep) == (F(0), F(0))


def test_single_terminating_state():
    rep = build_rep(parse_pts(json.dumps({
        "alphabet": ["a"],
        "states": ["s"],
        "transitions": {"s": {"stop": "1"}},
    })))
    assert l_star(rep) == (F(1),)
    assert rep.mats["a"] == ((F(0),),)
    # factorization identity degenerates to 1 = 1 + 0
    assert l_star(rep)[0] + rep.mats["a"][0][0] == 1


def test_dirac(worked_rep):
    assert dirac(worked_rep, "x") == (F(1), F(0), F(0), F(0))
    assert measure(worked_rep, dirac(worked_rep, "y"), All()) == F(1)
    single = build_rep(parse_pts(json.dumps({
        "alphabet": [], "states": ["s"], "transitions": {"s": {"stop": "1"}}})))
    assert dirac(single, "s") == (F(1),)
    with pytest.raises(UnknownIdentifier):
        dirac(worked_rep, "ghost")


def test_dense_lays_out_a_letter_and_names_an_undeclared_one(yz_rep):
    # cell gets each numerator with the letter's denominator
    assert list(yz_rep.dense("a", lambda p, d: f"{p}/{d}", "0")) == [["2/4", "0"], ["0", "3/4"]]
    with pytest.raises(UnknownIdentifier, match=r"^undeclared letter 'zz'$"):
        yz_rep.dense("zz", str, "0")


@pytest.mark.parametrize("entry", [0.5, "1/2", Decimal("0.5"), 1j, 0.0, None, ""],
                         ids=["float", "str", "Decimal", "complex", "zero float", "None",
                              "empty str"])
def test_a_non_rational_entry_is_refused_by_index_and_type(worked_rep, entry):
    # a zero-valued or falsy entry too; Fraction and int entries beside it
    # are read as they always were
    u, x = (F(1, 3), 2, entry, F(0)), dirac(worked_rep, "x")
    message = rf"^configuration entry 2 is a {type(entry).__name__}, not rational$"
    for call in (lambda: measure(worked_rep, u, All()), lambda: step(worked_rep, u, "a"),
                 lambda: CongruenceBasis(4).contains(u, x),
                 lambda: CongruenceBasis(4).insert(x, u)):
        with pytest.raises(TypeError, match=message):
            call()
    assert measure(worked_rep, (F(1, 3), 2, F(0), 0), All()) == F(7, 3)


def test_step_examples(worked_rep):
    assert step(worked_rep, (F(1), F(0), F(0), F(0)), "a") == \
        (F(0), F(1, 6), F(0), F(1, 2))
    assert step(worked_rep, (F(0), F(0), F(1), F(0)), "a") == \
        (F(0), F(0), F(1, 3), F(1, 3))
    zero = (F(0),) * 4
    assert step(worked_rep, zero, "a") == zero
    with pytest.raises(UnknownIdentifier):
        step(worked_rep, zero, "b")


def _walk(rep, u, word):
    # M_w . u, one step per letter, left to right
    for letter in word:
        u = step(rep, u, letter)
    return u


def test_word_transform_examples(worked_rep, yz_rep, yz_pts):
    assert _walk(worked_rep, dirac(worked_rep, "x"), ("a", "a")) == \
        (F(0), F(1, 18), F(0), F(1, 2))
    u = (F(1, 7), F(2, 7), F(0), F(4, 7))
    assert _walk(worked_rep, u, ()) == u
    # hand multiply M_b . M_a . e_y, then cross-check by path enumeration
    v = _walk(yz_rep, dirac(yz_rep, "y"), ("a", "b"))
    assert v == (F(1, 4), F(0))
    assert measure(yz_rep, v, All()) == brute_measure(yz_pts, "y", Cone(("a", "b")))
    assert measure(yz_rep, v, FiniteWord(())) == \
        brute_measure(yz_pts, "y", FiniteWord(("a", "b")))


def test_output_examples(worked_rep):
    ex = dirac(worked_rep, "x")
    assert measure(worked_rep, ex, FiniteWord(())) == F(1, 3)
    assert measure(worked_rep, ex, All()) == F(1)
    loop2 = (F(0), F(1, 6), F(0), F(1, 2))
    assert measure(worked_rep, loop2, FiniteWord(())) == F(1, 9)
    assert measure(worked_rep, loop2, All()) == F(2, 3)
    assert measure(worked_rep, (F(0),) * 4, All()) == F(0)


def test_factorization_identity_on_random_systems():
    # each state's stop mass plus its column sums is 1, on two seeded samples
    for seed, count in ((23, 100), (29, 50)):
        rng = random.Random(seed)
        for _ in range(count):
            rep = build_rep(random_pts(rng))
            n, star = rep.dim, l_star(rep)
            for k in range(n):
                outflow = sum(m[j][k] for m in rep.mats.values() for j in range(n))
                assert star[k] + outflow == 1


def test_step_of_dirac_is_matrix_column():
    rng = random.Random(31)
    for _ in range(50):
        rep = build_rep(random_pts(rng))
        for state in rep.states:
            k = rep.state_index(state)
            for letter in rep.alphabet:
                column = tuple(rep.mats[letter][j][k] for j in range(rep.dim))
                assert step(rep, dirac(rep, state), letter) == column


_rational = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_LINEARITY_REP = build_rep(load(CONGRUENCE_XZ))


@given(alpha=_rational, beta=_rational,
       data=st.lists(st.tuples(_rational, _rational), min_size=4, max_size=4))
def test_step_is_linear(alpha, beta, data):
    rep = _LINEARITY_REP
    u = tuple(pair[0] for pair in data)
    v = tuple(pair[1] for pair in data)
    mix = tuple(alpha * a + beta * b for a, b in zip(u, v))
    stepped = tuple(alpha * a + beta * b
                    for a, b in zip(step(rep, u, "a"), step(rep, v, "a")))
    assert step(rep, mix, "a") == stepped

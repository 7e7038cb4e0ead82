"""Trace-measure evaluation: finite-word mass, generator sets, query syntax."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptstrace import (All, AllFinite, AllInfinite, Cone, Empty, FiniteWord,
                      InfCone, PtsFormatError, SingularRestrictedSystem,
                      UnknownIdentifier, build_rep, dirac, finite_mass_vector,
                      measure, parse_query, step, tokenize_word)
from ptstrace.measure import _WordSet

from systems import all_words, l_star, named, random_pts, sink_split_pts, split_copy_pts

F = Fraction


def test_finite_mass_single_letter_chain(chain_rep):
    # x loops forever (mass 0 on finite words); from y the stop masses
    # 1/3^(n+1) sum to 1/2
    assert finite_mass_vector(chain_rep) == (F(0), F(1, 2))


def test_finite_mass_cantor(cantor_rep):
    assert finite_mass_vector(cantor_rep) == (F(1), F(1))
    assert measure(cantor_rep, dirac(cantor_rep, "x"), AllInfinite()) == F(0)


def test_finite_mass_no_termination(yz_rep):
    assert finite_mass_vector(yz_rep) == (F(0), F(0))
    assert measure(yz_rep, dirac(yz_rep, "y"), FiniteWord(("a",))) == F(0)


def test_chain_word_and_cone_values(chain_rep):
    u = dirac(chain_rep, "y")
    for n in range(9):
        word = ("a",) * n
        assert measure(chain_rep, u, FiniteWord(word)) == F(1, 3 ** (n + 1))
        assert measure(chain_rep, u, Cone(word)) == (1 + F(1, 3 ** n)) / 2
    v = dirac(chain_rep, "x")
    assert measure(chain_rep, v, FiniteWord(("a",) * 5)) == F(0)
    assert measure(chain_rep, v, Cone(("a",) * 5)) == F(1)


def test_cantor_word_and_cone_values(cantor_rep):
    u = dirac(cantor_rep, "x")
    for word in all_words(("0", "2"), 4):
        assert measure(cantor_rep, u, FiniteWord(word + ("1",))) == \
            F(1, 3) ** (len(word) + 1)
        assert measure(cantor_rep, u, Cone(word)) == F(1, 3) ** len(word)
    # words containing a 1 anywhere but last carry no mass
    assert measure(cantor_rep, u, FiniteWord(("1", "0"))) == F(0)


def test_empty_and_all_are_trivial(worked_rep):
    for state in worked_rep.states:
        u = dirac(worked_rep, state)
        assert measure(worked_rep, u, Empty()) == F(0)
        assert measure(worked_rep, u, All()) == F(1)


def test_infcone_by_subtraction_and_partial_sums(chain_rep):
    u = dirac(chain_rep, "y")
    value = measure(chain_rep, u, InfCone(("a",)))
    assert value == F(1, 2)
    # the infinite-only cone is the cone minus all finite words in it;
    # partial sums of the word masses approach the difference from below
    cone = measure(chain_rep, u, Cone(("a",)))
    partial = F(0)
    previous = cone
    for n in range(20):
        partial += measure(chain_rep, u, FiniteWord(("a",) * (n + 1)))
        remainder = cone - partial
        assert value <= remainder <= previous
        previous = remainder
    assert remainder - value < F(1, 3) ** 18


def test_generator_additivity_random():
    rng = random.Random(37)
    for _ in range(30):
        pts = random_pts(rng, max_letters=3)
        rep = build_rep(pts)
        u = dirac(rep, rng.choice(pts.states))
        for word in all_words(pts.alphabet, 3):
            cone = measure(rep, u, Cone(word))
            parts = measure(rep, u, FiniteWord(word)) + sum(
                (measure(rep, u, Cone(word + (a,))) for a in pts.alphabet), F(0))
            assert cone == parts


def test_all_splits_into_finite_and_infinite():
    rng = random.Random(41)
    for _ in range(40):
        pts = random_pts(rng)
        rep = build_rep(pts)
        for state in pts.states:
            u = dirac(rep, state)
            assert measure(rep, u, All()) == \
                measure(rep, u, AllFinite()) + measure(rep, u, AllInfinite())


def test_monotonicity_for_subdistributions():
    rng = random.Random(43)
    for _ in range(30):
        pts = random_pts(rng)
        rep = build_rep(pts)
        u = dirac(rep, rng.choice(pts.states))
        for word in all_words(pts.alphabet, 3):
            word_mass = measure(rep, u, FiniteWord(word))
            cone_mass = measure(rep, u, Cone(word))
            assert F(0) <= word_mass <= cone_mass <= F(1)


def test_finite_mass_is_exact_fixed_point():
    rng = random.Random(47)
    for _ in range(60):
        rep = build_rep(random_pts(rng))
        s = finite_mass_vector(rep)
        n, star = rep.dim, l_star(rep)
        for k in range(n):
            inflow = sum((m[j][k] * s[j] for m in rep.mats.values()
                          for j in range(n)), F(0))
            assert s[k] == star[k] + inflow
            assert F(0) <= s[k] <= F(1)


def test_least_solution_on_no_termination_example(yz_rep):
    # with no termination anywhere the fixed-point system is degenerate:
    # any constant-per-state vector solves it, and the computed solution
    # sits below every nonnegative one
    s = finite_mass_vector(yz_rep)
    assert s == (F(0), F(0))
    rng = random.Random(53)
    n, star = yz_rep.dim, l_star(yz_rep)
    for _ in range(20):
        kernel = tuple(F(rng.randint(0, 8), rng.randint(1, 5)) for _ in range(n))
        candidate = tuple(a + b for a, b in zip(s, kernel))
        for k in range(n):
            inflow = sum((m[j][k] * candidate[j] for m in yz_rep.mats.values()
                          for j in range(n)), F(0))
            assert candidate[k] == star[k] + inflow
        assert all(a <= c for a, c in zip(s, candidate))


def test_finite_mass_decomposes_by_word_length():
    # exact layering: the finite-word mass from u is the mass of all words
    # up to length N plus the finite-word mass carried by each length-N+1
    # continuation vector
    rng = random.Random(97)
    for _ in range(25):
        pts = random_pts(rng, max_states=4)
        rep = build_rep(pts)
        u = dirac(rep, rng.choice(pts.states))
        total = measure(rep, u, AllFinite())
        depth = 5
        short_mass = sum((measure(rep, u, FiniteWord(w))
                          for w in all_words(pts.alphabet, depth)), F(0))
        frontier = [u]
        for _ in range(depth + 1):
            frontier = [step(rep, v, a) for v in frontier for a in pts.alphabet]
        carried = sum((measure(rep, v, AllFinite()) for v in frontier), F(0))
        assert total == short_mass + carried
        assert short_mass <= total


def test_measure_derivative_law():
    rng = random.Random(59)
    for _ in range(30):
        pts = random_pts(rng)
        rep = build_rep(pts)
        u = dirac(rep, rng.choice(pts.states))
        for word in all_words(pts.alphabet, 2):
            for letter in pts.alphabet:
                assert measure(rep, u, Cone((letter,) + word)) == \
                    measure(rep, step(rep, u, letter), Cone(word))


def test_measure_accepts_arbitrary_configs(worked_rep):
    u = (F(2), F(-1, 3), F(0), F(1, 2))
    assert measure(worked_rep, u, All()) == sum(u, F(0))
    assert measure(worked_rep, u, FiniteWord(())) == \
        sum((s * x for s, x in zip(l_star(worked_rep), u)), F(0))


def test_measure_rejects_wrong_length_for_every_target(worked_rep):
    short = (F(1), F(0))
    for target in (Empty(), FiniteWord(()), Cone(("a",)), InfCone(()),
                   AllFinite(), AllInfinite(), All()):
        with pytest.raises(ValueError, match="length 2, expected 4"):
            measure(worked_rep, short, target)
        for wrong in ((), short * 3):
            with pytest.raises(ValueError, match=f"length {len(wrong)}, expected 4"):
                measure(worked_rep, wrong, target)


@pytest.mark.parametrize("target", [object(), _WordSet(("a",))], ids=["object", "_WordSet"])
def test_measure_rejects_a_non_generator_target(worked_rep, target):
    # the private base of the word sets is not a query of its own
    with pytest.raises(TypeError, match="not a generator-set query"):
        measure(worked_rep, dirac(worked_rep, "x"), target)


def test_measure_rejects_undeclared_letter(worked_rep):
    with pytest.raises(UnknownIdentifier):
        measure(worked_rep, dirac(worked_rep, "x"), Cone(("b",)))


def test_tokenize_word_forms():
    alphabet = ("0", "1", "2")
    assert tokenize_word("0.2.1", alphabet) == ("0", "2", "1")
    assert tokenize_word("021", alphabet) == ("0", "2", "1")
    assert tokenize_word("", alphabet) == ()
    assert tokenize_word("abba", ("a", "b")) == ("a", "b", "b", "a")
    with pytest.raises(UnknownIdentifier):
        tokenize_word("abc", ("a", "b"))
    with pytest.raises(UnknownIdentifier):
        tokenize_word("a.c", ("a", "b"))


def test_tokenize_word_prefers_longest_letter():
    assert tokenize_word("abab", ("a", "ab")) == ("ab", "ab")
    assert tokenize_word("ab.a", ("a", "ab")) == ("ab", "a")


def test_tokenize_word_backtracks_when_the_longest_letter_leads_nowhere():
    assert tokenize_word("abc", ("ab", "a", "bc")) == ("a", "bc")
    assert tokenize_word("abcab", ("ab", "a", "bc")) == ("a", "bc", "ab")
    assert tokenize_word("aaab", ("aa", "a", "ab")) == ("aa", "ab")
    # the error names the furthest position any split reached
    with pytest.raises(UnknownIdentifier, match="at position 3 "):
        tokenize_word("aaab", ("aa", "a"))
    with pytest.raises(UnknownIdentifier, match="at position 2 "):
        tokenize_word("abc", ("a", "b"))
    # failed positions are not retried: 400 letters, 3^133 splits up to the end
    with pytest.raises(UnknownIdentifier, match="at position 399 "):
        tokenize_word("a" * 399 + "b", ("a", "aa", "aaa"))


def _splits(text, by_length):
    # every split into letters, longest letter first at each position
    if not text:
        yield ()
    for letter in by_length:
        if text.startswith(letter):
            for rest in _splits(text[len(letter):], by_length):
                yield (letter,) + rest


@given(st.lists(st.sampled_from(["a", "b", "ab", "ba", "aab", "bb"]), min_size=1,
                max_size=4, unique=True),
       st.text(alphabet="ab", max_size=10))
def test_tokenize_word_is_the_first_split_in_longest_first_order(alphabet, text):
    by_length = sorted(alphabet, key=len, reverse=True)
    expected = next(_splits(text, by_length), None)
    if expected is None:
        with pytest.raises(UnknownIdentifier):
            tokenize_word(text, tuple(alphabet))
    else:
        assert tokenize_word(text, tuple(alphabet)) == expected


@given(st.lists(st.sampled_from(["0", "1", "2"]), max_size=8))
def test_tokenize_inverts_dotted_join(letters):
    word = tuple(letters)
    assert tokenize_word(".".join(word), ("0", "1", "2")) == word


def test_parse_query_forms():
    alphabet = ("a", "b")
    assert parse_query("empty", alphabet) == Empty()
    assert parse_query("finite", alphabet) == AllFinite()
    assert parse_query("infinite", alphabet) == AllInfinite()
    assert parse_query("all", alphabet) == All()
    assert parse_query("word:abba", alphabet) == FiniteWord(("a", "b", "b", "a"))
    assert parse_query("cone:a.b", alphabet) == Cone(("a", "b"))
    assert parse_query("infcone:a", alphabet) == InfCone(("a",))
    assert parse_query("word:", alphabet) == FiniteWord(())
    # the same word names different sets; a list word is stored as a tuple
    assert Cone(("a",)) != FiniteWord(("a",)) != InfCone(("a",))
    assert Cone(["a", "b"]).word == ("a", "b")
    with pytest.raises(PtsFormatError):
        parse_query("prefix:ab", alphabet)
    with pytest.raises(UnknownIdentifier):
        parse_query("cone:zz", alphabet)


def test_solve_sparse_integer_solution_and_singular_systems():
    solve = sys.modules["ptstrace.linear"]._solve_sparse
    # 2x - y = 1, -x + 3y = 2 (rhs under key 2): x = 1, y = 1, over den 1;
    # -3x = 1, 6y = -1: negative pivots, x = -1/3, y = -1/6 over den 6
    assert solve([{0: 2, 1: -1, 2: 1}, {0: -1, 1: 3, 2: 2}], 2) == ((1, 1), 1)
    assert solve([{0: -3, 2: 1}, {1: 6, 2: -1}], 2) == ((-2, -1), 6)
    with pytest.raises(SingularRestrictedSystem):
        solve([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 3}], 2)
    with pytest.raises(SingularRestrictedSystem):
        solve([{0: 1, 2: 1}, {0: 2, 2: 2}], 2)


def test_sparse_solve_keeps_fill_in_low(monkeypatch):
    # a split copy with sinks coupling far-apart states (n = 120): in
    # natural column order the solve reduces 1,800-odd rows, in Markowitz
    # order a small multiple of n
    module = sys.modules["ptstrace.linear"]
    calls = []
    eliminate = module.eliminate
    monkeypatch.setattr(module, "eliminate",
                        lambda *args: calls.append(1) or eliminate(*args))
    rep = build_rep(sink_split_pts(random.Random(5), 38, 2))
    assert rep.dim == 120
    finite_mass_vector(rep)
    assert 0 < len(calls) <= 3 * rep.dim


def test_finite_mass_is_solved_once_per_representation(monkeypatch):
    module = sys.modules["ptstrace.linear"]
    calls = []
    solve = module._solve_sparse
    monkeypatch.setattr(module, "_solve_sparse",
                        lambda *args: calls.append(1) or solve(*args))
    pts = sink_split_pts(random.Random(3), 6, 2)
    rep = build_rep(pts)
    u = dirac(rep, rep.states[0])
    finite_mass_vector(rep)
    for target in (AllFinite(), AllInfinite(), InfCone(("a",)), AllFinite()):
        measure(rep, u, target)
    assert finite_mass_vector(rep) == finite_mass_vector(build_rep(pts))
    assert len(calls) == 2


def _reachable(pts, state):
    seen, stack, moves = {state}, [state], named(pts).moves
    while stack:
        source = stack.pop()
        for (s, _, target), p in moves.items():
            if s == source and p and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


@pytest.mark.parametrize("seed", range(6))
def test_finite_mass_query_solves_only_the_reachable_states(monkeypatch, seed):
    rng = random.Random(seed)
    pts = (split_copy_pts(rng, max_base=12) if seed % 2
           else sink_split_pts(rng, rng.randint(3, 12), rng.randint(1, 3)))
    rep = build_rep(pts)
    module = sys.modules["ptstrace.linear"]
    calls, solve = [], module._solve_sparse
    monkeypatch.setattr(module, "_solve_sparse",
                        lambda rows, m: calls.append(len(rows)) or solve(rows, m))
    mass = measure(rep, dirac(rep, "a0"), AllFinite())
    assert calls == [len(_reachable(pts, "a0"))]
    # then the other side, then the rest: no state is solved twice
    assert measure(rep, dirac(rep, "b0p"), AllFinite()) == mass
    assert calls[1:] == [len(_reachable(pts, "b0p"))]
    assert finite_mass_vector(rep)[0] == mass
    assert sum(calls) == rep.dim
    finite_mass_vector(rep)
    measure(rep, dirac(rep, "b0p"), InfCone(("a",)))
    assert sum(calls) == rep.dim


@pytest.mark.parametrize("perturb, message", [
    (lambda nums, den: ((-1,) + nums[1:], den), r"mass out of \[0, 1\] for state index 0"),
    (lambda nums, den: ((den + 1,) + nums[1:], den), r"mass out of \[0, 1\] for state index 0"),
    (lambda nums, den: (nums, 2 * den), "fixed-point equation violated"),
])
def test_finite_mass_guards_fire_on_a_wrong_solution(monkeypatch, worked_rep, perturb,
                                                     message):
    # x stops or moves to y (mass 1) and to the dead sink i: solving y first
    # makes x's block {x, i} carry y's mass as a constant
    rep = worked_rep
    x, y = dirac(rep, "x"), dirac(rep, "y")
    assert measure(rep, y, AllFinite()) == 1
    module = sys.modules["ptstrace.linear"]
    rows, solve = [], module._solve_sparse
    monkeypatch.setattr(module, "_solve_sparse",
                        lambda r, m: rows.append(r) or perturb(*solve(r, m)))
    with pytest.raises(SingularRestrictedSystem, match=message):
        measure(rep, x, AllFinite())
    # the block was {x, i}: y, solved already, entered x's row as a constant
    assert len(rows) == 1 and len(rows[0]) == 2
    # a block that fails a guard is not cached
    monkeypatch.setattr(module, "_solve_sparse", solve)
    assert measure(rep, x, AllFinite()) == F(1, 2)
    assert finite_mass_vector(rep) == (F(1, 2), F(1), F(1, 2), F(0))


def test_finite_mass_guards_fire_on_a_whole_document_solve(monkeypatch):
    module = sys.modules["ptstrace.linear"]
    solve = module._solve_sparse
    rep = build_rep(sink_split_pts(random.Random(7), 5, 2))
    monkeypatch.setattr(module, "_solve_sparse",
                        lambda r, m: (lambda nums, den: (nums, 3 * den))(*solve(r, m)))
    with pytest.raises(SingularRestrictedSystem, match="fixed-point equation violated"):
        finite_mass_vector(rep)


def test_finite_mass_cache_shared_between_threads():
    # more threads than cores, switching often, each querying every state
    # of one representation in its own order: every value is exact
    pts = sink_split_pts(random.Random(11), 12, 2)
    expected = finite_mass_vector(build_rep(pts))
    rep = build_rep(pts)
    errors = []

    def work(seed):
        try:
            states = list(range(rep.dim))
            random.Random(seed).shuffle(states)
            for k in states:
                u = dirac(rep, rep.states[k])
                assert measure(rep, u, AllFinite()) == expected[k]
                v = step(rep, u, "a")
                assert measure(rep, u, InfCone(("a",))) == \
                    sum(v) - sum(a * b for a, b in zip(expected, v))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert finite_mass_vector(rep) == expected

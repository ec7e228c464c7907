"""Closed-form probabilities against exact enumeration and frozen landmarks."""

from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (evade_probability, literal_evade_probability,
                     literal_noise_pass_probability, noise_pass_probability,
                     p_inner, per_x_noise_pass, per_x_success, success_probability)
from uwblab import analytic
from uwblab.analytic import (appendix_prob_delta, appendix_prob_within_threshold,
                             prob_evade_rcv, prob_noise_pass, prob_success)


def test_evade_trivial_cases():
    assert prob_evade_rcv(10, 20, 2, 0) == 0.0
    assert prob_evade_rcv(10, 20, 2, 0, exact=True) == 0
    # a lone injection can never outscore the pulse bin: it either sits in
    # the empty bin against a surviving pulse or spends itself in-bin
    assert prob_evade_rcv(1, 1, 1, 1) == 0.0
    # two injections win exactly when the in-bin one annihilates
    assert prob_evade_rcv(1, 1, 1, 2) == pytest.approx(0.5)


def test_evade_matches_oracle_exactly():
    for alpha in range(1, 7):
        for beta in range(1, 7):
            for r in range(1, min(alpha, beta) + 1):
                for k in range(0, alpha + beta + 1):
                    want = evade_probability(alpha, beta, r, k)
                    got = prob_evade_rcv(alpha, beta, r, k, exact=True)
                    assert got == want, (alpha, beta, r, k)


def test_oracle_matches_literal_enumeration():
    # the class-counting oracle agrees with raw itertools enumeration
    for (a, b, r, k) in ((2, 2, 1, 2), (2, 2, 2, 3), (3, 2, 2, 2),
                         (2, 3, 1, 4), (3, 3, 2, 3)):
        assert evade_probability(a, b, r, k) == literal_evade_probability(a, b, r, k)
    for (a, b, r, kap) in ((2, 2, 1, 2), (3, 2, 2, 3), (2, 3, 1, 4)):
        assert noise_pass_probability(a, b, r, kap) == \
            literal_noise_pass_probability(a, b, r, kap)


def test_float_path_tracks_exact_path():
    for (a, b, r, k) in ((6, 6, 3, 5), (10, 15, 4, 12), (12, 30, 8, 20),
                         (15, 15, 15, 9)):
        exact = float(prob_evade_rcv(a, b, r, k, exact=True))
        approx = prob_evade_rcv(a, b, r, k)
        assert approx == pytest.approx(exact, rel=1e-10)
    for (a, b, r, kap) in ((10, 15, 4, 12), (12, 30, 8, 21)):
        exact = float(prob_noise_pass(a, b, r, kap, exact=True))
        assert prob_noise_pass(a, b, r, kap) == pytest.approx(exact, rel=1e-10)


def test_closed_forms_refuse_bad_game_arguments():
    with pytest.raises(ValueError):
        prob_evade_rcv(10, 20, 11, 5)
    with pytest.raises(ValueError):
        prob_evade_rcv(10, 20, 2, 31)
    with pytest.raises(ValueError):
        prob_noise_pass(0, 20, 1, 0)
    with pytest.raises(ValueError, match="count"):
        prob_noise_pass(10, 20, 2, 31)


def test_p_inner_mixes_to_evade_exactly():
    # averaging the conditional over x ~ hypergeometric and g ~ Binomial(x, 1/2)
    # recovers the unconditional game; r = alpha is its one-term case
    cases = 0
    for alpha in range(1, 6):
        for beta in range(1, 6):
            for r in range(1, min(alpha, beta) + 1):
                for k in range(0, alpha + beta + 1):
                    mixed = sum(
                        Fraction(comb(alpha, x) * comb(beta, k - x), comb(alpha + beta, k))
                        * sum(Fraction(comb(x, g), 2**x)
                              * p_inner(alpha, beta, r, k, x, g)
                              for g in range(x + 1))
                        for x in range(max(0, k - beta), min(k, alpha) + 1))
                    assert mixed == prob_evade_rcv(alpha, beta, r, k, exact=True), \
                        (alpha, beta, r, k)
                    cases += 1
    assert cases == 435


def test_noise_pass_matches_oracle():
    for alpha in range(1, 6):
        for beta in range(1, 6):
            for r in range(1, min(alpha, beta) + 1):
                for kappa in range(0, alpha + beta + 1):
                    want = noise_pass_probability(alpha, beta, r, kappa)
                    got = prob_noise_pass(alpha, beta, r, kappa, exact=True)
                    assert got == want, (alpha, beta, r, kappa)


def test_noise_pass_landmark():
    assert prob_noise_pass(80, 100, 80, 40) == pytest.approx(0.537679154, abs=1e-8)


def test_noise_pass_kappa_zero_is_certain():
    # with no high slots anywhere every comparison ties at zero and passes
    assert prob_noise_pass(30, 60, 4, 0) == pytest.approx(1.0)


def test_evade_curve_landmarks():
    assert prob_evade_rcv(50, 100, 2, 135) == pytest.approx(0.274616491, abs=1e-8)
    assert prob_evade_rcv(50, 100, 8, 129) == pytest.approx(0.058506112, abs=1e-8)


def test_success_capped_by_evade():
    for k in (0, 40, 120, 177, 200):
        evades = prob_evade_rcv(50, 150, 8, k)
        wins = prob_success(50, 150, 8, 5.0, k)
        assert wins <= evades + 1e-15


def test_success_zeta_budget_gate():
    # a generous energy budget never hurts
    loose = prob_success(20, 40, 4, 50.0, 30)
    tight = prob_success(20, 40, 4, 1.5, 30)
    assert tight <= loose + 1e-15
    assert prob_success(20, 40, 4, 50.0, 30) == pytest.approx(
        prob_evade_rcv(20, 40, 4, 30), rel=1e-9)


# alpha (zeta - 1) lands exactly on audit values k + 2x - 4g for some of
# these, so the <= boundary of the budget is exercised
BUDGET_ZETAS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, float("inf"))


@cache
def _budget_oracle() -> dict:
    return {(a, b, r, z, k): success_probability(a, b, r, z, k)
            for a in range(1, 7) for b in range(1, 7) for r in range(1, min(a, b) + 1)
            for k in range(a + b + 1) for z in BUDGET_ZETAS}


def test_success_matches_oracle_exactly():
    for args, want in _budget_oracle().items():
        assert prob_success(*args, exact=True) == want, args


def test_success_float_path_tracks_oracle():
    for args, want in _budget_oracle().items():
        got = prob_success(*args)
        assert abs(got - want) <= 1e-12 * want, args


@st.composite
def games(draw):
    alpha = draw(st.integers(1, 12))
    beta = draw(st.integers(1, 12))
    r = draw(st.integers(1, min(alpha, beta)))
    return alpha, beta, r, draw(st.integers(0, alpha + beta))


ZETAS = st.one_of(st.floats(0.0, 8.0), st.just(float("inf")))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@PROPERTY
@given(games(), ZETAS)
def test_success_never_beats_evade(game, zeta):
    a, b, r, k = game
    assert prob_success(a, b, r, zeta, k) <= prob_evade_rcv(a, b, r, k) + 1e-15


@PROPERTY
@given(games(), ZETAS, ZETAS)
def test_success_monotone_in_zeta(game, z1, z2):
    a, b, r, k = game
    lo, hi = sorted((z1, z2))
    assert prob_success(a, b, r, lo, k) <= prob_success(a, b, r, hi, k) + 1e-15


@PROPERTY
@given(games())
def test_success_at_infinite_zeta_is_evade(game):
    a, b, r, k = game
    assert prob_success(a, b, r, float("inf"), k) == prob_evade_rcv(a, b, r, k)


@PROPERTY
@given(games(), ZETAS)
def test_success_float_path_tracks_exact_path(game, zeta):
    a, b, r, k = game
    exact = prob_success(a, b, r, zeta, k, exact=True)
    assert abs(prob_success(a, b, r, zeta, k) - exact) <= 1e-12 * exact


def test_appendix_normalization():
    for (n, alpha, k) in ((8, 3, 4), (12, 5, 12), (20, 7, 11), (20, 20, 20)):
        total = sum(
            appendix_prob_delta(n, alpha, k, d) for d in range(-k, k + 1))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_appendix_threshold_monotone():
    vals = [appendix_prob_within_threshold(20, 8, 10, g) for g in (1.0, 1.5, 2.0, 3.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    # once the budget swallows every possible gain the bound is certain
    assert appendix_prob_within_threshold(20, 8, 10, 2.5) == pytest.approx(1.0)


# the overlay of `uwblab validate`: alpha 50, beta 50 and 150, r 1, 2 and 8
VALIDATE_POINTS = [(50, b, r, float("inf"), k) for b in (50, 150) for r in (1, 2, 8)
                   for k in range(0, 51 + b, (50 + b) // 10)]
C02_POINTS = [(50, 500, 50, 20.0, k) for k in range(551)]
BUDGET_SWEEP = [(50, 150, 8, z, k) for z in (1.2, 1.4, 2.0, 5.0) for k in range(201)]
C01_GRID = [(80, 100, 80, kappa) for kappa in range(181)]


def _clear_caches():
    for obj in vars(analytic).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.mark.parametrize("points, exact_every", [
    (VALIDATE_POINTS, 1), (C02_POINTS, 50), (BUDGET_SWEEP, 10)],
    ids=["validate", "c02", "budget-sweep"])
def test_success_reads_the_per_x_terms_bit_for_bit(points, exact_every):
    # cached k-free rows hold the same products; fsum is correctly rounded,
    # so the floats are equal, not merely close
    for args in points:
        assert prob_success(*args) == per_x_success(*args), args
    for args in points[::exact_every]:
        assert prob_success(*args, exact=True) == per_x_success(*args, exact=True), args


def test_noise_pass_reads_the_per_x_terms_bit_for_bit():
    for args in C01_GRID:
        assert prob_noise_pass(*args) == per_x_noise_pass(*args), args
    for args in C01_GRID[::10]:
        assert prob_noise_pass(*args, exact=True) == per_x_noise_pass(*args, exact=True), args


@PROPERTY
@given(games(), ZETAS)
def test_small_games_read_the_per_x_terms_bit_for_bit(game, zeta):
    a, b, r, k = game
    for exact in (False, True):
        assert prob_success(a, b, r, zeta, k, exact) == per_x_success(a, b, r, zeta, k, exact)
        assert prob_noise_pass(a, b, r, k, exact) == per_x_noise_pass(a, b, r, k, exact)


def test_cached_rows_do_not_depend_on_call_order():
    # exact and float calls over two (alpha, r) and two (beta, r), interleaved
    calls = [(f, args, exact) for exact in (False, True)
             for f, args in ((prob_success, (20, 30, 4, 2.0, 25)),
                             (prob_evade_rcv, (12, 30, 3, 20)),
                             (prob_noise_pass, (20, 18, 3, 15)),
                             (prob_success, (12, 18, 4, 1.4, 11)),
                             (prob_evade_rcv, (20, 30, 4, 33)))]
    _clear_caches()
    forward = [f(*args, exact=exact) for f, args, exact in calls]
    _clear_caches()
    backward = [f(*args, exact=exact) for f, args, exact in reversed(calls)]
    assert forward == backward[::-1]
    assert all(type(p) is (Fraction if exact else float)
               for p, (_, _, exact) in zip(forward, calls))


def test_a_cold_call_builds_only_the_rows_it_reads():
    # x runs over 0..50, so at most 51 of the 501 empty-bin rows of beta 500
    _clear_caches()
    prob_success(50, 500, 50, 10.0, 496)
    assert 0 < analytic._draw_tail.cache_info().currsize <= 51
    assert 0 < analytic._pulse_terms.cache_info().currsize <= 51


def _assert_tracks(approx, exact):
    assert abs(approx - exact) <= 1e-12 * exact


@PROPERTY
@given(games())
def test_noise_pass_float_path_tracks_exact_path(game):
    a, b, r, kappa = game
    _assert_tracks(prob_noise_pass(a, b, r, kappa), prob_noise_pass(a, b, r, kappa, exact=True))


@PROPERTY
@given(games(), st.data())
def test_appendix_delta_float_path_tracks_exact_path(game, data):
    a, b, _, k = game
    delta = data.draw(st.integers(-k, k))
    _assert_tracks(appendix_prob_delta(a + b, a, k, delta),
                   appendix_prob_delta(a + b, a, k, delta, exact=True))


@PROPERTY
@given(games(), st.floats(0.0, 4.0))
def test_appendix_threshold_float_path_tracks_exact_path(game, gamma):
    a, b, _, k = game
    _assert_tracks(appendix_prob_within_threshold(a + b, a, k, gamma),
                   appendix_prob_within_threshold(a + b, a, k, gamma, exact=True))

"""Exact reference probabilities for the sampling games, by direct enumeration.

Everything here runs on Fractions so the numbers are exact. The closed-form
library must agree with these to within float round-off; any disagreement is
a bug on one side or the other. p_inner, the evade game given where the
injections landed, has no counterpart in the library: mixed over placements
and signs it must equal prob_evade_rcv, and success_probability is that
mixture. The literal_* variants grind over every raw outcome with itertools
and exist to validate the class-counting versions on tiny instances.

The per_x_* references are the exception: they are prob_success and
prob_noise_pass summed term by term, each x building its own draw terms from
the library's pmf helpers, in either arithmetic. The library reads the same
terms from cached rows that depend on neither k nor zeta; every term is the
same product and each x is summed the same way (fsum is correctly rounded),
so the two must agree bit for bit, not just to round-off.
"""

import itertools
from fractions import Fraction
from itertools import accumulate
from math import comb, isinf

from uwblab.analytic import _draw_pmf, _half_pmf, _half_tail, _total, hypergeom


def _hyper(good: int, bad: int, want_good: int, draw: int) -> Fraction:
    # P(exactly want_good of the good items in a uniform draw-subset)
    if want_good < 0 or want_good > good or draw - want_good > bad:
        return Fraction(0)
    return Fraction(comb(good, want_good) * comb(bad, draw - want_good),
                    comb(good + bad, draw))


def evade_probability(alpha: int, beta: int, r: int, k: int) -> Fraction:
    """P(empty-bin sample aggregate strictly beats pulse-bin sample aggregate).

    k unit-power random-sign pulses land on distinct uniform slots of an
    alpha + beta frame. A pulse on an occupied slot cancels it (energy 0)
    or doubles it (energy 4) with equal odds; on an empty slot it leaves
    energy 1. The receiver aggregates r uniform slots per bin.
    """
    return success_probability(alpha, beta, r, float("inf"), k)


def success_probability(alpha: int, beta: int, r: int, zeta: float, k: int) -> Fraction:
    """evade_probability with the energy audit: an outcome with c cancelled
    pulses counts only while k + 2x - 4c <= alpha (zeta - 1), compared in
    exact rationals (zeta = inf never audits)."""
    total = Fraction(0)
    for x in range(max(0, k - beta), min(k, alpha) + 1):
        w_x = _hyper(alpha, beta, x, k)
        if w_x == 0:
            continue
        for c in range(x + 1):
            if zeta != float("inf") and k + 2 * x - 4 * c > alpha * (Fraction(zeta) - 1):
                continue
            total += w_x * Fraction(comb(x, c), 2**x) * p_inner(alpha, beta, r, k, x, c)
    return total


def p_inner(alpha: int, beta: int, r: int, k: int, x: int, g: int) -> Fraction:
    """Conditional evade probability: the empty-bin draw strictly beats the
    pulse-bin draw, given x of the k injections in the pulse bin, g of them
    cancelling.

    The pulse bin then holds g zeros, x - g fours and alpha - x ones; the
    empty bin holds k - x ones among beta slots. Mixed over x ~
    hypergeometric and g ~ Binomial(x, 1/2), it is evade_probability.
    """
    ones_b = k - x
    win = Fraction(0)
    # the pulse draw takes i zeros, j fours and l ones
    for i in range(min(r, g) + 1):
        for j in range(min(r - i, x - g) + 1):
            l = r - i - j
            if l > alpha - x:
                continue
            w_draw = Fraction(comb(g, i) * comb(x - g, j) * comb(alpha - x, l), comb(alpha, r))
            # empty-bin draw of h ones must strictly exceed the pulse draw's 4j + l
            for h in range(4 * j + l + 1, min(r, ones_b) + 1):
                win += w_draw * _hyper(ones_b, beta - ones_b, h, r)
    return win


def noise_pass_probability(alpha: int, beta: int, r: int, kappa: int) -> Fraction:
    """P(pulse-bin draw has at least as many high slots as the empty-bin draw).

    kappa high-energy noise slots land on distinct uniform positions; the
    receiver draws r slots per bin and counts highs. Ties pass.
    """
    total = Fraction(0)
    for x in range(max(0, kappa - beta), min(kappa, alpha) + 1):
        w_x = _hyper(alpha, beta, x, kappa)
        if w_x == 0:
            continue
        highs_b = kappa - x
        for ha in range(min(r, x) + 1):
            w_a = _hyper(x, alpha - x, ha, r)
            if w_a == 0:
                continue
            w_b = sum(
                (_hyper(highs_b, beta - highs_b, hb, r) for hb in range(ha + 1)),
                Fraction(0))
            total += w_x * w_a * w_b
    return total


def literal_evade_probability(alpha: int, beta: int, r: int, k: int) -> Fraction:
    """evade_probability by raw enumeration; only viable for very small bins."""
    n = alpha + beta
    slots_a = range(alpha)
    slots_b = range(alpha, n)
    total = Fraction(0)
    count = 0
    for placement in itertools.combinations(range(n), k):
        hits_a = [s for s in placement if s < alpha]
        for phases in itertools.product((0, 1), repeat=len(hits_a)):
            energy = [1] * alpha + [0] * beta
            for s in placement:
                if s >= alpha:
                    energy[s] = 1
            for s, ph in zip(hits_a, phases):
                energy[s] = 0 if ph == 0 else 4
            for pick_a in itertools.combinations(slots_a, r):
                for pick_b in itertools.combinations(slots_b, r):
                    count += 1
                    if sum(energy[s] for s in pick_b) > sum(energy[s] for s in pick_a):
                        total += Fraction(1, 2 ** len(hits_a))
    picks = comb(alpha, r) * comb(beta, r)
    return total / (comb(n, k) * picks)


def literal_noise_pass_probability(alpha: int, beta: int, r: int, kappa: int) -> Fraction:
    """noise_pass_probability by raw enumeration over high-slot placements."""
    n = alpha + beta
    total = Fraction(0)
    for placement in itertools.combinations(range(n), kappa):
        high = set(placement)
        for pick_a in itertools.combinations(range(alpha), r):
            ha = sum(1 for s in pick_a if s in high)
            for pick_b in itertools.combinations(range(alpha, n), r):
                hb = sum(1 for s in pick_b if s in high)
                if ha >= hb:
                    total += 1
    picks = comb(alpha, r) * comb(beta, r)
    return total / (comb(n, kappa) * picks)


def per_x_success(alpha: int, beta: int, r: int, zeta: float, k: int, exact: bool = False):
    """prob_success with every x building its own draw terms (no cached rows)."""
    budget = None if isinf(zeta) else alpha * (zeta - 1.0)
    terms = []
    for x in range(max(0, k - beta), min(k, alpha) + 1):
        w = hypergeom(alpha, beta, x, k - x, exact)
        g0 = 0 if budget is None else next(
            (g for g in range(x + 1) if k + 2 * x - 4 * g <= budget), x + 1)
        if w == 0 or g0 > x:
            continue
        beta_tail = list(accumulate(reversed(_draw_pmf(k - x, beta - (k - x), r, exact))))[::-1]
        # s of the r slots drawn from the pulse bin were hit, y1 of those annihilated
        pulse = _draw_pmf(x, alpha - x, r, exact)
        draws = []
        for s in range(max(0, r - alpha + x), min(r, x) + 1):
            halves = _half_pmf(s, exact)
            # the empty draw (at most r) must beat the pulse draw's
            # r + 3s - 4 y1, and g - y1 must have room in [g0 - y1, x - s]
            for y1 in range(max(3 * s // 4 + 1, g0 - x + s), s + 1):
                tail = beta_tail[r + 3 * s + 1 - 4 * y1]
                if tail == 0:
                    continue
                if g0 > y1:
                    tail = tail * _half_tail(x - s, g0 - y1, exact)
                draws.append(pulse[s] * halves[y1] * tail)
        terms.append(w * _total(draws, exact))
    return _total(terms, exact)


def per_x_noise_pass(alpha: int, beta: int, r: int, kappa: int, exact: bool = False):
    """prob_noise_pass with every x building its own empty-bin cdf (no cached rows)."""
    terms = []
    for x in range(max(0, kappa - beta), min(kappa, alpha) + 1):
        w = hypergeom(alpha, beta, x, kappa - x, exact)
        if w == 0:
            continue
        pulse = _draw_pmf(x, alpha - x, r, exact)
        beta_cdf = list(accumulate(_draw_pmf(kappa - x, beta - (kappa - x), r, exact)))
        ys = range(max(0, r - (alpha - x)), min(r, x) + 1)
        terms.append(w * _total((pulse[y] * beta_cdf[y] for y in ys), exact))
    return _total(terms, exact)

"""Closed-form statistics for the slot-code comparison game.

The receiver's check draws r slots from the pulse bin and r from the empty
bin and compares aggregate energy. These functions give the exact probability
that an attacker (or plain noise) wins that comparison, under the unit-power
model: an untouched pulse contributes energy 1, an annihilated pulse 0, a
pulse hit with the same sign 4, and an attacker pulse landing in the empty
bin 1.

Each sum is written once, and exact chooses only the arithmetic of its
terms. _weight forms every ratio of binomial coefficients: on the default
float path it exponentiates the summed log-binomials, so numerator and
denominator cancel before anything is formed and slot counts in the hundreds
stay far from overflow; with exact=True it is a Fraction on math.comb, which
the tests use as a small-instance oracle. _total sums the terms with fsum or
in Fractions. Both paths agree to ~1e-12 relative.

prob_success sums over the attacker's annihilation count g inside each
pulse-bin draw, by C(x,g) C(g,y1) C(x-g,y2) = C(x,y1+y2) C(y1+y2,y1)
C(x-y1-y2,g-y1): the g-terms collapse to one Binomial(x-y1-y2, 1/2) tail,
so a game costs O(r^2) draw terms per x rather than O(x r^2). Those terms
(_pulse_terms) and the empty bin's tail rows (_draw_tail) depend on neither k
nor zeta, so each is cached per bin split; a call only reads, masks, weights
and sums the rows its x-range needs.

Argument conventions:
    alpha  pulse slots, beta empty slots, n = alpha + beta
    r      slots sampled per bin by the receiver
    k      attacker injections (distinct slots, random signs)
    x      injections that landed in the pulse bin, g of them annihilating
    zeta   energy headroom ratio: budget / worst-case received power
    kappa  high-energy noise slots (for the noise acceptance probability)
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, exp, floor, fsum, isinf, lgamma, log

HALF_LOG = log(2.0)

# _LOG_FACT[i] = lgamma(i + 1), grown on demand; a pure cache, so sharing it is safe
_LOG_FACT = [0.0]


def _log_choose(n: int, r: int) -> float:
    # caller guarantees 0 <= r <= n
    table = _LOG_FACT
    if n >= len(table):
        table.extend(lgamma(i + 1) for i in range(len(table), 2 * n + 1))
    return table[n] - table[r] - table[n - r]


def _weight(exact: bool, num, den=(), halves: int = 0):
    """prod C(n, k) over the (n, k) pairs of num / the same over den / 2**halves."""
    if exact:
        top, bottom = 1, 2**halves
        for n, k in num:
            top *= comb(n, k)
        for n, k in den:
            bottom *= comb(n, k)
        return Fraction(top, bottom)
    lw = -halves * HALF_LOG
    for n, k in num:
        lw += _log_choose(n, k)
    for n, k in den:
        lw -= _log_choose(n, k)
    return exp(lw)


def _total(terms, exact: bool):
    return sum(terms, Fraction(0)) if exact else fsum(terms)


def hypergeom(na: int, nb: int, ka: int, kb: int, exact: bool = False):
    """Probability that a uniform (ka+kb)-subset of na+nb items splits ka|kb.

    Out-of-range counts (ka > na, negative values, ...) give probability 0,
    which lets callers sum over unconstrained index ranges.
    """
    if not (0 <= ka <= na and 0 <= kb <= nb):
        return _total((), exact)
    return _weight(exact, ((na, ka), (nb, kb)), ((na + nb, ka + kb),))


@lru_cache(maxsize=4096)
def _draw_pmf(hit: int, miss: int, r: int, exact: bool) -> tuple:
    """pmf of the number of hit slots in an r-draw from hit+miss slots, r <= hit+miss."""
    # only the support is formed; every other entry is the arithmetic's zero
    lo, hi = max(0, r - miss), min(r, hit)
    zero = _total((), exact)
    support = (hypergeom(hit, miss, i, r - i, exact) for i in range(lo, hi + 1))
    return (zero,) * lo + tuple(support) + (zero,) * (r - hi)


@lru_cache(maxsize=4096)
def _draw_tail(hit: int, miss: int, r: int, exact: bool, upper: bool) -> tuple:
    """P(draw >= i) if upper else P(draw <= i), over i = 0..r, for _draw_pmf's draw."""
    pmf = _draw_pmf(hit, miss, r, exact)
    return tuple(accumulate(reversed(pmf)))[::-1] if upper else tuple(accumulate(pmf))


@lru_cache(maxsize=4096)
def _pulse_terms(hit: int, miss: int, r: int, exact: bool) -> tuple:
    """(pulse[s] * halves[y1], i, s, y1) of each pulse draw an empty draw can beat.

    A pulse draw of s hit slots, y1 annihilated and s - y1 doubled, holds
    r + 3s - 4 y1 energy; an empty draw beats it from i = r + 3s + 1 - 4 y1 hits."""
    pulse = _draw_pmf(hit, miss, r, exact)
    return tuple((pulse[s] * _half_pmf(s, exact)[y1], r + 3 * s + 1 - 4 * y1, s, y1)
                 for s in range(max(0, r - miss), min(r, hit) + 1)
                 for y1 in range(3 * s // 4 + 1, s + 1))


@lru_cache(maxsize=4096)
def _half_pmf(n: int, exact: bool) -> tuple:
    """pmf of Binomial(n, 1/2)."""
    return tuple(_weight(exact, ((n, j),), halves=n) for j in range(n + 1))


@lru_cache(maxsize=4096)
def _half_tail(n: int, j0: int, exact: bool):
    # P(Binomial(n, 1/2) >= j0), for 0 < j0 <= n
    return _total(_half_pmf(n, exact)[j0:], exact)


def _check_game(alpha: int, beta: int, r: int, k: int) -> None:
    if alpha < 1 or beta < 1:
        raise ValueError("need at least one pulse slot and one empty slot")
    if not 1 <= r <= alpha or r > beta:
        raise ValueError("sample size r must satisfy 1 <= r <= min(alpha, beta)")
    if not 0 <= k <= alpha + beta:
        raise ValueError("injection or high-slot count must lie in [0, alpha + beta]")


def prob_evade_rcv(alpha: int, beta: int, r: int, k: int, exact: bool = False):
    """P that k random-sign injections make the empty bin outscore the pulse bin.

    This is the attacker's chance of surviving one code-verification
    comparison when energy budgets are ignored: prob_success at zeta = inf.
    """
    return prob_success(alpha, beta, r, float("inf"), k, exact)


def prob_success(
    alpha: int, beta: int, r: int, zeta: float, k: int, exact: bool = False
):
    """Evasion probability with the receiver's energy budget enforced.

    Outcomes where the distorted frame's aggregate would blow the budget are
    removed: a term survives only while k + 2x - 4g <= alpha (zeta - 1), the
    unit-power audit of the received aggregate against the threshold. zeta is
    the headroom ratio (budget over worst-case power); zeta = inf recovers
    prob_evade_rcv. Summing g inside each pulse-bin draw (y1 zeros, y2 fours,
    s = y1 + y2) by C(x,g) C(g,y1) C(x-g,y2) = C(x,s) C(s,y1) C(x-s,g-y1)
    leaves P(Binomial(x-s, 1/2) >= g0 - y1), g0 the fewest annihilations the
    audit passes: O(r^2) draw terms per x (O(x) at r = alpha), not O(x r^2).
    """
    _check_game(alpha, beta, r, k)
    if not zeta >= 0:  # nan fails too
        raise ValueError("headroom ratio zeta must be >= 0")
    # the audit's total is an integer, so it passes exactly when it is at most cap
    budget = alpha * (zeta - 1.0)
    cap = None if isinf(budget) else floor(budget)
    terms = []
    for x in range(max(0, k - beta), min(k, alpha) + 1):
        w = hypergeom(alpha, beta, x, k - x, exact)
        g0 = 0 if cap is None else max(0, (k + 2 * x - cap + 3) // 4)
        if w == 0 or g0 > x:
            continue
        tail = _draw_tail(k - x, beta - (k - x), r, exact, True)
        # g - y1 must have room in [g0 - y1, x - s]
        draws = [head * (tail[i] if g0 <= y1 else tail[i] * _half_tail(x - s, g0 - y1, exact))
                 for head, i, s, y1 in _pulse_terms(x, alpha - x, r, exact)
                 if y1 >= g0 - x + s]
        terms.append(w * _total(draws, exact))
    return _total(terms, exact)


def prob_noise_pass(alpha: int, beta: int, r: int, kappa: int, exact: bool = False):
    """P that pure noise passes one comparison (pulse-bin draw >= empty-bin draw).

    Noise is modelled as kappa high-energy slots scattered uniformly over the
    frame; a draw's aggregate is its count of high slots. This closed form
    counts ties as passes. The receiver's vote fails ties
    (robust_code_verification), so this is an upper bound on its strict
    per-comparison pass probability: 0.5377 against 0.4623 at
    (alpha, beta, r, kappa) = (80, 100, 80, 40).
    """
    _check_game(alpha, beta, r, kappa)
    terms = []
    for x in range(max(0, kappa - beta), min(kappa, alpha) + 1):
        w = hypergeom(alpha, beta, x, kappa - x, exact)
        if w == 0:
            continue
        # the pulse draw passes when it holds at least as many high slots
        pulse = _draw_pmf(x, alpha - x, r, exact)
        beta_cdf = _draw_tail(kappa - x, beta - (kappa - x), r, exact, False)
        ys = range(max(0, r - (alpha - x)), min(r, x) + 1)
        terms.append(w * _total((pulse[y] * beta_cdf[y] for y in ys), exact))
    return _total(terms, exact)


def appendix_prob_delta(n: int, alpha: int, k: int, delta: int, exact: bool = False):
    """pmf of the attacker's net aggregate change after k random injections.

    The game is power-additive: each injection adds 1 unit of energy except a
    cancelling hit on a pulse slot, which removes 1 ((k - delta)/2 of the
    in-bin hits cancelled). The channel adds amplitudes: an equal-phase hit
    takes a pulse slot from 1 to 4 (+3), as prob_success's audit counts.
    Odd k - delta or |delta| > k is impossible and returns 0.
    """
    if not 0 <= alpha <= n or n < 1:
        raise ValueError("need 0 <= alpha <= n with n >= 1")
    if not 0 <= k <= n:
        raise ValueError("injection count k must lie in [0, n]")
    if delta > k or delta < -k or (k - delta) % 2:
        return _total((), exact)
    b = (k - delta) // 2
    # x1 injections hit pulse slots and b of those cancelled
    hits = _draw_pmf(alpha, n - alpha, k, exact)
    return _total((hits[x1] * _half_pmf(x1, exact)[b] for x1 in range(b, min(k, alpha) + 1)),
                  exact)


def appendix_prob_within_threshold(
    n: int, alpha: int, k: int, gamma_factor: float, exact: bool = False
):
    """P that k injections keep the frame aggregate inside the energy budget.

    Sums the delta pmf up to alpha (gamma_factor - 1), the largest net energy
    addition the budget tolerates; gamma_factor is the budget expressed as a
    multiple of the honest frame's aggregate. It plays appendix_prob_delta's
    game, not the channel's: 0.0493 at n 150, alpha 50, k 50, gamma 1.5, simulated 0.0015.
    """
    if not gamma_factor >= 0:  # nan fails too
        raise ValueError("gamma_factor must be >= 0")
    if not 0 <= alpha <= n or n < 1:
        raise ValueError("need 0 <= alpha <= n with n >= 1")
    if not 0 <= k <= n:
        raise ValueError("injection count k must lie in [0, n]")
    hi = alpha * (gamma_factor - 1.0)
    terms = []
    for delta in range(-k, k + 1, 2):  # k - delta must be even
        if delta > hi:
            break
        terms.append(appendix_prob_delta(n, alpha, k, delta, exact))
    return _total(terms, exact)

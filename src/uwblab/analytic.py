"""Closed-form statistics for the slot-code comparison game.

The receiver's check draws r slots from the pulse bin and r from the empty
bin and compares aggregate energy. These functions give the exact probability
that an attacker (or plain noise) wins that comparison, under the unit-power
model: an untouched pulse contributes energy 1, an annihilated pulse 0, a
pulse hit with the same sign 4, and an attacker pulse landing in the empty
bin 1.

Every function has two evaluation paths. The default float path works with
log-binomials, exponentiating each term only after numerator and denominator
cancel, so slot counts in the hundreds stay far from overflow; terms are
probabilities <= 1 throughout. With exact=True the same sums run over
Fraction arithmetic on math.comb, which the tests use as a small-instance
oracle. Both paths agree to ~1e-12 relative.

prob_success sums over the attacker's annihilation count g inside each
pulse-bin draw, by C(x,g) C(g,y1) C(x-g,y2) = C(x,y1+y2) C(y1+y2,y1)
C(x-y1-y2,g-y1): the g-terms collapse to one Binomial(x-y1-y2, 1/2) tail,
so a game costs O(r^2) draw terms per x rather than O(x r^2).

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
from math import comb, exp, fsum, isinf, lgamma, log

HALF_LOG = log(2.0)

# _LOG_FACT[i] = lgamma(i + 1), grown on demand; a pure cache, so sharing it is safe
_LOG_FACT = [0.0]


def _log_choose(n: int, r: int) -> float:
    # caller guarantees 0 <= r <= n
    table = _LOG_FACT
    if n >= len(table):
        table.extend(lgamma(i + 1) for i in range(len(table), 2 * n + 1))
    return table[n] - table[r] - table[n - r]


def hypergeom(na: int, nb: int, ka: int, kb: int, exact: bool = False):
    """Probability that a uniform (ka+kb)-subset of na+nb items splits ka|kb.

    Out-of-range counts (ka > na, negative values, ...) give probability 0,
    which lets callers sum over unconstrained index ranges.
    """
    if min(na, nb, ka, kb) < 0 or ka > na or kb > nb:
        return Fraction(0) if exact else 0.0
    if exact:
        return Fraction(comb(na, ka) * comb(nb, kb), comb(na + nb, ka + kb))
    return exp(
        _log_choose(na, ka) + _log_choose(nb, kb) - _log_choose(na + nb, ka + kb)
    )


@lru_cache(maxsize=4096)
def _draw_pmf(hit: int, miss: int, r: int, exact: bool) -> tuple:
    """pmf of the number of hit slots in an r-draw from hit+miss slots."""
    return tuple(hypergeom(hit, miss, i, r - i, exact) for i in range(r + 1))


def _suffix_tail(pmf: tuple, exact: bool) -> list:
    """tail[m] = P(count >= m); tail has length len(pmf)+1, tail[-1] = 0."""
    zero = Fraction(0) if exact else 0.0
    tail = [zero] * (len(pmf) + 1)
    for m in range(len(pmf) - 1, -1, -1):
        tail[m] = tail[m + 1] + pmf[m]
    return tail


def _prefix_cdf(pmf: tuple, exact: bool) -> list:
    """cdf[y] = P(count <= y)."""
    zero = Fraction(0) if exact else 0.0
    out = []
    acc = zero
    for p in pmf:
        acc = acc + p
        out.append(acc)
    return out


@lru_cache(maxsize=4096)
def _half_tail(n: int, j0: int, exact: bool):
    # P(Binomial(n, 1/2) >= j0), for 0 < j0 <= n
    if exact:
        return Fraction(sum(comb(n, j) for j in range(j0, n + 1)), 2**n)
    return fsum(exp(_log_choose(n, j) - n * HALF_LOG) for j in range(j0, n + 1))


def _check_game(alpha: int, beta: int, r: int, k: int) -> None:
    if alpha < 1 or beta < 1:
        raise ValueError("need at least one pulse slot and one empty slot")
    if not 1 <= r <= alpha or r > beta:
        raise ValueError("sample size r must satisfy 1 <= r <= min(alpha, beta)")
    if not 0 <= k <= alpha + beta:
        raise ValueError("injection count k must lie in [0, alpha + beta]")


def _p_inner_reduced(alpha, x, g, beta_tail, exact: bool):
    # r = alpha: the pulse-bin aggregate is fully determined by (x, g)
    m = 4 * (x - g) + (alpha - x) + 1
    zero = Fraction(0) if exact else 0.0
    return beta_tail[m] if m < len(beta_tail) else zero


def _p_inner_general(alpha, r, x, g, beta_tail, exact: bool):
    # sum over the composition of the pulse-bin draw: y1 annihilated,
    # y2 doubled, r - y1 - y2 untouched
    terms = []
    log_cr = None if exact else _log_choose(alpha, r)
    for y1 in range(0, min(r, g) + 1):
        y2_lo = max(0, r - y1 - (alpha - x))
        y2_hi = min(r - y1, x - g)
        for y2 in range(y2_lo, y2_hi + 1):
            m = r - y1 + 3 * y2 + 1
            tail = beta_tail[m] if m < len(beta_tail) else None
            if tail is None or tail == 0:
                continue
            if exact:
                w = Fraction(
                    comb(g, y1) * comb(x - g, y2) * comb(alpha - x, r - y1 - y2),
                    comb(alpha, r),
                )
                terms.append(w * tail)
            else:
                lw = (
                    _log_choose(g, y1)
                    + _log_choose(x - g, y2)
                    + _log_choose(alpha - x, r - y1 - y2)
                    - log_cr
                )
                terms.append(exp(lw) * tail)
    if exact:
        return sum(terms, Fraction(0))
    return fsum(terms)


def p_inner(alpha: int, beta: int, r: int, k: int, x: int, g: int, exact: bool = False):
    """P(empty-bin aggregate beats pulse-bin aggregate | x landed, g annihilated).

    Conditions on the attacker having placed x of its k injections in the
    pulse bin with exactly g sign-matches cancelled; the remaining k - x sit
    in the empty bin. The receiver then draws r slots per bin.
    """
    _check_game(alpha, beta, r, k)
    if not 0 <= g <= x <= min(k, alpha) or k - x > beta:
        raise ValueError("need 0 <= g <= x <= min(k, alpha) and k - x <= beta")
    beta_tail = _suffix_tail(_draw_pmf(k - x, beta - (k - x), r, exact), exact)
    if r == alpha:
        return _p_inner_reduced(alpha, x, g, beta_tail, exact)
    return _p_inner_general(alpha, r, x, g, beta_tail, exact)


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
    if zeta < 0:
        raise ValueError("headroom ratio zeta must be >= 0")
    budget = None if isinf(zeta) else alpha * (zeta - 1.0)
    log_cr = None if exact else _log_choose(alpha, r)
    terms = []
    for x in range(max(0, k - beta), min(k, alpha) + 1):
        w = hypergeom(alpha, beta, x, k - x, exact)
        g0 = 0 if budget is None else next(
            (g for g in range(x + 1) if k + 2 * x - 4 * g <= budget), x + 1)
        if w == 0 or g0 > x:
            continue
        beta_tail = _suffix_tail(_draw_pmf(k - x, beta - (k - x), r, exact), exact)
        draws = []
        for s in range(max(0, r - alpha + x), min(r, x) + 1):
            # the weight of s, as a log on the float path
            ws = (Fraction(comb(x, s) * comb(alpha - x, r - s), 2**s * comb(alpha, r)) if exact
                  else _log_choose(x, s) - s * HALF_LOG + _log_choose(alpha - x, r - s) - log_cr)
            # the empty draw (at most r) must beat the pulse draw's
            # r + 3s - 4 y1, and g - y1 must have room in [g0 - y1, x - s]
            for y1 in range(max(3 * s // 4 + 1, g0 - x + s), s + 1):
                tail = beta_tail[r + 3 * s + 1 - 4 * y1]
                if tail == 0:
                    continue
                if g0 > y1:
                    tail = tail * _half_tail(x - s, g0 - y1, exact)
                draws.append(ws * comb(s, y1) * tail if exact
                             else exp(ws + _log_choose(s, y1)) * tail)
        terms.append(w * (sum(draws, Fraction(0)) if exact else fsum(draws)))
    return sum(terms, Fraction(0)) if exact else fsum(terms)


def prob_noise_pass(alpha: int, beta: int, r: int, kappa: int, exact: bool = False):
    """P that pure noise passes one comparison (pulse-bin draw >= empty-bin draw).

    Noise is modelled as kappa high-energy slots scattered uniformly over the
    frame; a draw's aggregate is its count of high slots. This closed form
    counts ties as passes. The receiver's vote fails ties
    (robust_code_verification), so this is an upper bound on its strict
    per-comparison pass probability: 0.5377 against 0.4623 at
    (alpha, beta, r, kappa) = (80, 100, 80, 40).
    """
    if alpha < 1 or beta < 1:
        raise ValueError("need at least one slot per bin")
    if not 1 <= r <= min(alpha, beta):
        raise ValueError("sample size r must satisfy 1 <= r <= min(alpha, beta)")
    if not 0 <= kappa <= alpha + beta:
        raise ValueError("high-energy slot count kappa must lie in [0, alpha + beta]")
    terms = []
    for x in range(max(0, kappa - beta), min(kappa, alpha) + 1):
        w = hypergeom(alpha, beta, x, kappa - x, exact)
        if w == 0:
            continue
        beta_cdf = _prefix_cdf(_draw_pmf(kappa - x, beta - (kappa - x), r, exact), exact)
        log_cr = None if exact else _log_choose(alpha, r)
        inner = []
        y_lo = max(0, r - (alpha - x))
        for y in range(y_lo, min(r, x) + 1):
            if exact:
                wy = Fraction(comb(x, y) * comb(alpha - x, r - y), comb(alpha, r))
            else:
                wy = exp(
                    _log_choose(x, y) + _log_choose(alpha - x, r - y) - log_cr
                )
            inner.append(wy * beta_cdf[y])
        total = sum(inner, Fraction(0)) if exact else fsum(inner)
        terms.append(w * total)
    return sum(terms, Fraction(0)) if exact else fsum(terms)


def appendix_prob_delta(n: int, alpha: int, k: int, delta: int, exact: bool = False):
    """pmf of the attacker's net aggregate change after k random injections.

    delta counts unit-power energy added to the frame: each injection adds 1
    except a sign-matched hit on a pulse slot, which removes 1 instead of
    adding (net -1 versus +1, so (k - delta)/2 of the in-bin hits cancelled).
    Odd k - delta or |delta| > k is impossible and returns 0.
    """
    if not 0 <= alpha <= n or n < 1:
        raise ValueError("need 0 <= alpha <= n with n >= 1")
    if not 0 <= k <= n:
        raise ValueError("injection count k must lie in [0, n]")
    zero = Fraction(0) if exact else 0.0
    if delta > k or delta < -k or (k - delta) % 2:
        return zero
    b = (k - delta) // 2
    terms = []
    for x1 in range(b, min(k, alpha) + 1):
        w = hypergeom(alpha, n - alpha, x1, k - x1, exact)
        if w == 0:
            continue
        if exact:
            terms.append(Fraction(comb(x1, b), 2**x1) * w)
        else:
            terms.append(exp(_log_choose(x1, b) - x1 * HALF_LOG) * w)
    return sum(terms, Fraction(0)) if exact else fsum(terms)


def appendix_prob_within_threshold(
    n: int, alpha: int, k: int, gamma_factor: float, exact: bool = False
):
    """P that k injections keep the frame aggregate inside the energy budget.

    Sums the delta pmf up to alpha (gamma_factor - 1), the largest net energy
    addition the budget tolerates; gamma_factor is the budget expressed as a
    multiple of the honest frame's aggregate.
    """
    if gamma_factor < 0:
        raise ValueError("gamma_factor must be >= 0")
    if not 0 <= alpha <= n or n < 1:
        raise ValueError("need 0 <= alpha <= n with n >= 1")
    if not 0 <= k <= n:
        raise ValueError("injection count k must lie in [0, n]")
    hi = alpha * (gamma_factor - 1.0)
    terms = []
    for delta in range(-k, k + 1):
        if (k - delta) % 2:
            continue
        if delta > hi:
            break
        terms.append(appendix_prob_delta(n, alpha, k, delta, exact))
    return sum(terms, Fraction(0)) if exact else fsum(terms)

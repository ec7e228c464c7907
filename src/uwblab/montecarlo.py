"""Randomized trial harness with confidence intervals.

Two simulated quantities back the probability formulas. The "evade" metric
plays the bare sampling game one comparison at a time (uniform secret code,
k uniform random-phase injections, one r-versus-r energy comparison) and
estimates the chance that the empty bin strictly outshines the pulse bin;
it is the direct empirical counterpart of prob_evade_rcv. The "attack"
metric runs the full receive pipeline on the two frame alignments a replay
attack actually produces (the delayed amplified copy the acquisition locks
onto, and the earlier authentic frame the adversary tried to cancel) and
counts the runs where the receiver ends up accepting only the delayed copy.

The attack game builds its frames with channel.superpose, as timelines and
replays do. The attack and noise games accept candidates by
receiver.pass_ratios, as backtracking does; the noise game draws each
frame's aggregate first and its slot split only inside the energy window.
The evade game scores the receiver's Floyd picks, one doubling coin each.
The simulated code occupies the first alpha slots, where pass_ratios reads
the pulse bin. It is uniform and independent of injections, signs and
noise, so every slot is exchangeable and a fixed bin split has the same
distribution as a secret one.

Trials are chunked; chunk c of grid point k draws its generator from
SeedSequence((base_seed, k, c)), so splitting a run across workers at chunk
boundaries and summing counts reproduces the sequential result bit for bit.
"""

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from . import analytic, receiver
from .channel import LinkModel, superpose
from .codec import CodeParams, _csv
from .receiver import ReceiverConfig, Thresholds, compute_thresholds, pass_ratios

CHUNK = 4096

# standard normal quantile of the two-sided 95% Wilson interval
WILSON_Z = 1.96

METRIC_EVADE = "evade"
METRIC_ATTACK = "attack"


@dataclass(frozen=True)
class TrialConfig:
    """One sweep: code geometry, link, attack template, receiver, trial count."""

    params: CodeParams
    link: LinkModel = field(default_factory=LinkModel)
    k_grid: tuple = (0,)
    trials: int = 100_000
    base_seed: int = 0
    metric: str = METRIC_EVADE
    replay_gain_db: float = 6.0
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.metric not in (METRIC_EVADE, METRIC_ATTACK):
            raise ValueError("metric must be 'evade' or 'attack'")
        if not math.isfinite(self.replay_gain_db):
            raise ValueError("replay gain must be finite")
        for k in self.k_grid:
            if not 0 <= k <= self.params.n:
                raise ValueError("k must lie in 0..n")


@dataclass(frozen=True)
class EstimateRow:
    """One grid point: success proportion with a 95% Wilson interval."""

    k: int
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    analytic_p: float = float("nan")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # at the boundary counts center and half coincide exactly in real
    # arithmetic; pin the endpoints so 0 and 1 stay inside the interval
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _estimate_row(k: int, trials: int, successes: int, analytic_p=float("nan")) -> EstimateRow:
    lo, hi = wilson_interval(successes, trials)
    return EstimateRow(k=k, trials=trials, successes=successes, p_hat=successes / trials,
                       ci_low=lo, ci_high=hi, analytic_p=analytic_p)


def _chunks(base_seed: int, k: int, trials: int):
    # (generator, size) for each chunk of grid point k, in chunk order
    for idx, start in enumerate(range(0, trials, CHUNK)):
        seq = np.random.SeedSequence((base_seed, k, idx))
        yield np.random.default_rng(seq), min(CHUNK, trials - start)


def _evade_successes(cfg: TrialConfig, k: int) -> int:
    """Single-comparison game at unit pulse power, noiseless.

    The empty bin wins when its sample sum strictly exceeds the pulse bin's.
    The game scores the receiver's Floyd picks, drawn as vote() draws them
    with the bins swapped and upsilon 1, and x as in _attack_successes. Pick
    i reads its row's doubling coin i: the picks are distinct slots, whose
    coins are i.i.d. fair. So no chunk array grows with alpha or beta.
    """
    alpha, beta, r = cfg.params.alpha, cfg.params.beta, cfg.receiver.r
    step = max(1, receiver.VOTE_BLOCK // r)
    successes = 0
    for rng, m in _chunks(cfg.base_seed, k, cfg.trials):
        x = rng.hypergeometric(alpha, beta, k, size=m)[:, None]
        # struck pulse picks (t < x) score 4 or 0, half each; others and empty t < k - x score 1
        doubled = rng.random((m, r)) >= 0.5
        for lo in range(0, m, step):
            hit = x[lo:lo + step]
            empty = sum(t < k - hit for t in receiver._floyd_picks(beta, r, len(hit), 1, rng))
            struck = doubles = 0
            for i, t in enumerate(receiver._floyd_picks(alpha, r, len(hit), 1, rng)):
                struck += t < hit
                doubles += (t < hit) & doubled[lo:lo + step, i:i + 1]
            successes += int(np.count_nonzero(empty > r - struck + 4 * doubles))
    return successes


def _attack_successes(cfg: TrialConfig, k: int) -> int:
    """Replay pipeline on the two real candidates, vectorized over trials.

    Only the delayed copy and the authentic frame alignment are simulated;
    assuming every other offset rejected is an unchecked shortcut (ROADMAP
    direction 12). Success means the receiver accepts the delayed copy,
    rejects the authentic frame, and never sees an aggregate above the
    energy ceiling. Trials over the ceiling cast no vote, and the copy is
    voted only where the authentic frame stayed hidden: rows that must not
    vote get a nan aggregate, which pass_ratios gates out.
    """
    params, link, rcfg = cfg.params, cfg.link, cfg.receiver
    n, alpha, beta = params.n, params.alpha, params.beta
    sigma = math.sqrt(link.sigma_n2)
    thr = compute_thresholds(link, params)
    cut = rcfg.p_noise_threshold
    successes = 0
    for rng, m in _chunks(cfg.base_seed, k, cfg.trials):
        signs = np.zeros((m, n))
        signs[:, :alpha] = 2.0 * (rng.random((m, alpha)) < 0.5) - 1.0
        # k distinct uniform slots per row. Only the count x landing in the
        # pulse bin matters: slots within a bin are exchangeable and the vote
        # and gate are permutation-invariant, so hit the first x pulse slots
        # and the first k - x empty ones (_evade_successes scores picks by x)
        x = rng.hypergeometric(alpha, beta, k, size=m)[:, None]
        inj_phases = 2.0 * (rng.random((m, n)) < 0.5) - 1.0
        inj_phases[:, :alpha][np.arange(alpha) >= x] = 0.0
        inj_phases[:, alpha:][np.arange(beta) >= k - x] = 0.0
        e_auth = superpose(link, signs, inj_phases, 0.0)
        e_copy = superpose(link, signs, 0, cfg.replay_gain_db)
        # energies square (amplitudes + noise) in place, noise drawn auth first
        e_auth += rng.normal(0.0, sigma, (m, n))
        np.square(e_auth, out=e_auth)
        e_copy += rng.normal(0.0, sigma, (m, n))
        np.square(e_copy, out=e_copy)
        agg_auth, agg_copy = e_auth.sum(axis=1), e_copy.sum(axis=1)
        exceeded = np.maximum(agg_auth, agg_copy) > thr.gamma_upper
        agg_auth[exceeded] = np.nan
        hidden = ~(pass_ratios(e_auth, alpha, thr, rcfg, rng, agg_auth) > cut)
        agg_copy[exceeded | ~hidden] = np.nan
        copy = pass_ratios(e_copy, alpha, thr, rcfg, rng, agg_copy)
        successes += int((copy > cut).sum())
    return successes


def run_grid(cfg: TrialConfig) -> list[EstimateRow]:
    """Estimate the configured metric over the k grid, with analytic overlay.

    The evade metric is overlaid with prob_evade_rcv. No closed form plays
    the attack metric's game, so its overlay is nan.
    """
    rows = []
    for k in sorted(cfg.k_grid):
        if cfg.metric == METRIC_EVADE:
            successes = _evade_successes(cfg, k)
            ref = analytic.prob_evade_rcv(cfg.params.alpha, cfg.params.beta, cfg.receiver.r, k)
        else:
            successes = _attack_successes(cfg, k)
            ref = float("nan")
        rows.append(_estimate_row(k, cfg.trials, successes, ref))
    return rows


def false_positive_rate(cfg: TrialConfig, thresholds: Thresholds | None = None) -> EstimateRow:
    """Rate at which pure noise survives the whole acceptance path.

    Each trial is one backtracking candidate: a frame-length window of
    noise-only energies, gated and then voted by receiver.pass_ratios, as in
    backtracking. The game is factorised: for i.i.d. sigma^2 chi^2_1 slot
    energies the sum is independent of the proportions (Lukacs, Ann. Math.
    Stat. 1955); the gate reads only the sum, and the strict vote only the
    proportions. So each chunk draws its m aggregates sigma^2 chi^2_n, then
    the split of the frames inside the window (squared standard normals
    rescaled to their aggregate), then their votes.
    """
    params, link, rcfg = cfg.params, cfg.link, cfg.receiver
    n, alpha = params.n, params.alpha
    if thresholds is None:
        thresholds = compute_thresholds(link, params)
    accepted = 0
    # every chunk draws into one buffer, so no chunk's noise lands on fresh pages
    buf = np.empty((min(CHUNK, cfg.trials), n))
    for rng, m in _chunks(cfg.base_seed, 0, cfg.trials):
        agg = link.sigma_n2 * rng.chisquare(n, size=m)
        agg = agg[receiver._in_window(agg, thresholds)]
        energies = rng.standard_normal(out=buf[:len(agg)])
        np.square(energies, out=energies)
        energies *= (agg / energies.sum(axis=1))[:, None]
        ratios = pass_ratios(energies, alpha, thresholds, rcfg, rng, aggregates=agg)
        accepted += int((ratios > rcfg.p_noise_threshold).sum())
    return _estimate_row(0, cfg.trials, accepted)


def rows_to_csv(rows, header_extra: str | None = None) -> str:
    """CSV dump of the rows' fields in order; a non-empty header_extra is its meta line."""
    return _csv("k,trials,successes,p_hat,ci_low,ci_high,analytic_p",
                "%d,%d,%d,%.12g,%.12g,%.12g,%.12g", map(astuple, rows),
                *([header_extra] if header_extra else []))

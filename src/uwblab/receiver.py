"""Energy-detector side: thresholds, plausibility gate, code check, backtracking.

The receiver never looks at phase. Per slot it sees one energy (squared
amplitude) and asks three questions. Is the aggregate energy of a candidate
frame alignment consistent with a real transmission (above the noise floor
gamma_lower, not above the path-loss ceiling gamma_upper)? Do the slots that
should hold pulses actually outshine the slots that should be empty
(repeated random-sample comparison)? And is there an earlier copy of the
same code on the timeline that the acquisition lock skipped (backtracking)?
pass_ratios() answers the first two for a batch of candidate frames, voting
through vote(); backtracking and the attack and noise games share both.

An aggregate above the ceiling alpha (lambda_b + sigma)^2 + beta sigma^2 raises an
alarm, whatever the rest of the frame looks like. Under noise that is no hard
bound (an honest undegraded link at C11's geometry and SNR 64 alarms in 54 of
1,000 sessions), so surplus energy is evidence of injection only beyond that rate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codec import CodeParams, VerificationCode, _csv, bins
from .channel import FrameTimeline, LinkModel, expected_rx_power

PLAUSIBILITY_NOISE = "noise"
PLAUSIBILITY_PLAUSIBLE = "plausible"
PLAUSIBILITY_ENERGY_EXCEEDED = "energy_exceeded"

VERDICT_NO_CODE = "no_code_found"
VERDICT_ACCEPTED = "code_accepted"
VERDICT_ATTACK = "attack_detected"

REASON_ENERGY = "energy_exceeded"
REASON_TOF = "tof_mismatch"
REASON_RANGE = "range_exceeded"

# sampled slots per bin in one block of vote(): rows * upsilon * r, held as r
# index arrays of (rows, upsilon) beside one offset and two gather buffers
VOTE_BLOCK = 1 << 18


@dataclass(frozen=True)
class ReceiverConfig:
    """Detection knobs.

    upsilon repeated sample comparisons vote on code presence; the vote
    ratio must exceed p_noise_threshold, set above what pure noise can
    reach. Backtracking steps back one timeline bin (the pulse width tp_ns)
    at a time over a window of backtrack_window_ns, short of one slot spacing.
    """

    r: int = 8
    upsilon: int = 100
    p_noise_threshold: float = 0.8
    backtrack_window_ns: float = 660.0

    def __post_init__(self):
        if self.upsilon < 1:
            raise ValueError("need at least one vote")
        if not 0 < self.p_noise_threshold < 1:
            raise ValueError("vote threshold must lie in (0, 1)")
        if not 0 <= self.backtrack_window_ns < math.inf:
            raise ValueError("backtracking window must be finite and nonnegative")
        if self.r < 1:
            raise ValueError("sample size must be at least 1")


@dataclass(frozen=True)
class Thresholds:
    """Noise floor and path-loss ceiling for a candidate frame's aggregate."""

    gamma_lower: float
    gamma_upper: float

    def __post_init__(self):
        if not 0 <= self.gamma_lower < self.gamma_upper:
            raise ValueError("need 0 <= gamma_lower < gamma_upper")


@dataclass(frozen=True, eq=False)
class DetectionOutcome:
    """Backtracking result plus per-candidate diagnostics.

    verdict is one of VERDICT_*, an attack meaning an aggregate over the
    ceiling; toa_ns names the earliest accepted candidate of an accepted code.
    Diagnostics run in scan order (acquisition lock first) as read-only float64
    vectors, kept as given if already so; pass_ratios is nan where no vote ran.
    """

    verdict: str
    toa_ns: float | None = None
    candidate_toas_ns: np.ndarray = ()
    aggregates: np.ndarray = ()
    pass_ratios: np.ndarray = ()

    def __post_init__(self):
        for name in ("candidate_toas_ns", "aggregates", "pass_ratios"):
            given = getattr(self, name)
            if type(given) is not np.ndarray or given.dtype != np.float64 or given.flags.writeable:
                values = np.asarray(given, dtype=np.float64).view()
                values.setflags(write=False)  # a view: the caller's array stays writeable
                object.__setattr__(self, name, values)


def compute_thresholds(link: LinkModel, params: CodeParams,
                       d_committed_m: float | None = None) -> Thresholds:
    """Energy window for a frame claimed to come from d_committed_m away, by default d1_m + d2_m.

    The ceiling assumes every pulse arrives at the best-case power for the
    committed distance riding on top of a one-sigma noise amplitude, plus
    the noise energy of the empty slots; the floor is the mean noise energy
    of the whole frame. Committing to a larger distance lowers the ceiling.
    """
    if d_committed_m is None:
        d_committed_m = link.d1_m + link.d2_m
    if d_committed_m <= 0:
        raise ValueError("committed distance must be positive")
    lam_b = math.sqrt(expected_rx_power(link.p_sent, d_committed_m, 0.0))
    noise_amp = math.sqrt(link.sigma_n2)
    upper = params.alpha * (lam_b + noise_amp) ** 2 + params.beta * link.sigma_n2
    lower = (params.alpha + params.beta) * link.sigma_n2
    return Thresholds(gamma_lower=lower, gamma_upper=upper)


def attack_plausibility(energies, thresholds: Thresholds) -> str:
    """Classify a candidate frame by its aggregate energy.

    Plausible inside _in_window's energy gate, both thresholds included;
    above the ceiling someone added energy; anything else, below the floor
    or nan, is noise, which pass_ratios gates out too.
    """
    agg = float(np.sum(energies))
    if _in_window(agg, thresholds):
        return PLAUSIBILITY_PLAUSIBLE
    return PLAUSIBILITY_ENERGY_EXCEEDED if agg > thresholds.gamma_upper else PLAUSIBILITY_NOISE


def robust_code_verification(
    energies,
    code: VerificationCode,
    cfg: ReceiverConfig,
    rng,
) -> tuple[float, bool]:
    """Vote on whether the secret code's energy pattern is present.

    Each of upsilon votes draws r pulse slots and r empty slots (without
    replacement, fresh each vote) and passes when the pulse-slot aggregate
    strictly exceeds the empty-slot aggregate. Ties fail: a window with no
    energy anywhere scores 0.0, not 1.0, so noiseless backtracking never
    mistakes silence for the code. The code is declared present when the
    pass ratio beats the noise baseline; it is pass_ratios on one row,
    ungated, its columns reordered pulse bin first as in backtracking. The
    votes draw from rng, the caller's generator.
    """
    row = np.asarray(energies, dtype=np.float64)[None]
    if row.shape != (1, code.params.n):
        raise ValueError("energies hold %d slots, the code %d" % (row.size, code.params.n))
    row = row[:, np.concatenate(bins(code))]
    ratio = float(pass_ratios(row, code.params.alpha, Thresholds(0.0, math.inf), cfg, rng)[0])
    return ratio, ratio > cfg.p_noise_threshold


def vote(e_alpha, e_beta, r: int, upsilon: int, rng) -> np.ndarray:
    """Pass counts of upsilon repeated r-versus-r comparisons, one per row.

    e_alpha is (rows, alpha) pulse-bin energies, e_beta (rows, beta). Each
    vote draws a fresh uniform r-subset of each bin and passes when the
    first bin's sum is strictly larger; ties fail. This is the one vote
    kernel of the package: the receiver and the attack and noise games call
    it. Rows are processed in blocks of at most VOTE_BLOCK sampled slots, so
    memory stays bounded; an empty batch makes one block, which checks r.
    """
    rows = len(e_alpha)
    passes = np.empty(rows, dtype=np.int64)
    step = max(1, VOTE_BLOCK // max(1, upsilon * r))
    for lo in range(0, max(rows, 1), step):
        hi = min(rows, lo + step)
        agg_a = _subset_sums(e_alpha[lo:hi], r, upsilon, rng)
        agg_b = _subset_sums(e_beta[lo:hi], r, upsilon, rng)
        passes[lo:hi] = (agg_a > agg_b).sum(axis=1)
    return passes


def _floyd_picks(n: int, r: int, rows: int, upsilon: int, rng):
    """Yield in draw order the r (rows, upsilon) picks of uniform r-subsets of 0..n-1.

    Floyd's algorithm (Bentley & Floyd, CACM 1987), vectorised over rows and
    votes: step i draws t uniform on 0..j with j = n - r + i and takes j
    instead when t is already chosen. Callers must not write into the picks.
    """
    if not 1 <= r <= n:
        raise ValueError("sample size exceeds a bin")
    picks = []
    for i in range(r):
        j = n - r + i
        t = rng.integers(0, j + 1, size=(rows, upsilon))
        if picks:
            dup = picks[0] == t
            for p in picks[1:]:
                dup |= p == t
            # t <= j, so the maximum takes j exactly where t is already chosen
            np.maximum(t, dup * j, out=t)
        picks.append(t)
        yield t


def _subset_sums(e, r: int, upsilon: int, rng) -> np.ndarray:
    """(rows, upsilon) sums over _floyd_picks' r-subsets of each row's columns.

    The picks are in range, so the gather takes mode="wrap": the default
    mode copies its out= buffer.
    """
    e = np.ascontiguousarray(e, dtype=np.float64)
    rows, n = e.shape
    flat = e.ravel()
    base = (np.arange(rows) * n)[:, None]
    idx = np.empty((rows, upsilon), dtype=np.int64)
    sums = np.empty((rows, upsilon))
    buf = np.empty_like(sums) if r > 1 else None
    for i, t in enumerate(_floyd_picks(n, r, rows, upsilon, rng)):
        np.add(t, base, out=idx)
        flat.take(idx, out=buf if i else sums, mode="wrap")
        if i:
            sums += buf
    return sums


def _in_window(agg, thresholds: Thresholds) -> np.ndarray:
    """True where an aggregate lies inside [gamma_lower, gamma_upper]: the energy gate."""
    return (agg >= thresholds.gamma_lower) & (agg <= thresholds.gamma_upper)


def pass_ratios(energies, alpha: int, thresholds: Thresholds, cfg: ReceiverConfig, rng,
                aggregates=None) -> np.ndarray:
    """Vote ratio of each candidate frame (a row of energies): the one acceptance rule.

    A row holds its pulse bin in its first alpha columns, its empty bin in
    the rest; aggregates, by default the row sums, are what the gate reads.
    nan outside [gamma_lower, gamma_upper]: a nan aggregate is the one mark
    of a row that is no candidate. 0.0 for a row with no energy, unvoted
    (every strict vote on it ties); else vote() passes over upsilon, the
    rows voted in row order on rng, the caller's generator. A candidate is
    accepted when its ratio exceeds cfg.p_noise_threshold, which nan never does.
    """
    agg = energies.sum(axis=1) if aggregates is None else aggregates
    gated = _in_window(agg, thresholds)
    ratios = np.where(gated, 0.0, np.nan)
    voted = gated & (agg > 0.0)
    # one copy per bin; vote() checks r against the bins even with no row voted
    passes = vote(energies[:, :alpha][voted], energies[:, alpha:][voted], cfg.r, cfg.upsilon,
                  rng)
    ratios[voted] = passes / cfg.upsilon
    return ratios


def backtrack_frames(timelines, cfg: ReceiverConfig, d_committed_m: float | None = None, *,
                     rng) -> list:
    """Scan earlier alignments of a batch of frames for hidden authentic copies.

    One DetectionOutcome per frame, read with its own code; the frames share
    one code geometry and one link (equal, not only one object), whose
    thresholds (for d_committed_m, by default d1_m + d2_m) they all use; an
    empty batch is refused. In each frame candidate starts step back from
    the acquisition lock one bin (tp_ns) at a time:
    int(backtrack_window_ns / tp_ns) + 1 of them, at most stride (a replay
    trails by less than one slot spacing, and a start a whole spacing back
    reads the code shifted by whole slots), and only down to bin 0, lead_ns
    before the authentic frame, where the record stops. Any candidate over
    the ceiling aborts that frame's scan as an attack; candidates below the
    floor are skipped; the rest take the code vote. A frame's earliest accepted
    candidate wins, since a replayed copy can only trail the authentic one.
    One pass_ratios call on rng votes every frame's candidates, in frame
    order and then scan order. Diagnostics are read-only slices of the batch's.
    """
    if not timelines:
        raise ValueError("an empty batch has no frame to backtrack")
    params, link = timelines[0].code.params, timelines[0].link
    if any(tl.code.params is not params and tl.code.params != params
           or tl.link is not link and tl.link != link for tl in timelines[1:]):
        raise ValueError("frames of one batch must share a code geometry and a link")
    thresholds = compute_thresholds(link, params, d_committed_m)
    n_steps = min(int(cfg.backtrack_window_ns / params.tp_ns), params.stride - 1)

    scans, parts = [], []
    for timeline in timelines:
        lock, rows = timeline.lock_bin, timeline.rows
        if not 0 <= lock < rows.shape[1]:
            raise ValueError("timeline does not reach the acquisition lock")
        energies = np.square(rows[:, max(0, lock - n_steps):lock + 1].T[::-1], order="C")
        aggregates = np.add.reduce(energies, axis=1)
        # the scan aborts at the first over-ceiling candidate, in scan order
        hot = (aggregates > thresholds.gamma_upper).nonzero()[0]
        scanned = int(hot[0]) + 1 if len(hot) else len(aggregates)
        # pulse bin first, as pass_ratios reads them: np.concatenate(bins(code)) in one call
        parts.append(energies[:scanned, (timeline.code.slots == 0).argsort(kind="stable")])
        scans.append((np.arange(lock, lock - scanned, -1), aggregates[:scanned], len(hot) > 0))
    starts, aggs, hots = zip(*scans)
    toas, aggregates = np.concatenate(starts) * params.tp_ns, np.concatenate(aggs)
    ratios = pass_ratios(np.concatenate(parts), params.alpha, thresholds, cfg, rng,
                         aggregates=aggregates)
    for scan in (toas, aggregates, ratios):
        scan.setflags(write=False)

    outcomes, lo = [], 0
    for frame_starts, hot in zip(starts, hots):
        span, lo = slice(lo, lo + len(frame_starts)), lo + len(frame_starts)
        accepted = toas[span][ratios[span] > cfg.p_noise_threshold]
        verdict = VERDICT_ATTACK if hot else VERDICT_ACCEPTED if len(accepted) else VERDICT_NO_CODE
        # scan order steps back in time, so the last accepted candidate is the earliest
        toa = float(accepted[-1]) if verdict == VERDICT_ACCEPTED else None
        outcomes.append(DetectionOutcome(verdict, toa, toas[span], aggregates[span], ratios[span]))
    return outcomes


def backtrack_detect(timeline: FrameTimeline, cfg: ReceiverConfig,
                     d_committed_m: float | None = None, *, rng) -> DetectionOutcome:
    """Scan earlier alignments of one frame for a hidden authentic copy.

    backtrack_frames on a batch of one; rng is pass_ratios' generator.
    """
    return backtrack_frames([timeline], cfg, d_committed_m, rng=rng)[0]


def outcome_to_csv(outcome: DetectionOutcome) -> str:
    """CSV dump of per-candidate diagnostics with a schema header."""
    return _csv("candidate_toa_ns,aggregate,pass_ratio", "%.12g,%.12g,%.12g",
                zip(outcome.candidate_toas_ns, outcome.aggregates, outcome.pass_ratios))

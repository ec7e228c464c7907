"""The benchmark workloads: Monte-Carlo estimators and ranging sessions.

A workload builds its inputs from the benchmark seed and hands out one pass
of operations at a time; each operation carries its own correctness check.
Calls into uwblab go through module attributes, so the wrappers that
`install` puts in place see them.

estimators
    One pass runs the three Monte-Carlo jobs: `uwblab validate` (the evade
    game on 66 grid points with a prob_evade_rcv overlay) once, `uwblab
    simulate --metric attack` at alpha 50, beta 100, r 8, k 100, d1 10 m,
    d2 5 m, sigma^2 1e-7 once, and false_positive_rate at the C09 geometry
    (alpha 80, beta 100, r 1, upsilon 100) NOISE_JOBS times. The evade
    trials of each grid point are pooled over the run, and the pooled rows
    must agree with their overlay by the 4-standard-error test of the CLI;
    attack rows must stay in range; noise accepts must stay within the
    one-in-a-million Poisson bound of a 1e-5 false-accept rate.
sessions
    run_session at the C11 geometry (n = 12, r = 1, upsilon 25, 220 ns
    window). Four honest sessions (d1 = 10 m, noiseless) precede each
    replay session (d1 = 60 m, d2 = 30 m, 200 ns delay, +6 dB, sigma^2 =
    lambda_w^2 / 64). Replays take about twice as long, so the 90th
    percentile falls at the median replay and the median near the median
    honest session, not on the gap between the two. Every honest session
    must verify and at least 99.9% of replay sessions must raise a
    time-of-flight alarm.
"""

import contextlib
import io
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from uwblab import analytic, cli, montecarlo, protocol, receiver
from uwblab.channel import LinkModel, power_ratio, worst_case_rx_power
from uwblab.codec import CodeParams
from uwblab.montecarlo import TrialConfig
from uwblab.protocol import PHASE_ALARMED, PHASE_VERIFIED
from uwblab.receiver import REASON_TOF, ReceiverConfig


@dataclass(frozen=True)
class Op:
    """One timed call: kind names the job, work counts its trials."""

    kind: str
    work: int
    call: Callable[[], object]
    check: Callable[[object], int]  # number of failed checks, 0 or 1


def _seed_words(*entropy, n=1) -> list:
    return [int(w) for w in np.random.SeedSequence(entropy).generate_state(n)]


class Workload:
    gauge_rows = 16  # row count of the gauge kernel whose work is like this workload's (gauge.py)

    def __init__(self, seed: int):
        self.seed = seed
        self.counts = Counter()

    def warm_up(self) -> None:
        raise NotImplementedError

    def ops(self, pass_idx: int) -> list:
        raise NotImplementedError

    def finish(self) -> int:
        """Failures found by checks over the whole run."""
        return 0


# -- estimators ---------------------------------------------------------------

VALIDATE_TRIALS = 4096
VALIDATE_ROWS = 66
# Pooled rows allowed past four standard errors. With none allowed, as
# cli._agreement_ok has it for 66 rows, a correct program fails about 1% of
# runs by chance at the pooled trial counts of a run (exact binomial tails of
# the grid's analytic values); with one, about 4e-5. A systematic error moves
# many rows.
VALIDATE_STRAY_ROWS = 1
ATTACK_TRIALS = 1024
ATTACK_ARGV = ("simulate", "--metric", "attack", "--alpha", "50", "--beta", "100", "--r", "8",
               "--k", "100", "--d1", "10", "--d2", "5", "--sigma-n2", "1e-7")
NOISE_CANDIDATES = 16384
# Noise jobs per pass. Their time lies between the attack job's and the
# validate call's, so with 1 attack : 3 noise : 1 validate the median
# operation is the median noise job and the 90th percentile the median
# validate call, each in the middle of its own kind.
NOISE_JOBS = 3
NOISE_RATE = 1e-5  # the C09 acceptance bound on the false-accept rate
NOISE_TAIL = 1e-6
NOISE_LINK = LinkModel(d1_m=10.0, d2_m=0.0, sigma_n2=power_ratio(10.0) * 7.67 / 16.0)
NOISE_PARAMS = CodeParams(n=180, alpha=80, beta=100, r=1)
NOISE_RECEIVER = ReceiverConfig(r=1, upsilon=100, p_noise_threshold=0.8)


def _run_cli(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _csv_rows(text: str) -> list:
    # '#' lines are metadata, which later versions may add to
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _off_by_4se(successes: int, trials: int, p: float) -> bool:
    # the per-row test of cli._agreement_ok
    se = math.sqrt(max(p * (1 - p), 1e-300) / trials)
    return abs(successes / trials - p) > 4 * se


def poisson_bound(lam: float, tail: float) -> int:
    """Smallest q with P(Poisson(lam) > q) < tail."""
    term = cdf = math.exp(-lam)
    q = 0
    while 1.0 - cdf >= tail:
        q += 1
        term *= lam / q
        cdf += term
    return q


def _noise_job(seed: int):
    cfg = TrialConfig(params=NOISE_PARAMS, link=NOISE_LINK, trials=NOISE_CANDIDATES,
                      base_seed=seed, receiver=NOISE_RECEIVER)
    return montecarlo.false_positive_rate(cfg)


class Estimators(Workload):
    gauge_rows = 2048  # Monte-Carlo chunks work on arrays of thousands of rows
    noise_bound = poisson_bound(NOISE_RATE * NOISE_CANDIDATES, NOISE_TAIL)

    def __init__(self, seed):
        super().__init__(seed)
        self.evade = {}  # (beta, r, k) -> [successes, trials, analytic_p], pooled over calls

    def warm_up(self):
        _run_cli(["simulate", "--metric", "evade", "--k", "10", "--trials", "16", "--seed", "0"])
        _run_cli(list(ATTACK_ARGV) + ["--trials", "16", "--seed", "0"])
        cfg = TrialConfig(params=NOISE_PARAMS, link=NOISE_LINK, trials=256,
                          receiver=NOISE_RECEIVER)
        montecarlo.false_positive_rate(cfg)

    def ops(self, pass_idx):
        s_val, s_att, *s_noise = _seed_words(self.seed, pass_idx, n=2 + NOISE_JOBS)
        validate = ["validate", "--trials", str(VALIDATE_TRIALS), "--seed", str(s_val)]
        attack = list(ATTACK_ARGV) + ["--trials", str(ATTACK_TRIALS), "--seed", str(s_att)]
        return [
            Op("validate", VALIDATE_ROWS * VALIDATE_TRIALS, partial(_run_cli, validate),
               self._check_validate),
            Op("attack", ATTACK_TRIALS, partial(_run_cli, attack), self._check_attack),
        ] + [Op("noise", NOISE_CANDIDATES, partial(_noise_job, s), self._check_noise)
             for s in s_noise]

    def _check_validate(self, result) -> int:
        # exit code 1 only says containment fell under 95%, which at this
        # trial count is a coin flip; agreement is judged in finish()
        code, text = result
        rows = _csv_rows(text)
        if code not in (0, 1) or len(rows) != VALIDATE_ROWS:
            return 1
        got = {(r["beta"], r["r"], r["k"]): (int(r["successes"]), int(r["trials"]),
                                             float(r["analytic_p"])) for r in rows}
        if len(got) != VALIDATE_ROWS or any(
                t != VALIDATE_TRIALS or not 0 <= s <= t
                or key in self.evade and self.evade[key][2] != p
                for key, (s, t, p) in got.items()):
            return 1
        for key, (s, t, p) in got.items():
            pooled = self.evade.setdefault(key, [0, 0, p])
            pooled[0] += s
            pooled[1] += t
        return 0

    def _check_attack(self, result) -> int:
        code, text = result
        rows = _csv_rows(text)
        if code != 0 or len(rows) != 1:
            return 1
        row = rows[0]
        s, t = int(row["successes"]), int(row["trials"])
        p_hat, lo, hi = float(row["p_hat"]), float(row["ci_low"]), float(row["ci_high"])
        ok = (int(row["k"]) == 100 and t == ATTACK_TRIALS and 0 <= s <= t
              and math.isclose(p_hat, s / t, rel_tol=1e-9, abs_tol=1e-12)
              and 0.0 <= lo <= p_hat <= hi <= 1.0)
        return 0 if ok else 1

    def _check_noise(self, row) -> int:
        ok = row.trials == NOISE_CANDIDATES and 0 <= row.successes <= self.noise_bound
        return 0 if ok else 1

    def finish(self):
        flagged = sum(_off_by_4se(*row) for row in self.evade.values())
        return 1 if flagged > VALIDATE_STRAY_ROWS else 0


# -- sessions -----------------------------------------------------------------

HONEST_LINK = LinkModel(d1_m=10.0, d2_m=0.0, e_db=-10.0, sigma_n2=0.0)
REPLAY_LINK = LinkModel(
    d1_m=60.0, d2_m=30.0, e_db=-10.0,
    sigma_n2=worst_case_rx_power(LinkModel(d1_m=60.0, e_db=-10.0)) / 64.0,
)
SESSION_PARAMS = CodeParams(n=12, alpha=4, beta=8, r=2)
SESSION_RECEIVER = ReceiverConfig(r=1, upsilon=25, backtrack_window_ns=220.0)
SESSIONS_PER_PASS = 30
REPLAY_EVERY = 5  # session i is replayed when i % 5 == 4


def _session(seed: int, replay: bool):
    if replay:
        return protocol.run_session(SESSION_PARAMS, REPLAY_LINK, seed=seed,
                                    replay_delay_ns=200.0, replay_gain_db=6.0,
                                    receiver=SESSION_RECEIVER)
    return protocol.run_session(SESSION_PARAMS, HONEST_LINK, seed=seed, receiver=SESSION_RECEIVER)


class Sessions(Workload):
    def __init__(self, seed):
        super().__init__(seed)
        self.base, self.warm_seed = _seed_words(seed, n=2)
        self.replays = 0
        self.replay_misses = 0

    def warm_up(self):
        _session(self.warm_seed, False)
        _session(self.warm_seed, True)

    def ops(self, pass_idx):
        out = []
        for i in range(SESSIONS_PER_PASS):
            replay = i % REPLAY_EVERY == REPLAY_EVERY - 1
            seed = self.base + pass_idx * SESSIONS_PER_PASS + i
            out.append(Op("replay" if replay else "honest", 1, partial(_session, seed, replay),
                          partial(self._check, replay)))
        return out

    def _check(self, replay, state) -> int:
        if replay:
            self.replays += 1
            self.replay_misses += not (state.phase == PHASE_ALARMED
                                       and state.alarm_reason == REASON_TOF)
            return 0
        ok = (state.phase == PHASE_VERIFIED
              and abs(state.t_commit_tof_ns - state.t_verify_tof_ns) <= state.precision_ns)
        return 0 if ok else 1

    def finish(self):
        return self.replay_misses if self.replay_misses > 0.001 * self.replays else 0


WORKLOADS = {
    "estimators": Estimators,
    "sessions": Sessions,
}


# -- probes: where spans, counts and allocation peaks are taken ---------------

def _count_calls(key):
    def hook(counts, result, *args, **kwargs):
        counts[key] += 1
    return hook


def _count_session(counts, state, *args, **kwargs):
    if state.phase == PHASE_VERIFIED:
        counts["protocol.verified"] += 1
    elif state.phase == PHASE_ALARMED:
        counts["protocol.alarm." + state.alarm_reason] += 1


def _count_timeline(counts, timeline, *args, **kwargs):
    counts["channel.timeline_bins"] += len(timeline.amplitudes)


def _count_detection(counts, outcome, timeline, code, link, cfg, **kwargs):
    ratios = np.asarray(outcome.pass_ratios, dtype=np.float64)
    aggregates = np.asarray(outcome.aggregates, dtype=np.float64)
    voted = int(np.count_nonzero(~np.isnan(ratios) & (aggregates > 0.0)))
    accepted = ratios > cfg.p_noise_threshold
    accepted_bins = np.rint(
        np.asarray(outcome.candidate_toas_ns, dtype=np.float64)[accepted] / timeline.tp_ns
    )
    real = (accepted_bins == timeline.start_bin) | (accepted_bins == timeline.lock_bin)
    counts["receiver.candidates_scanned"] += len(ratios)
    counts["receiver.candidates_voted"] += voted
    counts["receiver.votes_cast"] += voted * cfg.upsilon
    counts["receiver.vote_key_bytes"] += voted * cfg.upsilon * code.params.n * 8
    counts["receiver.candidates_accepted"] += int(accepted.sum())
    counts["receiver.noise_accepted"] += int((~real).sum())
    early = outcome.toa_ns is not None and (
        outcome.toa_ns < (timeline.start_bin - 0.5) * timeline.tp_ns)
    counts["receiver.early_false_accepts"] += int(early)


def _count_grid(counts, rows, cfg):
    counts["montecarlo.%s.trials" % cfg.metric] += cfg.trials * len(cfg.k_grid)


def _count_noise(counts, row, cfg, thresholds=None):
    counts["montecarlo.noise.candidates"] += cfg.trials
    counts["montecarlo.noise.accepted"] += row.successes


@dataclass(frozen=True)
class Probe:
    owner: object
    attr: str
    name: object  # span name, or a callable deriving it from the call's arguments
    count: Callable | None = None
    peak: bool = False


PROBES = (
    Probe(protocol, "run_session", "protocol.run_session", _count_session),
    Probe(protocol, "generate_code", "codec.generate_code",
          _count_calls("codec.generate_code.calls")),
    Probe(protocol, "synthesize_timeline", "channel.synthesize_timeline", _count_timeline),
    Probe(protocol, "plan_attack", "adversary.plan_attack"),
    Probe(protocol, "replay_frame", "adversary.replay_frame"),
    Probe(protocol, "backtrack_detect", "receiver.backtrack_detect", _count_detection, peak=True),
    Probe(receiver, "bins", "codec.bins"),
    Probe(analytic, "prob_evade_rcv", "analytic.prob_evade_rcv"),
    Probe(analytic, "prob_success", "analytic.prob_success"),
    Probe(cli, "main", "cli.main"),
    Probe(cli, "run_grid", lambda cfg: "montecarlo." + cfg.metric, _count_grid, peak=True),
    Probe(montecarlo, "compute_thresholds", "receiver.compute_thresholds"),
    Probe(montecarlo, "false_positive_rate", "montecarlo.noise", _count_noise, peak=True),
)


def install(rec, workload: Workload, traced: bool) -> None:
    """Put every probe in place; rec.restore() removes them.

    Traced, the wrappers record spans. Otherwise they run the count hooks
    and take allocation peaks, without spans.
    """
    for probe in PROBES:
        if traced:
            rec.wrap(probe.owner, probe.attr, probe.name)
        else:
            hooks = [partial(probe.count, workload.counts)] if probe.count else []
            rec.wrap(probe.owner, probe.attr, probe.name, hooks, spans=False, peak=probe.peak)

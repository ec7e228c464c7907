"""Trial harness: seeding, interval math, agreement with the closed forms."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uwblab import montecarlo, receiver
from uwblab.analytic import prob_evade_rcv
from uwblab.channel import LinkModel, power_ratio
from uwblab.codec import CodeParams
from uwblab.montecarlo import (
    CHUNK,
    EstimateRow,
    TrialConfig,
    false_positive_rate,
    rows_to_csv,
    run_grid,
    wilson_interval,
)
from uwblab.receiver import ReceiverConfig, Thresholds, compute_thresholds, pass_ratios, vote


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and 0.95 < lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_config_validation():
    params = CodeParams(n=10, alpha=3, beta=7, r=2)
    with pytest.raises(ValueError):
        TrialConfig(params=params, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(params=params, metric="bogus")
    with pytest.raises(ValueError):
        TrialConfig(params=params, k_grid=(11,))


def test_run_grid_reproducible_and_chunk_agnostic(monkeypatch):
    params = CodeParams(n=30, alpha=10, beta=20, r=2)
    cfg = TrialConfig(params=params, k_grid=(4, 9), trials=2 * CHUNK + 500, base_seed=7,
                      receiver=ReceiverConfig(r=2))
    first = run_grid(cfg)
    second = run_grid(cfg)
    assert [r.successes for r in first] == [r.successes for r in second]
    assert first[0].k == 4 and first[1].k == 9
    # a run split at chunk boundaries and summed reproduces the sequential counts
    attack = dataclasses.replace(cfg, metric="attack",
                                 link=LinkModel(d1_m=10.0, d2_m=5.0, sigma_n2=1e-7),
                                 receiver=ReceiverConfig(r=2, upsilon=20))
    noise = dataclasses.replace(cfg, link=LinkModel(sigma_n2=1.0),
                                receiver=ReceiverConfig(r=1, upsilon=20, p_noise_threshold=0.6))
    thresholds = Thresholds(gamma_lower=20.0, gamma_upper=40.0)

    def counts():
        return ([row.successes for row in run_grid(cfg)],
                [row.successes for row in run_grid(attack)],
                false_positive_rate(noise, thresholds).successes)

    sequential = counts()
    chunks = montecarlo._chunks
    parts = []
    for keep in ({0}, {1, 2}):
        monkeypatch.setattr(montecarlo, "_chunks", lambda *args, keep=keep: (
            chunk for idx, chunk in enumerate(chunks(*args)) if idx in keep))
        parts.append(counts())
    (evade_a, attack_a, noise_a), (evade_b, attack_b, noise_b) = parts
    assert [a + b for a, b in zip(evade_a, evade_b)] == sequential[0]
    assert [a + b for a, b in zip(attack_a, attack_b)] == sequential[1]
    assert noise_a + noise_b == sequential[2]


def test_evade_no_injection_never_wins():
    params = CodeParams(n=20, alpha=10, beta=10, r=3)
    cfg = TrialConfig(params=params, k_grid=(0,), trials=3000,
                      receiver=ReceiverConfig(r=3))
    row = run_grid(cfg)[0]
    assert row.successes == 0
    assert row.analytic_p == 0.0


@pytest.mark.parametrize("link", [LinkModel(), LinkModel(d1_m=10.0, d2_m=5.0)])
def test_attack_no_injection_noiseless_never_wins(link):
    # without noise the authentic frame passes its own vote, so nothing
    # hides it when no pulse is injected
    params = CodeParams(n=150, alpha=50, beta=100, r=8)
    cfg = TrialConfig(params=params, link=link, k_grid=(0,), trials=4000,
                      metric="attack", receiver=ReceiverConfig(r=8))
    assert run_grid(cfg)[0].successes == 0


def test_attack_casts_no_vote_on_decided_trials(monkeypatch):
    # at the estimators benchmark's attack geometry every trial at k = 100 is
    # over the energy ceiling, so no row may reach the vote; k = 0 shows that
    # the count sees the votes the metric does cast
    rows = []

    def counting_vote(e_alpha, *args):
        rows.append(len(e_alpha))
        return vote(e_alpha, *args)

    monkeypatch.setattr(receiver, "vote", counting_vote)
    link = LinkModel(d1_m=10.0, d2_m=5.0, sigma_n2=1e-7)
    cfg = TrialConfig(params=CodeParams(n=150, alpha=50, beta=100, r=8), link=link,
                      k_grid=(100,), trials=1024, metric="attack", receiver=ReceiverConfig(r=8))
    assert run_grid(cfg)[0].successes == 0
    assert sum(rows) == 0
    run_grid(dataclasses.replace(cfg, k_grid=(0,)))
    assert sum(rows) > 0


def test_evade_matches_analytic_within_4se():
    params = CodeParams(n=30, alpha=10, beta=20, r=2)
    cfg = TrialConfig(params=params, k_grid=(6, 15, 24), trials=40000,
                      base_seed=3, receiver=ReceiverConfig(r=2))
    for row in run_grid(cfg):
        p = prob_evade_rcv(10, 20, 2, row.k)
        assert row.analytic_p == pytest.approx(p)
        se = math.sqrt(p * (1 - p) / row.trials)
        assert abs(row.p_hat - p) < 4 * se + 1e-12
        assert row.ci_low <= row.p_hat <= row.ci_high


def reference_evade_successes(cfg, k):
    """The energy-row game on the same draws: both bins' rows built, then one vote.

    The vote swaps the bins, so per block of rows it draws the empty bin's
    picks and then the pulse bin's. A copy of the generator peeks those
    picks, and coin i of a row is laid as 4 or 0 on the slot of its pulse
    pick i where that slot is struck; unstruck pulse slots and struck empty
    slots score 1, and the struck pulse slots no pick reads stay 0.
    """
    alpha, beta, r = cfg.params.alpha, cfg.params.beta, cfg.receiver.r
    step = max(1, receiver.VOTE_BLOCK // r)
    successes = 0
    for rng, m in montecarlo._chunks(cfg.base_seed, k, cfg.trials):
        x = rng.hypergeometric(alpha, beta, k, size=m)[:, None]
        coins = rng.random((m, r)) >= 0.5
        e_alpha = (np.arange(alpha) >= x).astype(np.float64)
        peek = copy.deepcopy(rng)
        for lo in range(0, m, step):
            hi = min(m, lo + step)
            rows = np.arange(lo, hi)[:, None]
            for _ in receiver._floyd_picks(beta, r, hi - lo, 1, peek):
                pass
            for i, t in enumerate(receiver._floyd_picks(alpha, r, hi - lo, 1, peek)):
                struck = t < x[lo:hi]
                e_alpha[rows[struck], t[struck]] = 4.0 * coins[lo:hi, i:i + 1][struck]
        e_beta = (np.arange(beta) < k - x).astype(np.float64)
        successes += int(vote(e_beta, e_alpha, r, 1, rng).sum())
    return successes


def slot_coin_evade_successes(cfg, k):
    """The energy-row game with a doubling coin on every pulse slot, read or not."""
    alpha, beta = cfg.params.alpha, cfg.params.beta
    successes = 0
    for rng, m in montecarlo._chunks(cfg.base_seed, k, cfg.trials):
        x = rng.hypergeometric(alpha, beta, k, size=m)[:, None]
        e_alpha = np.multiply(rng.random((m, alpha)) >= 0.5, 4.0)
        np.copyto(e_alpha, 1.0, where=np.arange(alpha) >= x)
        e_beta = (np.arange(beta) < k - x).astype(np.float64)
        successes += int(vote(e_beta, e_alpha, cfg.receiver.r, 1, rng).sum())
    return successes


@st.composite
def evade_cases(draw):
    alpha, beta = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(1, min(alpha, beta)))
    return alpha, beta, r, draw(st.integers(1, 300)), draw(st.integers(0, 2**32))


def _evade_config(alpha, beta, r, trials, seed):
    n = alpha + beta
    return TrialConfig(params=CodeParams(n=n, alpha=alpha, beta=beta, r=r),
                       k_grid=tuple(range(n + 1)), trials=trials, base_seed=seed,
                       receiver=ReceiverConfig(r=r))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(evade_cases())
@example((12, 12, 3, CHUNK + 5, 1))  # a second, partial chunk
def test_evade_matches_energy_row_reference(case):
    # the picks are scored instead of gathered from built rows, on the same
    # draws: every count must come out the same, at every k
    cfg = _evade_config(*case)
    for k in cfg.k_grid:
        assert montecarlo._evade_successes(cfg, k) == reference_evade_successes(cfg, k)


@pytest.mark.parametrize("block", [1, 40])
def test_evade_keeps_vote_row_blocks(monkeypatch, block):
    # vote() draws block by block (at r > 64 for a full chunk); the game's
    # picks must follow the same blocks
    monkeypatch.setattr(receiver, "VOTE_BLOCK", block)
    cfg = _evade_config(7, 9, 4, 150, 3)
    for k in (0, 5, 11, 16):
        assert montecarlo._evade_successes(cfg, k) == reference_evade_successes(cfg, k)


@pytest.mark.parametrize("alpha, beta", [(10, 5), (5, 10)])
def test_evade_rejects_sample_larger_than_a_bin(alpha, beta):
    cfg = TrialConfig(params=CodeParams(n=alpha + beta, alpha=alpha, beta=beta, r=1),
                      k_grid=(3,), trials=100, receiver=ReceiverConfig(r=min(alpha, beta) + 1))
    with pytest.raises(ValueError, match="exceeds a bin"):
        run_grid(cfg)


def evade_chunk_peak(alpha, beta, k):
    """tracemalloc peak of one 4,096-trial evade chunk at r 8."""
    cfg = TrialConfig(params=CodeParams(n=alpha + beta, alpha=alpha, beta=beta, r=8),
                      k_grid=(k,), trials=CHUNK, receiver=ReceiverConfig(r=8))
    tracemalloc.start()
    try:
        run_grid(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evade_memory_flat_in_beta():
    # one chunk's peak must not grow with the empty bin: at beta 550 the
    # energy rows of the whole chunk took 18 MB
    evade_chunk_peak(50, 50, 50)  # the first call's one-off allocations
    assert evade_chunk_peak(50, 550, 300) <= 1.25 * evade_chunk_peak(50, 50, 50)


def test_evade_memory_flat_in_alpha():
    # nor with the pulse bin: a doubling coin on every pulse slot of the
    # chunk took 19 MB at alpha 550
    evade_chunk_peak(50, 50, 50)  # the first call's one-off allocations
    assert evade_chunk_peak(550, 50, 300) <= 1.25 * evade_chunk_peak(50, 50, 50)


@pytest.mark.parametrize("alpha, beta, r, k", [
    (7, 9, 4, 8), (12, 12, 3, 15), (5, 20, 2, 12), (10, 10, 10, 12),
])
def test_evade_matches_slot_coin_game(alpha, beta, r, k):
    # coins drawn per pick play the game with a coin on every pulse slot in
    # law: two-proportion z at 2e5 trials a side, on seeds of their own
    trials = 2 * 10**5
    cfg = dataclasses.replace(_evade_config(alpha, beta, r, trials, 41), k_grid=(k,))
    ours = montecarlo._evade_successes(cfg, k)
    ref = slot_coin_evade_successes(dataclasses.replace(cfg, base_seed=42), k)
    pooled = (ours + ref) / (2 * trials)
    assert 1000 < ref < trials - 1000
    assert abs(ours - ref) / trials < 4 * math.sqrt(pooled * (1 - pooled) * 2 / trials)


@pytest.mark.parametrize("alpha, beta, r", [(4, 6, 4), (6, 6, 6), (5, 5, 1), (3, 8, 1)])
def test_evade_matches_exact_law_when_every_coin_or_one_is_read(alpha, beta, r):
    # at r = alpha every pulse slot is picked and every coin read; at r = 1
    # one is. Every k against the exact closed form, within 4 standard
    # errors; a p of exactly 0 or 1 must be met exactly
    cfg = _evade_config(alpha, beta, r, 10**5, 43)
    for row in run_grid(cfg):
        p = float(prob_evade_rcv(alpha, beta, r, row.k, exact=True))
        assert abs(row.p_hat - p) <= 4 * math.sqrt(p * (1 - p) / row.trials)


def test_false_positive_silent_noise_never_passes_gate():
    # zero noise power: every candidate aggregate is 0, below the floor
    params = CodeParams(n=8, alpha=4, beta=4, ts_ns=100.0, tp_ns=2.0, r=2)
    link = LinkModel(sigma_n2=0.0)
    cfg = TrialConfig(params=params, link=link, trials=2000,
                      receiver=ReceiverConfig(r=2))
    row = false_positive_rate(cfg, thresholds=Thresholds(1e-9, 1.0))
    assert row.successes == 0


def test_false_positive_gating_is_monotone():
    # r = alpha makes the vote a deterministic whole-bin comparison, so the
    # ungated rate sits near one half and any energy gate can only lower it
    params = CodeParams(n=8, alpha=4, beta=4, ts_ns=100.0, tp_ns=2.0, r=4)
    link = LinkModel(sigma_n2=1.0)
    rcfg = ReceiverConfig(r=4, upsilon=5)
    cfg = TrialConfig(params=params, link=link, trials=4000, receiver=rcfg)
    open_row = false_positive_rate(cfg, thresholds=Thresholds(0.0, 1e18))
    gated_row = false_positive_rate(cfg, thresholds=Thresholds(4.0, 12.0))
    assert 0.4 < open_row.p_hat < 0.6
    assert gated_row.successes <= open_row.successes
    again = false_positive_rate(cfg, thresholds=Thresholds(0.0, 1e18))
    assert again.successes == open_row.successes


@pytest.mark.parametrize("alpha, survival", [
    (1, lambda x: math.exp(-x / 2)),  # chi^2_2
    (2, lambda x: (1 + x / 2) * math.exp(-x / 2)),  # chi^2_4
], ids=["n2", "n4"])
def test_false_positive_factorised_closed_form(alpha, survival):
    # r = alpha = beta and one vote at cut 1/2: the vote compares the two whole
    # bins, a fair coin independent of the aggregate, so P(accept) is half of
    # P(a <= sigma^2 chi^2_n <= b); sigma^2 4 fails a game that drops it
    sigma_n2, lo, hi = 4.0, 2.0 * alpha, 8.0 * alpha
    cfg = TrialConfig(params=CodeParams(n=2 * alpha, alpha=alpha, beta=alpha, r=alpha),
                      link=LinkModel(sigma_n2=sigma_n2), trials=10**5, base_seed=21,
                      receiver=ReceiverConfig(r=alpha, upsilon=1, p_noise_threshold=0.5))
    row = false_positive_rate(cfg, thresholds=Thresholds(lo, hi))
    p = (survival(lo / sigma_n2) - survival(hi / sigma_n2)) / 2
    assert abs(row.p_hat - p) < 4 * math.sqrt(p * (1 - p) / row.trials)


def test_false_positive_votes_only_window_rows_at_their_aggregates(monkeypatch):
    # the slot split is drawn for in-window frames only, and each voted row
    # sums to the aggregate the gate read
    seen = []

    def spy(energies, *args, aggregates=None):
        seen.append((energies.sum(axis=1), aggregates.copy()))
        return pass_ratios(energies, *args, aggregates=aggregates)

    monkeypatch.setattr(montecarlo, "pass_ratios", spy)
    thr = Thresholds(18.0, 24.0)
    cfg = TrialConfig(params=CodeParams(n=20, alpha=10, beta=10, r=2),
                      link=LinkModel(sigma_n2=1.0), trials=CHUNK + 100,
                      receiver=ReceiverConfig(r=2, upsilon=10))
    false_positive_rate(cfg, thresholds=thr)
    sums, aggs = map(np.concatenate, zip(*seen))
    assert len(seen) == 2 and 0 < len(aggs) < cfg.trials
    assert np.all((aggs >= thr.gamma_lower) & (aggs <= thr.gamma_upper))
    np.testing.assert_allclose(sums, aggs, rtol=1e-12)


def reference_false_positive_rate(cfg, thresholds=None):
    """The whole-frame noise game: every slot of every frame drawn and squared, then pass_ratios."""
    params, link, rcfg = cfg.params, cfg.link, cfg.receiver
    if thresholds is None:
        thresholds = compute_thresholds(link, params, link.d1_m + link.d2_m)
    accepted = 0
    for rng, m in montecarlo._chunks(cfg.base_seed, 0, cfg.trials):
        energies = np.square(rng.normal(0.0, math.sqrt(link.sigma_n2), (m, params.n)))
        ratios = pass_ratios(energies, params.alpha, thresholds, rcfg, rng)
        accepted += int((ratios > rcfg.p_noise_threshold).sum())
    return accepted


C09_LINK = LinkModel(d1_m=10.0, d2_m=0.0, sigma_n2=power_ratio(10.0) * 7.67 / 16.0)


@pytest.mark.parametrize("alpha, beta, r, upsilon, cut, link, thresholds", [
    (6, 9, 1, 50, 0.7, C09_LINK, None),
    (10, 10, 3, 50, 0.7, C09_LINK, None),
    (10, 10, 2, 20, 0.6, LinkModel(sigma_n2=1.0), Thresholds(25.0, 30.0)),
    (3, 17, 3, 10, 0.9, C09_LINK, Thresholds(0.0, math.inf)),
], ids=["r1", "r3", "window", "split"])
def test_false_positive_matches_whole_frame_game(alpha, beta, r, upsilon, cut, link, thresholds):
    # the factorised game plays the whole-frame game in law: two-proportion z
    # at 2e5 candidates a side, on seeds of their own. At r = 1 the vote reads
    # only ranks, so any i.i.d. split passes it; "split" fails uniform or
    # unsquared normal slot energies
    trials = 2 * 10**5
    cfg = TrialConfig(params=CodeParams(n=alpha + beta, alpha=alpha, beta=beta, r=r),
                      link=link, trials=trials, base_seed=31,
                      receiver=ReceiverConfig(r=r, upsilon=upsilon, p_noise_threshold=cut))
    ours = false_positive_rate(cfg, thresholds).successes
    ref = reference_false_positive_rate(dataclasses.replace(cfg, base_seed=32), thresholds)
    pooled = (ours + ref) / (2 * trials)
    assert ref > 1000
    assert abs(ours - ref) / trials < 4 * math.sqrt(pooled * (1 - pooled) * 2 / trials)


# Exact counts pinned at a fixed seed. The kernels may be rewritten freely as
# long as every generator call stays the same call, with the same size, in
# the same order; a change that moves an RNG stream must update these numbers
# and say so. Two full chunks plus a partial one cover the chunk loop's tail.
PIN_TRIALS = 2 * CHUNK + 17


@pytest.mark.parametrize("r, expected", [
    (1, [0, 65, 529, 1644, 4100]),
    (2, [0, 14, 405, 1472, 2048]),
    (8, [0, 0, 6, 319, 322]),
])
def test_stream_pin_evade(r, expected):
    cfg = TrialConfig(params=CodeParams(n=30, alpha=10, beta=20, r=2),
                      k_grid=(0, 4, 11, 19, 30), trials=PIN_TRIALS, base_seed=11,
                      receiver=ReceiverConfig(r=r))
    assert [row.successes for row in run_grid(cfg)] == expected


def test_stream_pin_attack():
    link = LinkModel(d1_m=10.0, d2_m=5.0, sigma_n2=1e-7)
    cfg = TrialConfig(params=CodeParams(n=30, alpha=10, beta=20, r=4), link=link,
                      k_grid=(0, 6, 15), trials=PIN_TRIALS, base_seed=5, metric="attack",
                      receiver=ReceiverConfig(r=4, upsilon=20))
    assert [row.successes for row in run_grid(cfg)] == [2438, 5996, 1087]


@pytest.mark.parametrize("r, expected", [(1, 46), (2, 180)])
def test_stream_pin_false_positive(r, expected):
    link = LinkModel(d1_m=10.0, d2_m=0.0, sigma_n2=power_ratio(10.0) * 7.67 / 16.0)
    cfg = TrialConfig(params=CodeParams(n=20, alpha=10, beta=10, r=r), link=link,
                      trials=PIN_TRIALS, base_seed=9,
                      receiver=ReceiverConfig(r=r, upsilon=100, p_noise_threshold=0.8))
    assert false_positive_rate(cfg).successes == expected


@pytest.mark.parametrize("block, r, expected", [
    (None, 1, [42, 21, 13, 23, 28, 37, 24, 21, 29]),
    (None, 3, [47, 20, 11, 25, 14, 47, 27, 24, 36]),
    (1, 1, [45, 24, 21, 22, 24, 34, 20, 26, 28]),
    (1, 3, [49, 23, 12, 26, 20, 47, 19, 20, 29]),
])
def test_stream_pin_vote(monkeypatch, block, r, expected):
    if block is not None:
        monkeypatch.setattr(receiver, "VOTE_BLOCK", block)
    e = np.random.default_rng(2024).random((9, 12))
    passes = vote(e[:, :5], e[:, 5:], r, 50, np.random.default_rng(13))
    assert passes.tolist() == expected


def test_rows_to_csv_schema():
    rows = [EstimateRow(k=1, trials=10, successes=2, p_hat=0.2,
                        ci_low=0.05, ci_high=0.5, analytic_p=0.25)]
    text = rows_to_csv(rows, header_extra="demo")
    lines = text.strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[1] == "# demo"
    assert lines[2] == "k,trials,successes,p_hat,ci_low,ci_high,analytic_p"
    assert lines[3].startswith("1,10,2,0.2,")
    # the whole text: an empty or missing header_extra writes no line, and a
    # row without an overlay prints nan
    rows.append(EstimateRow(k=3, trials=4096, successes=17, p_hat=17 / 4096,
                            ci_low=0.0026, ci_high=0.0066))
    head = "# schema=1\n"
    table = ("k,trials,successes,p_hat,ci_low,ci_high,analytic_p\n"
             "1,10,2,0.2,0.05,0.5,0.25\n3,4096,17,0.004150390625,0.0026,0.0066,nan\n")
    assert rows_to_csv(rows, header_extra="demo") == head + "# demo\n" + table
    assert rows_to_csv(rows, header_extra="") == head + table
    assert rows_to_csv(rows) == head + table
    assert rows_to_csv([]) == head + "k,trials,successes,p_hat,ci_low,ci_high,analytic_p\n"

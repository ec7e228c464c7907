"""Thresholds, plausibility gating, code voting, and backtracking."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwblab import receiver
from uwblab.adversary import replay_frame
from uwblab.channel import (FrameTimeline, LinkModel, expected_rx_power,
                            synthesize_timeline, unity_link,
                            worst_case_rx_power)
from uwblab.codec import CodeParams, bins, code_from_line, generate_code
from uwblab.receiver import (PLAUSIBILITY_ENERGY_EXCEEDED, PLAUSIBILITY_NOISE,
                             PLAUSIBILITY_PLAUSIBLE,
                             VERDICT_ACCEPTED, VERDICT_ATTACK, VERDICT_NO_CODE,
                             DetectionOutcome, ReceiverConfig, Thresholds, attack_plausibility,
                             backtrack_detect, backtrack_frames, compute_thresholds,
                             outcome_to_csv, robust_code_verification,
                             vote)


def small_params():
    return CodeParams(n=12, alpha=4, beta=8, ts_ns=100.0, tp_ns=2.0, r=2)


def test_thresholds_worked_example():
    # five pulses expected at the committed 8.5 m, noiseless receiver
    link = LinkModel(sigma_n2=0.0)
    params = CodeParams(n=18, alpha=5, beta=13, r=2)
    thr = compute_thresholds(link, params, 8.5)
    lam_b2 = expected_rx_power(link.p_sent, 8.5)
    assert thr.gamma_lower == 0.0
    assert thr.gamma_upper == pytest.approx(5 * lam_b2, rel=1e-12)
    with pytest.raises(ValueError):
        compute_thresholds(link, params, 0.0)


def test_thresholds_noise_terms():
    link = LinkModel(sigma_n2=4e-7)
    params = CodeParams(n=18, alpha=5, beta=13, r=2)
    thr = compute_thresholds(link, params, 8.5)
    lam_b = expected_rx_power(link.p_sent, 8.5) ** 0.5
    want = 5 * (lam_b + 4e-7 ** 0.5) ** 2 + 13 * 4e-7
    assert thr.gamma_upper == pytest.approx(want, rel=1e-12)
    assert thr.gamma_lower == pytest.approx(18 * 4e-7, rel=1e-12)


def test_threshold_monotone_in_distance():
    link = LinkModel(sigma_n2=1e-8)
    params = small_params()
    ceilings = [compute_thresholds(link, params, d).gamma_upper
                for d in (2.0, 5.0, 20.0, 80.0)]
    assert all(a > b for a, b in zip(ceilings, ceilings[1:]))


def test_thresholds_ordering_enforced():
    with pytest.raises(ValueError):
        Thresholds(gamma_lower=2.0, gamma_upper=1.0)
    with pytest.raises(ValueError):
        Thresholds(gamma_lower=-1.0, gamma_upper=1.0)


def test_slot_energies_square_law():
    # the detector squares each slot amplitude: a -1 pulse weighs like a +1
    code = code_from_line("1,0,-1")
    link = unity_link()
    tl = synthesize_timeline(code, link, noise_seed=0)
    cfg = ReceiverConfig(r=1, upsilon=10, backtrack_window_ns=0.0)
    out = backtrack_detect(tl, cfg, rng=np.random.default_rng(0))
    assert out.aggregates == pytest.approx((2.0,))


def test_plausibility_boundaries():
    thr = Thresholds(gamma_lower=2.0, gamma_upper=10.0)
    assert attack_plausibility([1.0, 0.5], thr) == PLAUSIBILITY_NOISE
    assert attack_plausibility([1.0, 1.0], thr) == PLAUSIBILITY_PLAUSIBLE
    assert attack_plausibility([5.0, 5.0], thr) == PLAUSIBILITY_PLAUSIBLE
    assert attack_plausibility([5.0, 6.0], thr) == PLAUSIBILITY_ENERGY_EXCEEDED
    assert attack_plausibility([4.0, 2.0], thr) == PLAUSIBILITY_PLAUSIBLE


def test_plausibility_reads_the_energy_gate():
    # plausible exactly where pass_ratios gives a row a ratio; a nan
    # aggregate lies outside the gate and over no ceiling, so it reads noise
    thr = Thresholds(gamma_lower=2.0, gamma_upper=10.0)
    cfg = ReceiverConfig(r=1, upsilon=10)
    for agg in (0.0, 1.999, 2.0, 6.0, 10.0, 10.001, math.inf, math.nan):
        row = np.array([[agg / 2, agg / 2]])
        ratio = receiver.pass_ratios(row, 1, thr, cfg, np.random.default_rng(0))[0]
        plausible = attack_plausibility(row[0], thr) == PLAUSIBILITY_PLAUSIBLE
        assert plausible == (not math.isnan(ratio)), agg
    assert attack_plausibility([math.nan, 1.0], thr) == PLAUSIBILITY_NOISE
    assert attack_plausibility([math.inf, 1.0], thr) == PLAUSIBILITY_ENERGY_EXCEEDED


def test_vote_clean_code_is_certain():
    params = small_params()
    code = generate_code(params, seed=1)
    tl = synthesize_timeline(code, unity_link(), noise_seed=0)
    energies = tl.amplitudes[tl.slot_bins(tl.start_bin)] ** 2
    cfg = ReceiverConfig(r=2, upsilon=200)
    ratio, is_code = robust_code_verification(energies, code, cfg, np.random.default_rng(0))
    assert ratio == 1.0 and is_code


def test_vote_silence_scores_zero():
    # ties lose: an all-zero window never looks like the code
    params = small_params()
    code = generate_code(params, seed=1)
    cfg = ReceiverConfig(r=2, upsilon=200)
    ratio, is_code = robust_code_verification(np.zeros(12), code, cfg,
                                              np.random.default_rng(0))
    assert ratio == 0.0 and not is_code


def test_vote_worked_quarter():
    # two pulse slots, two empty slots, r=1: the adversary cancelled one
    # pulse and filled one empty slot, so exactly one draw pair in four
    # passes and ties lose the rest
    code = code_from_line("1,0,-1,0")
    energies = np.array([0.0, 1.0, 1.0, 0.0])
    cfg = ReceiverConfig(r=1, upsilon=40000)
    ratio, is_code = robust_code_verification(energies, code, cfg, np.random.default_rng(3))
    assert ratio == pytest.approx(0.25, abs=0.01)
    assert not is_code


def test_vote_r_validation():
    code = code_from_line("1,0,-1,0")
    with pytest.raises(ValueError):
        robust_code_verification(np.zeros(4), code, ReceiverConfig(r=3),
                                 np.random.default_rng(0))


def test_vote_window_must_match_the_code():
    # a window of other than n slots is refused, naming both lengths: extra
    # slots are not dropped, and a short window is no IndexError
    code = code_from_line("1,0,-1,0")
    for energies, size in ((np.array([1.0, 0, 1, 0, 99.0]), 5), (np.zeros(3), 3)):
        with pytest.raises(ValueError, match="%d slots, the code 4" % size):
            robust_code_verification(energies, code, ReceiverConfig(r=1),
                                     np.random.default_rng(0))


def test_votes_need_the_callers_generator():
    # there is no default vote stream: every vote needs the caller's generator
    code = code_from_line("1,0,-1,0")
    link = unity_link()
    tl = synthesize_timeline(code, link, noise_seed=0)
    cfg = ReceiverConfig(r=1)
    with pytest.raises(TypeError):
        robust_code_verification(np.ones(4), code, cfg)
    with pytest.raises(TypeError):
        receiver.pass_ratios(np.ones((1, 4)), 2, Thresholds(0.0, 9.0), cfg)
    with pytest.raises(TypeError):
        backtrack_detect(tl, cfg)
    with pytest.raises(TypeError):
        ReceiverConfig(rng_seed=0)


# integer energies keep every subset sum exact, so ties are real ties
VOTE_ALPHA = np.array([[0.0, 0.0, 1.0, 3.0],   # whole-bin sums 4 > 3
                       [0.0, 0.0, 0.0, 0.0],   # silence: every vote ties
                       [1.0, 1.0, 0.0, 2.0]])  # whole-bin sums 4 = 4
VOTE_BETA = np.array([[0.0, 1.0, 2.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0],
                      [2.0, 0.0, 1.0, 1.0]])


def exact_pass_probability(e_alpha, e_beta, r):
    """Share of all (pulse r-subset, empty r-subset) pairs that pass strictly."""
    sums_a = [sum(c) for c in itertools.combinations(e_alpha, r)]
    sums_b = [sum(c) for c in itertools.combinations(e_beta, r)]
    wins = sum(a > b for a in sums_a for b in sums_b)
    return wins / (len(sums_a) * len(sums_b))


@pytest.mark.parametrize("block", [receiver.VOTE_BLOCK, 1])
@pytest.mark.parametrize("r", [1, 2, 4])
def test_vote_matches_exact_pass_probability(monkeypatch, r, block):
    # block 1 puts every row in its own block
    monkeypatch.setattr(receiver, "VOTE_BLOCK", block)
    upsilon = 20000
    passes = vote(VOTE_ALPHA, VOTE_BETA, r, upsilon, np.random.default_rng(5))
    assert passes.shape == (3,)
    for row, got in enumerate(passes):
        p = exact_pass_probability(VOTE_ALPHA[row], VOTE_BETA[row], r)
        se = math.sqrt(p * (1 - p) / upsilon)
        assert abs(got / upsilon - p) <= 4 * se
    if r == VOTE_ALPHA.shape[1]:
        # whole bins on both sides: no randomness left
        assert list(passes) == [upsilon, 0, 0]


def test_vote_rejects_oversized_sample():
    with pytest.raises(ValueError):
        vote(np.zeros((2, 3)), np.zeros((2, 5)), 4, 10, np.random.default_rng(0))
    assert vote(np.zeros((0, 3)), np.zeros((0, 5)), 2, 10, np.random.default_rng(0)).shape == (0,)


@st.composite
def vote_cases(draw, square=False):
    """Small integer-energy rows, so every subset sum is exact."""
    rows = draw(st.integers(1, 4))
    alpha = draw(st.integers(1, 6))
    beta = alpha if square else draw(st.integers(1, 6))
    r = min(alpha, beta) if square else draw(st.integers(1, min(alpha, beta)))
    energies = st.lists(st.integers(0, 5), min_size=rows * (alpha + beta),
                        max_size=rows * (alpha + beta))
    e = np.array(draw(energies), dtype=np.float64).reshape(rows, alpha + beta)
    return e[:, :alpha], e[:, alpha:], r, draw(st.integers(1, 30)), draw(st.integers(0, 2**32))


VOTE_PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)


@VOTE_PROPERTY
@given(vote_cases())
def test_vote_counts_within_upsilon(case):
    e_alpha, e_beta, r, upsilon, seed = case
    passes = vote(e_alpha, e_beta, r, upsilon, np.random.default_rng(seed))
    assert passes.shape == (len(e_alpha),)
    assert ((passes >= 0) & (passes <= upsilon)).all()


@VOTE_PROPERTY
@given(vote_cases(), st.data())
def test_vote_monotone_in_energies(case, data):
    # the index draws do not depend on the energies, so at one seed every
    # vote compares the same subsets before and after the raise
    e_alpha, e_beta, r, upsilon, seed = case
    before = vote(e_alpha, e_beta, r, upsilon, np.random.default_rng(seed))
    row = data.draw(st.integers(0, len(e_alpha) - 1))
    delta = data.draw(st.integers(1, 5))
    up_alpha = e_alpha.copy()
    up_alpha[row, data.draw(st.integers(0, e_alpha.shape[1] - 1))] += delta
    up_beta = e_beta.copy()
    up_beta[row, data.draw(st.integers(0, e_beta.shape[1] - 1))] += delta
    assert (vote(up_alpha, e_beta, r, upsilon, np.random.default_rng(seed)) >= before).all()
    assert (vote(e_alpha, up_beta, r, upsilon, np.random.default_rng(seed)) <= before).all()


@VOTE_PROPERTY
@given(vote_cases(square=True))
def test_vote_whole_bins_is_all_or_nothing(case):
    e_alpha, e_beta, r, upsilon, seed = case
    passes = vote(e_alpha, e_beta, r, upsilon, np.random.default_rng(seed))
    wins = e_alpha.sum(axis=1) > e_beta.sum(axis=1)
    assert passes.tolist() == np.where(wins, upsilon, 0).tolist()


@st.composite
def candidate_cases(draw):
    """Integer-energy candidate rows, some all-zero, with a window and some nan aggregates."""
    rows, alpha, beta = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = alpha + beta
    cells = st.lists(st.integers(0, 4), min_size=rows * n, max_size=rows * n)
    e = np.array(draw(cells), dtype=np.float64).reshape(rows, n)
    flags = st.lists(st.booleans(), min_size=rows, max_size=rows).map(np.array)
    e[draw(flags)] = 0.0
    # a floor of 0 lets all-zero rows through the gate
    lower = draw(st.just(0) | st.integers(1, 2 * n))
    thr = Thresholds(float(lower), float(lower + draw(st.integers(1, 3 * n))))
    perm = np.array(draw(st.permutations(range(n))))
    cfg = ReceiverConfig(r=draw(st.integers(1, min(alpha, beta))), upsilon=draw(st.integers(1, 30)))
    seed = draw(st.integers(0, 2**32))
    return (e, np.sort(perm[:alpha]), np.sort(perm[alpha:]), thr, cfg, seed,
            draw(st.none() | flags))  # rows whose aggregate reads nan: no candidate


@VOTE_PROPERTY
@given(candidate_cases())
def test_pass_ratios_gate_zero_rule_and_vote(case):
    e, bin_alpha, bin_beta, thr, cfg, seed, dropped = case
    agg = e.sum(axis=1)
    aggregates = None
    if dropped is not None:
        agg[dropped] = np.nan
        aggregates = agg
    # any code layout: the columns reordered pulse bin first, as backtracking does
    ratios = receiver.pass_ratios(e[:, np.concatenate([bin_alpha, bin_beta])], len(bin_alpha),
                                  thr, cfg, np.random.default_rng(seed), aggregates=aggregates)
    gated = (agg >= thr.gamma_lower) & (agg <= thr.gamma_upper)
    assert (np.isnan(ratios) == ~gated).all()
    assert (ratios[gated & (agg == 0.0)] == 0.0).all()
    voted = gated & (agg > 0.0)
    counts = ratios[voted] * cfg.upsilon
    assert ((counts >= 0) & (counts <= cfg.upsilon)).all()
    assert np.allclose(counts, np.rint(counts), rtol=0, atol=1e-9)
    # the voted rows go to vote() in row order, on the caller's generator
    rows = e[voted]
    passes = vote(rows[:, bin_alpha], rows[:, bin_beta], cfg.r, cfg.upsilon,
                  np.random.default_rng(seed))
    assert (ratios[voted] == passes / cfg.upsilon).all()


# chi-square quantiles at 1 - 1e-6 for 4 and 9 degrees of freedom
CHI2_CRIT = {4: 33.377, 9: 44.811}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_floyd_subsets_are_uniform(r):
    # powers of two make each subset sum name its subset
    e = np.array([[1.0, 2.0, 4.0, 8.0, 16.0]] * 10)
    sums = receiver._subset_sums(e, r, 5000, np.random.default_rng(11)).astype(int).ravel()
    subsets = [sum(2**i for i in c) for c in itertools.combinations(range(5), r)]
    counts = np.array([np.count_nonzero(sums == s) for s in subsets])
    assert counts.sum() == sums.size
    expected = sums.size / len(subsets)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_CRIT[len(subsets) - 1]


def reference_subset_sums(e, r, upsilon, rng):
    """The plain Floyd loop: a fresh index array and gather per step."""
    rows, n = e.shape
    pick = np.empty((r, rows, upsilon), dtype=np.int64)
    sums = np.zeros((rows, upsilon))
    for i in range(r):
        j = n - r + i
        t = rng.integers(0, j + 1, size=(rows, upsilon))
        if i:
            t = np.where((pick[:i] == t).any(axis=0), j, t)
        pick[i] = t
        sums += np.take_along_axis(e, t, axis=1)
    return sums


@pytest.mark.parametrize("r", [1, 2, 5, 8])
def test_subset_sums_match_reference(r):
    # same draws, same picks, same summation order: bit-identical sums. The
    # columns span eight decades, so a changed order would round differently,
    # and the input is a strided view
    e = (np.random.default_rng(r).random((7, 9)) * 10.0 ** np.arange(9))[:, 1:]
    got = receiver._subset_sums(e, r, 40, np.random.default_rng(3))
    assert np.array_equal(got, reference_subset_sums(e, r, 40, np.random.default_rng(3)))


def test_vote_memory_bounded_in_rows():
    # 3.3e6 sampled slots per bin; held at once they would take over 40 MB
    rng = np.random.default_rng(2)
    e_alpha, e_beta = rng.random((4096, 16)), rng.random((4096, 16))
    tracemalloc.start()
    try:
        vote(e_alpha, e_beta, 8, 100, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_backtrack_memory_bounded_at_n600():
    params = CodeParams(n=600, alpha=200, beta=400, r=8)
    code = generate_code(params, seed=0)
    link = LinkModel(d1_m=10.0, d2_m=0.0,
                     sigma_n2=worst_case_rx_power(LinkModel(d1_m=10.0)) / 64.0)
    tl = synthesize_timeline(code, link, noise_seed=1)
    tracemalloc.start()
    try:
        out = backtrack_detect(tl, ReceiverConfig(), d_committed_m=10.0,
                               rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the bound has to hold with plenty of candidates put to the vote
    assert np.count_nonzero(~np.isnan(out.pass_ratios)) >= 100
    assert peak < 20e6


def test_backtrack_honest_exact_toa():
    params = small_params()
    code = generate_code(params, seed=2)
    link = unity_link()
    tl = synthesize_timeline(code, link, noise_seed=0, lead_ns=40.0, tail_ns=60.0)
    cfg = ReceiverConfig(r=2, upsilon=100, backtrack_window_ns=40.0)
    out = backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                           rng=np.random.default_rng(0))
    assert out.verdict == VERDICT_ACCEPTED
    assert out.toa_ns == tl.start_bin * tl.tp_ns
    assert max(out.pass_ratios) == 1.0


def test_backtrack_finds_authentic_before_copy():
    params = small_params()
    code = generate_code(params, seed=2)
    link = unity_link()
    tl = synthesize_timeline(code, link, noise_seed=0, lead_ns=40.0, tail_ns=160.0)
    replayed = replay_frame(tl, 40.0, 3.0)
    assert replayed.lock_bin == tl.start_bin + 20
    cfg = ReceiverConfig(r=2, upsilon=100, backtrack_window_ns=60.0)
    out = backtrack_detect(replayed, cfg, d_committed_m=8.5,
                           rng=np.random.default_rng(0))
    assert out.verdict == VERDICT_ACCEPTED
    # both alignments verify; the earlier one is the authentic arrival
    assert out.toa_ns == tl.start_bin * tl.tp_ns
    accepted = [t for t, p in zip(out.candidate_toas_ns, out.pass_ratios)
                if p > cfg.p_noise_threshold]
    assert len(accepted) == 2


def test_backtrack_hot_copy_aborts():
    params = small_params()
    code = generate_code(params, seed=2)
    link = unity_link()
    tl = synthesize_timeline(code, link, noise_seed=0, lead_ns=40.0, tail_ns=160.0)
    replayed = replay_frame(tl, 40.0, 6.0)
    cfg = ReceiverConfig(r=2, upsilon=100, backtrack_window_ns=60.0)
    out = backtrack_detect(replayed, cfg, d_committed_m=8.5,
                           rng=np.random.default_rng(0))
    assert out.verdict == VERDICT_ATTACK
    # the scan stopped at the first hot candidate, the lock itself
    assert len(out.candidate_toas_ns) == 1


def test_backtrack_silence_finds_nothing():
    params = small_params()
    code = generate_code(params, seed=2)
    link = unity_link()
    bins = 40 + params.n * 50 + 30
    tl = FrameTimeline(amplitudes=np.zeros(bins), start_bin=20, lock_bin=20,
                       code=code, link=link)
    cfg = ReceiverConfig(r=2, upsilon=100, backtrack_window_ns=40.0)
    out = backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                           rng=np.random.default_rng(0))
    assert out.verdict == VERDICT_NO_CODE
    assert all(r == 0.0 for r in out.pass_ratios)


def test_backtrack_lattice_steps_one_bin():
    # candidates start at the lock and step back one bin, tp_ns, at a time:
    # int(window / tp) + 1 of them, or down to bin 0 on a shorter timeline
    link = unity_link()
    for tp_ns, window_ns, lock in itertools.product((1.0, 2.0, 3.0, 5.0),
                                                    (0.0, 40.0, 41.0), (60, 3)):
        params = CodeParams(n=12, alpha=4, beta=8, ts_ns=100.0, tp_ns=tp_ns, r=2)
        code = generate_code(params, seed=2)
        tl = FrameTimeline(amplitudes=np.zeros(lock + params.n * 200), start_bin=lock,
                           lock_bin=lock, code=code, link=link)
        cfg = ReceiverConfig(r=2, upsilon=10, backtrack_window_ns=window_ns)
        out = backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                               rng=np.random.default_rng(0))
        count = min(int(window_ns / tp_ns) + 1, lock + 1)
        assert np.array_equal(out.candidate_toas_ns, [(lock - i) * tp_ns for i in range(count)])
    for bad in (-2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="window"):
            ReceiverConfig(backtrack_window_ns=bad)


def test_backtrack_window_stops_short_of_a_slot_spacing():
    # a window of one slot spacing or more scans stride candidates, the lock
    # and stride - 1 earlier bins: a start a whole spacing back would read
    # the code shifted by whole slots, never an earlier arrival
    link = unity_link()
    params = small_params()
    code = generate_code(params, seed=2)
    lock = 400
    tl = FrameTimeline(amplitudes=np.zeros(lock + params.n * params.stride), start_bin=lock,
                       lock_bin=lock, code=code, link=link)
    for window_ns in (98.0, 100.0, 660.0):
        cfg = ReceiverConfig(r=2, upsilon=10, backtrack_window_ns=window_ns)
        out = backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                               rng=np.random.default_rng(0))
        assert np.array_equal(out.candidate_toas_ns, [(lock - i) * params.tp_ns
                                                      for i in range(params.stride)])


def test_backtrack_phase_flip_invariant():
    params = small_params()
    code = generate_code(params, seed=2)
    link = unity_link()
    tl = synthesize_timeline(code, link, noise_seed=0, lead_ns=40.0, tail_ns=60.0)
    flipped = dataclasses.replace(tl, amplitudes=-tl.amplitudes)
    cfg = ReceiverConfig(r=2, upsilon=100, backtrack_window_ns=40.0)
    a = backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                         rng=np.random.default_rng(0))
    b = backtrack_detect(flipped, cfg, d_committed_m=link.d1_m,
                         rng=np.random.default_rng(0))
    assert a.verdict == b.verdict and a.toa_ns == b.toa_ns


def test_backtrack_never_returns_later_than_lock():
    params = small_params()
    code = generate_code(params, seed=6)
    link = unity_link(sigma_n2=0.01)
    tl = synthesize_timeline(code, link, noise_seed=9, lead_ns=40.0, tail_ns=60.0)
    cfg = ReceiverConfig(r=1, upsilon=50, backtrack_window_ns=40.0)
    out = backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                           rng=np.random.default_rng(0))
    if out.verdict == VERDICT_ACCEPTED:
        assert out.toa_ns <= tl.lock_bin * tl.tp_ns


def test_lattice_and_dense_records_detect_alike():
    # a lattice record (10 bins of lead and 30 of tail around 50-bin slot
    # spacings) and a train from bin 0 holding the same amplitudes at the
    # same bins, zeros elsewhere, give the same outcome on the same votes,
    # before and after a replay
    params = small_params()
    link = unity_link(sigma_n2=0.05)
    cfg = ReceiverConfig(r=1, upsilon=50, backtrack_window_ns=40.0)
    for seed, delay_ns in itertools.product(range(4), (2.0, 20.0, 60.0)):
        code = generate_code(params, seed=seed)
        lattice = synthesize_timeline(code, link, noise_seed=seed, lead_ns=20.0, tail_ns=60.0)
        assert lattice.pitch == 41
        dense = np.zeros((params.n, params.stride))
        dense[:, :41] = lattice.amplitudes.reshape(params.n, 41)
        dense = FrameTimeline(amplitudes=dense.ravel(), start_bin=lattice.start_bin,
                              lock_bin=lattice.lock_bin, code=code, link=link)
        for a, b in ((lattice, dense), (replay_frame(lattice, delay_ns, 6.0),
                                        replay_frame(dense, delay_ns, 6.0))):
            assert a.lock_bin == b.lock_bin
            outs = [backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                                     rng=np.random.default_rng(seed)) for tl in (a, b)]
            for field in ("verdict", "toa_ns"):
                assert getattr(outs[0], field) == getattr(outs[1], field), field
            for field in ("candidate_toas_ns", "aggregates"):
                assert np.array_equal(getattr(outs[0], field), getattr(outs[1], field)), field
            assert np.array_equal(outs[0].pass_ratios, outs[1].pass_ratios, equal_nan=True)


BATCH_LINK = unity_link(sigma_n2=0.05)
BATCH_CFG = ReceiverConfig(r=1, upsilon=50, backtrack_window_ns=40.0)


def batch_votes(frames, codes, outs, seed):
    """vote() over the voted candidates of every frame, in frame order and then scan order.

    Each candidate's slot energies are read off its frame's record at the
    candidate's start; each frame's code splits them into its bins.
    """
    e_alpha, e_beta = [], []
    for tl, code, out in zip(frames, codes, outs):
        pulse, empty = bins(code)
        for toa, agg, ratio in zip(out.candidate_toas_ns, out.aggregates, out.pass_ratios):
            if not math.isnan(ratio) and agg > 0.0:
                e = tl.amplitudes[tl.slot_bins(round(toa / tl.tp_ns))] ** 2
                e_alpha.append(e[pulse])
                e_beta.append(e[empty])
    assert e_alpha, "no candidate was voted"
    return vote(np.array(e_alpha), np.array(e_beta), BATCH_CFG.r, BATCH_CFG.upsilon,
                np.random.default_rng(seed)) / BATCH_CFG.upsilon


def voted_ratios(outs):
    return [x for out in outs for x, agg in zip(out.pass_ratios, out.aggregates)
            if not math.isnan(x) and agg > 0.0]


def test_batch_votes_frames_in_order():
    # three frames of different codes, the last replayed: one vote() call
    # takes the voted candidates of the first frame, then the second, then
    # the third, each in scan order, on the caller's generator; scans and
    # aggregates are each frame's own
    params = small_params()
    for seed in range(4):
        codes = [generate_code(params, seed=10 * seed + i) for i in range(3)]
        frames = [synthesize_timeline(code, BATCH_LINK, noise_seed=10 * seed + i, lead_ns=40.0,
                                      tail_ns=60.0) for i, code in enumerate(codes)]
        frames[2] = replay_frame(frames[2], 20.0, 0.0)
        outs = backtrack_frames(frames, BATCH_CFG, BATCH_LINK.d1_m,
                                rng=np.random.default_rng(seed))
        assert len(outs) == 3
        for tl, out in zip(frames, outs):
            alone = backtrack_detect(tl, BATCH_CFG, BATCH_LINK.d1_m,
                                     rng=np.random.default_rng(seed))
            assert np.array_equal(out.candidate_toas_ns, alone.candidate_toas_ns)
            assert np.array_equal(out.aggregates, alone.aggregates)
        assert voted_ratios(outs) == batch_votes(frames, codes, outs, seed).tolist()


def test_batch_ceiling_abort_is_per_frame():
    # the first frame crosses the ceiling at candidate j: it ends as an
    # attack after j + 1 candidates, its first j still voted, and the second
    # frame is scanned and voted in full after them
    params = small_params()
    codes = [generate_code(params, seed=i) for i in range(2)]
    frames = [synthesize_timeline(code, BATCH_LINK, noise_seed=i, lead_ns=40.0, tail_ns=60.0)
              for i, code in enumerate(codes)]
    j = 5
    amps = frames[0].amplitudes.copy()
    amps[frames[0].slot_bins(frames[0].lock_bin - j)] += 3.0
    frames[0] = dataclasses.replace(frames[0], amplitudes=amps)
    outs = backtrack_frames(frames, BATCH_CFG, BATCH_LINK.d1_m,
                            rng=np.random.default_rng(7))
    assert outs[0].verdict == VERDICT_ATTACK
    assert len(outs[0].candidate_toas_ns) == j + 1 and math.isnan(outs[0].pass_ratios[j])
    assert len(outs[1].candidate_toas_ns) == int(40.0 / params.tp_ns) + 1
    assert outs[1].verdict != VERDICT_ATTACK
    assert voted_ratios(outs[:1]) and voted_ratios(outs[1:])
    assert voted_ratios(outs) == batch_votes(frames, codes, outs, 7).tolist()


def test_batch_needs_one_code_geometry_and_a_code_per_frame():
    codes = [generate_code(small_params(), seed=0),
             generate_code(CodeParams(n=12, alpha=5, beta=7, ts_ns=100.0, tp_ns=2.0, r=2), seed=0)]
    frames = [synthesize_timeline(code, BATCH_LINK, noise_seed=0, lead_ns=40.0) for code in codes]
    with pytest.raises(ValueError, match="geometry"):
        backtrack_frames(frames, BATCH_CFG, rng=np.random.default_rng(0))
    # each frame carries its code and link, and the batch's thresholds read
    # one link: frames of one geometry over two links are refused too
    other = dataclasses.replace(BATCH_LINK, d1_m=BATCH_LINK.d1_m + 1.0)
    frames = [synthesize_timeline(codes[0], link, noise_seed=0, lead_ns=40.0)
              for link in (BATCH_LINK, other)]
    with pytest.raises(ValueError, match="link"):
        backtrack_frames(frames, BATCH_CFG, rng=np.random.default_rng(0))
    # equal links need not be one object
    frames[1] = dataclasses.replace(frames[1], link=dataclasses.replace(BATCH_LINK))
    assert len(backtrack_frames(frames, BATCH_CFG, rng=np.random.default_rng(0))) == 2



def test_empty_batch_is_refused():
    with pytest.raises(ValueError, match="empty"):
        backtrack_frames([], BATCH_CFG, rng=np.random.default_rng(0))


def test_backtracking_reads_the_pulse_bin_first(monkeypatch):
    # the rows backtracking hands to pass_ratios hold each candidate's slot
    # energies in the order np.concatenate(bins(code)), beta = 0 included
    seen = []

    def capture(energies, alpha, thresholds, cfg, rng, aggregates=None):
        seen.append(energies)
        return np.full(len(energies), np.nan)

    monkeypatch.setattr(receiver, "pass_ratios", capture)
    rng = np.random.default_rng(24)
    for n in (1, 2, 5, 12, 31):
        for beta in sorted({0, n // 2, n - 1}):
            params = CodeParams(n=n, alpha=n - beta, beta=beta, ts_ns=100.0, tp_ns=2.0, r=1)
            for _ in range(4):
                code = generate_code(params, rng)
                tl = synthesize_timeline(code, BATCH_LINK, noise_seed=rng, lead_ns=40.0)
                seen.clear()
                out = backtrack_detect(tl, BATCH_CFG, rng=rng)
                starts = np.rint(out.candidate_toas_ns / params.tp_ns).astype(int)
                want = np.array([tl.amplitudes[tl.slot_bins(s)] ** 2 for s in starts])
                assert np.array_equal(seen[0], want[:, np.concatenate(bins(code))])

def test_outcome_csv_schema():
    params = small_params()
    code = generate_code(params, seed=2)
    link = unity_link()
    tl = synthesize_timeline(code, link, noise_seed=0, lead_ns=40.0, tail_ns=60.0)
    cfg = ReceiverConfig(r=2, upsilon=100, backtrack_window_ns=40.0)
    out = backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                           rng=np.random.default_rng(0))
    lines = outcome_to_csv(out).strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[1] == "candidate_toa_ns,aggregate,pass_ratio"
    assert len(lines) == 2 + len(out.candidate_toas_ns)
    # the whole text, a candidate that was not voted on included
    given = DetectionOutcome(VERDICT_NO_CODE, None, [4.0, 2.0, 0.0], [0.5, 12.25, 1e-9],
                             [0.75, math.nan, 1 / 3])
    assert outcome_to_csv(given) == (
        "# schema=1\ncandidate_toa_ns,aggregate,pass_ratio\n"
        "4,0.5,0.75\n2,12.25,nan\n0,1e-09,0.333333333333\n"
    )


def test_outcome_diagnostics_are_read_only():
    # every frame's diagnostics, a slice of the batch's, an outcome's empty
    # defaults and arrays given to it are float64 vectors that refuse writes
    params = small_params()
    codes = [generate_code(params, seed=i) for i in range(2)]
    frames = [synthesize_timeline(code, BATCH_LINK, noise_seed=i, lead_ns=40.0, tail_ns=60.0)
              for i, code in enumerate(codes)]
    outs = backtrack_frames(frames, BATCH_CFG, BATCH_LINK.d1_m,
                            rng=np.random.default_rng(0))
    given = np.zeros(3)
    built = DetectionOutcome(VERDICT_NO_CODE, None, given, given, given)
    for out in [*outs, DetectionOutcome(verdict=VERDICT_NO_CODE), built]:
        for name in ("candidate_toas_ns", "aggregates", "pass_ratios"):
            values = getattr(out, name)
            assert values.dtype == np.float64 and values.ndim == 1, name
            with pytest.raises(ValueError, match="read-only"):
                values[:1] = 0.0
    # the outcome freezes a view, not the caller's array
    given[0] = 1.0
    assert built.aggregates[0] == 1.0



def test_outcome_keeps_a_read_only_float64_array():
    frozen = np.arange(3.0)
    frozen.setflags(write=False)
    out = DetectionOutcome(VERDICT_NO_CODE, None, frozen, frozen, frozen)
    assert out.candidate_toas_ns is frozen and out.aggregates is frozen
    assert out.pass_ratios is frozen

@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32),
       st.sampled_from([0.0, 20.0, 60.0]))
def test_backtrack_accepts_nothing_later_than_lock(code_seed, noise_seed, vote_seed, delay_ns):
    # test_backtrack_never_returns_later_than_lock over random codes, noise,
    # votes and replay delays
    params = small_params()
    code = generate_code(params, seed=code_seed)
    link = unity_link(sigma_n2=0.01)
    tl = synthesize_timeline(code, link, noise_seed=noise_seed, lead_ns=40.0, tail_ns=100.0)
    if delay_ns:
        tl = replay_frame(tl, delay_ns, 6.0)
    cfg = ReceiverConfig(r=1, upsilon=50, backtrack_window_ns=40.0)
    out = backtrack_detect(tl, cfg, d_committed_m=link.d1_m,
                           rng=np.random.default_rng(vote_seed))
    if out.verdict == VERDICT_ACCEPTED:
        assert out.toa_ns <= tl.lock_bin * tl.tp_ns

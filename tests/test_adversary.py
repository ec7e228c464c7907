"""Attack planning and the replayed-copy timeline transformation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwblab.adversary import AttackPlan, plan_attack, plan_to_csv, replay_frame
from uwblab.channel import synthesize_timeline, unity_link
from uwblab.codec import CodeParams, bins, generate_code


def test_plan_validation():
    plan = AttackPlan(phases=(1, 0, 0, -1))
    assert plan.slots.tolist() == [0, 3]
    with pytest.raises(ValueError):
        AttackPlan(phases=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        AttackPlan(phases=(2, 0))


def test_replay_delay_inside_slot_spacing():
    # a copy one full slot spacing late would already show in the round trip;
    # the delay counts in whole 2 ns bins, 1 to 499 of them for a 500-bin stride
    code = generate_code(CodeParams(n=6, alpha=2, beta=4, r=1), seed=5)
    tl = synthesize_timeline(code, unity_link(), noise_seed=0)
    assert replay_frame(tl, 998.0, 6.0).lock_bin == tl.start_bin + 499
    assert replay_frame(tl, 1.1, 6.0).lock_bin == tl.start_bin + 1
    for delay_ns in (999.0, 1000.0, 0.0, 0.9, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="replay delay must round"):
            replay_frame(tl, delay_ns, 6.0)


def test_plan_attack_shape_and_determinism():
    params = CodeParams(n=18, alpha=5, beta=13, r=5)
    plan = plan_attack(params, k=10, seed=4)
    assert plan.k == 10
    assert plan.phases.shape == (18,)
    assert len(set(plan.slots)) == 10
    assert all(p in (-1, 1) for p in plan.phases[plan.slots])
    again = plan_attack(params, k=10, seed=4)
    assert np.array_equal(plan.slots, again.slots)
    assert np.array_equal(plan.phases, again.phases)
    with pytest.raises(ValueError):
        plan_attack(params, k=19)


def test_position_uniformity():
    params = CodeParams(n=4, alpha=2, beta=2, r=1)
    counts = {}
    trials = 60000
    for seed in range(trials):
        plan = plan_attack(params, k=2, seed=seed)
        counts[tuple(sorted(plan.slots))] = counts.get(tuple(sorted(plan.slots)), 0) + 1
    assert len(counts) == 6
    for pair, cnt in counts.items():
        assert abs(cnt / trials - 1 / 6) < 0.01, pair


def test_annihilation_probability():
    # random relative phase cancels an occupied slot half the time
    params = CodeParams(n=2, alpha=1, beta=1, r=1)
    code = generate_code(params, seed=0)
    occ = bins(code)[0][0]
    link = unity_link()
    cancelled = 0
    trials = 100000
    for seed in range(trials):
        plan = plan_attack(params, k=2, seed=seed)  # both slots hit
        tl = synthesize_timeline(code, link, attack=plan, noise_seed=0)
        cancelled += abs(tl.amplitudes[tl.slot_bins(tl.start_bin)[occ]]) < 1e-12
    assert abs(cancelled / trials - 0.5) < 0.01


def test_replay_frame_copy_and_lock():
    params = CodeParams(n=6, alpha=2, beta=4, ts_ns=100.0, tp_ns=2.0, r=1)
    code = generate_code(params, seed=5)
    tl = synthesize_timeline(code, unity_link(), noise_seed=0,
                             lead_ns=40.0, tail_ns=400.0)
    replayed = replay_frame(tl, 60.0, 6.0)
    shift = round(60.0 / 2.0)
    assert replayed.lock_bin == tl.start_bin + shift
    gain_amp = 10 ** (6.0 / 20.0)
    copy_bins = replayed.slot_bins(replayed.lock_bin)
    assert np.allclose(replayed.amplitudes[copy_bins],
                       gain_amp * code.slots.astype(float), atol=1e-9)
    # the authentic frame is still underneath
    auth_bins = replayed.slot_bins(tl.start_bin)
    assert np.allclose(replayed.amplitudes[auth_bins],
                       code.slots.astype(float), atol=1e-9)


def test_replay_without_gain_keeps_lock():
    params = CodeParams(n=6, alpha=2, beta=4, ts_ns=100.0, tp_ns=2.0, r=1)
    code = generate_code(params, seed=5)
    tl = synthesize_timeline(code, unity_link(), noise_seed=0,
                             lead_ns=40.0, tail_ns=400.0)
    assert replay_frame(tl, 60.0, -3.0).lock_bin == tl.start_bin


def test_plan_csv_schema():
    plan = plan_attack(CodeParams(n=10, alpha=3, beta=7, r=2), k=3, seed=1)
    lines = plan_to_csv(plan).strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[1] == "slot,phase"
    assert len(lines) == 5
    # the whole text, and the header alone when nothing is injected
    assert plan_to_csv(plan) == "# schema=1\nslot,phase\n4,1\n7,-1\n8,-1\n"
    empty = plan_attack(CodeParams(n=10, alpha=3, beta=7, r=2), k=0, seed=1)
    assert plan_to_csv(empty) == "# schema=1\nslot,phase\n"


@pytest.mark.parametrize("bad", [np.int8(2), np.int8(-2), np.int8(127), np.int8(-128),
                                 np.int64(255), 0.5], ids=str)
def test_plan_rejects_phase_outside_plus_minus_one(bad):
    # 0 is legal (no injection); abs(-128) is -128 in int8, and the int8
    # cast must neither wrap 255 to -1 nor truncate 0.5 to 0
    with pytest.raises(ValueError, match="phases"):
        AttackPlan(phases=np.array([1, 0, 0, bad], dtype=np.asarray(bad).dtype))


def test_plan_is_the_code_draw():
    # a plan of alpha injections is drawn exactly as the code with that seed
    params = CodeParams(n=18, alpha=5, beta=13, r=5)
    for seed in (0, 1, 7, 2**32 - 1, 2**40):
        assert np.array_equal(plan_attack(params, params.alpha, seed).phases,
                              generate_code(params, seed).slots)


def test_plan_accepts_zero_and_one_injection():
    assert AttackPlan(phases=np.zeros(6, dtype=np.int8)).k == 0
    assert AttackPlan(phases=()).k == 0
    one = AttackPlan(phases=(0, 0, 0, 0, 0, -1))
    assert one.k == 1 and one.slots.tolist() == [5]
    assert plan_attack(CodeParams(n=6, alpha=2, beta=4, r=1), k=0, seed=3).k == 0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 40), st.data(), st.integers(0, 2**32))
def test_plan_attack_invariants(n, data, seed):
    k = data.draw(st.integers(0, n))
    params = CodeParams(n=n, alpha=1, beta=n - 1, r=1)
    plan = plan_attack(params, k, seed=seed)
    assert plan.k == k
    assert plan.phases.shape == (n,)
    assert len(set(plan.slots.tolist())) == k
    assert all(0 <= s < n for s in plan.slots.tolist())
    assert set(plan.phases[plan.slots].tolist()) <= {-1, 1}
    assert int(np.count_nonzero(plan.phases)) == k
    again = plan_attack(params, k, seed=seed)
    assert plan_to_csv(again) == plan_to_csv(plan)

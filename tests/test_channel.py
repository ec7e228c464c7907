"""Path loss, link budget, and received-frame synthesis."""

import dataclasses
import math

import numpy as np
import pytest

from uwblab.adversary import AttackPlan, plan_attack, replay_frame
from uwblab.channel import (FrameTimeline, LinkModel, adversary_room, adversary_rx_power,
                            expected_rx_power, path_loss_db, power_ratio,
                            signal_to_csv, superpose, synthesize_timeline,
                            unity_link, worst_case_rx_power)
from uwblab.codec import CodeParams, code_from_line, generate_code

FIG_SENT = "0,-1,0,0,0,-1,1,0,0,0,0,0,1,0,-1,0,0,0"
FIG_RECEIVED = [1, 0, 0, 0, -1, -1, 2, -1, 1, 0, 0, -1, 2, 0, -1, 0, -1, -1]
FIG_INJECTED = (1, 1, 0, 0, -1, 0, 1, -1, 1, 0, 0, -1, 1, 0, 0, 0, -1, -1)


def frame_amps(code, link, **kwargs):
    """The authentic frame's slot amplitudes, read off its timeline."""
    tl = synthesize_timeline(code, link, **kwargs)
    return tl.amplitudes[tl.slot_bins(tl.start_bin)]


def test_path_loss_values():
    assert abs(path_loss_db(1.0) + 46.413943352) < 1e-8
    assert abs(path_loss_db(4.0) + 58.455143179) < 1e-8
    assert abs(path_loss_db(8.5) + 65.002321867) < 1e-8
    with pytest.raises(ValueError):
        path_loss_db(0.0)
    with pytest.raises(ValueError):
        path_loss_db(-3.0)


def test_power_ratio_and_rx_power():
    assert abs(power_ratio(8.5) - 3.160587465e-07) < 1e-15
    # best case at the faked 8.5 m distance; worst case and adversary at
    # their own geometry: the three worked link-budget numbers
    assert abs(expected_rx_power(7.67, 8.5) - 2.424170586e-06) < 1e-14
    assert abs(expected_rx_power(7.67, 4.0, -10.0) - 1.094664530e-06) < 1e-14
    assert abs(expected_rx_power(15.77, 6.0, -10.0) - 1.000310569e-06) < 1e-14


def test_rx_power_monotone_in_distance():
    d = np.linspace(0.5, 120.0, 400)
    p = np.array([expected_rx_power(7.67, x) for x in d])
    assert np.all(np.diff(p) < 0)


def test_adversary_room_landmarks():
    r_db, zeta = adversary_room(4.0, 4.5, -10.0)
    assert abs(r_db - 3.452821312) < 1e-8
    assert abs(zeta - 10 ** (r_db / 10.0)) < 1e-12
    # adding no distance leaves only the degradation term
    r0, z0 = adversary_room(7.0, 0.0, -10.0)
    assert abs(r0 - 10.0) < 1e-12 and abs(z0 - 10.0) < 1e-12
    # the zero-room geometry
    assert abs(adversary_room(15.11, 32.68, -10.0)[0]) < 0.05


def test_adversary_room_decreasing_in_d2():
    rooms = [adversary_room(10.0, d2, -10.0)[0] for d2 in (0.0, 5.0, 20.0, 60.0)]
    assert all(a > b for a, b in zip(rooms, rooms[1:]))
    assert all(adversary_room(10.0, d2, -10.0)[1] > 0 for d2 in (0.0, 80.0, 500.0))


def test_link_model_powers():
    link = LinkModel()
    assert abs(worst_case_rx_power(link) - 1.094664530e-06) < 1e-14
    assert abs(adversary_rx_power(link) - 1.000310569e-06) < 1e-14


def test_synthesize_timeline_clean():
    params = CodeParams(n=20, alpha=6, beta=14, r=6)
    code = generate_code(params, seed=1)
    link = unity_link()
    amps = frame_amps(code, link, noise_seed=0)
    assert np.allclose(amps, code.slots.astype(float), atol=1e-9)


def test_unity_link_scale():
    link = unity_link()
    assert abs(worst_case_rx_power(link) - 1.0) < 1e-12
    assert abs(adversary_rx_power(link) - 1.0) < 1e-12


def test_figure_received_row():
    # the worked end-to-end superposition: 10 injections, 3 annihilate,
    # 2 amplify, 5 land on empty slots
    code = code_from_line(FIG_SENT)
    plan = AttackPlan(phases=FIG_INJECTED)
    assert plan.k == 10
    amps = frame_amps(code, unity_link(), attack=plan, noise_seed=0)
    assert np.allclose(amps, FIG_RECEIVED, atol=1e-9)
    energies = amps ** 2
    assert abs(float(energies.sum()) - 17.0) < 1e-9


def test_superposition_cases():
    # matched powers: annihilation to 0, amplification to (2A)^2 = 4A^2
    line = "1,0"
    code = code_from_line(line)
    link = unity_link()
    cancel = AttackPlan(phases=(-1, 0))
    double = AttackPlan(phases=(1, 0))
    empty = AttackPlan(phases=(0, 1))
    assert abs(frame_amps(code, link, attack=cancel)[0]) < 1e-9
    assert abs(frame_amps(code, link, attack=double)[0] ** 2 - 4.0) < 1e-9
    assert abs(frame_amps(code, link, attack=empty)[1] ** 2 - 1.0) < 1e-9
    with pytest.raises(ValueError, match="length"):
        synthesize_timeline(code, link, attack=AttackPlan(phases=(1, 0, -1)))


def test_superpose_rows_are_the_pipeline_frames():
    # the attack metric superposes whole chunks of frames; each row must be
    # the frame the session pipeline lays on its timeline and replays, at a
    # link whose adversary and authentic pulses differ in power
    link = LinkModel()
    assert adversary_rx_power(link) != worst_case_rx_power(link) and link.sigma_n2 == 0
    params = CodeParams(n=12, alpha=4, beta=8, r=2)
    codes = [generate_code(params, seed) for seed in range(6)]
    plans = [plan_attack(params, k, seed=k) for k in (0, 1, 3, 6, 9, 12)]
    signs = np.array([code.slots for code in codes])
    phases = np.array([plan.phases for plan in plans])
    gain_db, delay_ns = 6.0, 200.0
    # the metric passes float64 rows, the pipeline int8 vectors; one call per frame
    for dtype in (np.int8, np.float64):
        received = superpose(link, signs.astype(dtype), phases.astype(dtype), 0.0)
        replayed = superpose(link, signs.astype(dtype), 0, gain_db)
        for code, plan, rx, copy in zip(codes, plans, received, replayed):
            tl = synthesize_timeline(code, link, attack=plan)
            assert np.array_equal(rx, tl.amplitudes[tl.slot_bins(tl.start_bin)])
            shift = round(delay_ns / tl.tp_ns)
            replay = replay_frame(tl, delay_ns, gain_db)
            assert np.array_equal(copy, replay.amplitudes[replay.slot_bins(tl.start_bin + shift)])



@pytest.mark.parametrize("gain_db", [0.0, 6.0])
@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_scalar_zero_phases_match_a_zero_phase_row(dtype, gain_db):
    # the scalar 0 skips the adversary term; signs times a positive amplitude
    # is never -0.0, so adding 0.0 would have changed no bit
    link = LinkModel()
    params = CodeParams(n=12, alpha=4, beta=8, r=2)
    signs = np.array([generate_code(params, seed).slots for seed in range(6)]).astype(dtype)
    skipped = superpose(link, signs, 0, gain_db)
    added = superpose(link, signs, np.zeros_like(signs), gain_db)
    assert skipped.dtype == added.dtype == np.float64
    assert skipped.tobytes() == added.tobytes()


def test_link_amplitudes_are_kept_outside_eq_hash_and_repr():
    link = LinkModel(d1_m=7.0, sigma_n2=1e-7)
    assert link.auth_amp == math.sqrt(worst_case_rx_power(link))
    assert link.adv_amp == math.sqrt(adversary_rx_power(link))
    # a replaced link computes its own amplitudes
    moved = dataclasses.replace(link, d3_m=2.0, p_sent=3.0)
    assert moved.auth_amp == math.sqrt(worst_case_rx_power(moved)) != link.auth_amp
    assert moved.adv_amp == math.sqrt(adversary_rx_power(moved)) != link.adv_amp
    # a link whose amplitudes were never read equals the warmed one
    cold = LinkModel(d1_m=7.0, sigma_n2=1e-7)
    assert "auth_amp" not in vars(cold) and "auth_amp" in vars(link)
    assert cold == link and hash(cold) == hash(link) and repr(cold) == repr(link)

def test_noise_statistics():
    params = CodeParams(n=4000, alpha=1000, beta=3000)
    code = generate_code(params, seed=2)
    link = unity_link(sigma_n2=0.25)
    noise = frame_amps(code, link, noise_seed=5) - frame_amps(code, unity_link())
    assert abs(float(noise.mean())) < 0.05
    assert abs(float(noise.var()) - 0.25) < 0.02


def test_lattice_noise_statistics():
    # 11-bin reaches around 50-bin slot spacings: the record keeps n rows of
    # 11 bins, and every kept bin draws N(0, sigma^2), in bin order, in one call
    params = CodeParams(n=4000, alpha=1000, beta=3000, ts_ns=100.0, tp_ns=2.0, r=1)
    code = generate_code(params, seed=2)
    reach = dict(lead_ns=10.0, tail_ns=10.0)
    tl = synthesize_timeline(code, unity_link(sigma_n2=0.25), noise_seed=5, **reach)
    clean = synthesize_timeline(code, unity_link(), **reach)
    assert tl.pitch == 11 and len(tl.amplitudes) == params.n * 11
    noise = tl.amplitudes - clean.amplitudes
    assert np.allclose(noise, np.random.default_rng(5).normal(0.0, 0.5, params.n * 11),
                       rtol=0, atol=1e-12)
    assert abs(float(noise.mean())) < 0.05
    assert abs(float(noise.var()) - 0.25) < 0.02


def test_contiguous_record_is_a_prefix_of_the_dense_train():
    # reaches that meet keep one train from bin 0 to the last slot plus the
    # tail, drawn as the first bins of one noise stream
    params = CodeParams(n=6, alpha=2, beta=4, ts_ns=100.0, tp_ns=2.0, r=1)
    link = unity_link(sigma_n2=0.25)
    tl = synthesize_timeline(generate_code(params, seed=3), link,
                             noise_seed=4, lead_ns=40.0, tail_ns=60.0)
    assert tl.pitch == params.stride and len(tl.amplitudes) == 20 + 5 * 50 + 31
    dense = np.random.default_rng(4).normal(0.0, 0.5, size=20 + 6 * 50 + 30)
    off_slot = np.ones(len(tl.amplitudes), dtype=bool)
    off_slot[tl.slot_bins(tl.start_bin)] = False
    assert np.array_equal(tl.amplitudes[off_slot], dense[:len(tl.amplitudes)][off_slot])


@pytest.mark.parametrize("bad", [-90.0, -10.0, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("name", ["lead_ns", "tail_ns"])
def test_timeline_refuses_bad_reach(name, bad):
    params = CodeParams(n=6, alpha=2, beta=4, ts_ns=100.0, tp_ns=2.0, r=1)
    with pytest.raises(ValueError, match=name):
        synthesize_timeline(generate_code(params, seed=3), unity_link(), **{name: bad})


def test_lattice_refuses_reads_outside_the_record():
    # 10 bins of lead and 20 of tail around 50-bin slot spacings: frame
    # starts 0..30 are held, and no read wraps into the next slot's row
    params = CodeParams(n=6, alpha=2, beta=4, ts_ns=100.0, tp_ns=2.0, r=1)
    code = generate_code(params, seed=3)
    tl = synthesize_timeline(code, unity_link(), lead_ns=20.0, tail_ns=40.0)
    assert (tl.start_bin, tl.pitch, len(tl.amplitudes)) == (10, 31, 6 * 31)
    assert np.allclose(tl.amplitudes[tl.slot_bins(tl.start_bin)], code.slots, atol=1e-9)
    assert tl.slot_bins(30).tolist() == [30 + 31 * i for i in range(6)]
    for start in (-1, 31, 60):
        with pytest.raises(ValueError, match="too short"):
            tl.slot_bins(start)
    assert replay_frame(tl, 40.0, 6.0).lock_bin == 30
    with pytest.raises(ValueError, match="too short"):
        replay_frame(tl, 42.0, 6.0)


def test_timeline_leaves_the_callers_array_writeable():
    # the timeline holds a read-only view of the array it is given, not a copy
    params = CodeParams(n=6, alpha=2, beta=4, ts_ns=100.0, tp_ns=2.0, r=1)
    code = generate_code(params, seed=3)
    amps = np.zeros(20 + 6 * params.stride)
    tl = FrameTimeline(amplitudes=amps, start_bin=20, lock_bin=20, code=code, link=unity_link())
    amps[20] = 1.0
    assert tl.amplitudes[20] == 1.0 and np.shares_memory(tl.amplitudes, amps)
    with pytest.raises(ValueError, match="read-only"):
        tl.amplitudes[20] = 2.0
    replayed = replay_frame(tl, 20.0, 6.0)
    assert amps.flags.writeable and not replayed.amplitudes.flags.writeable


def test_signal_csv_schema():
    code = code_from_line("1,0,-1")
    text = signal_to_csv(frame_amps(code, unity_link()))
    lines = text.strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[1] == "slot_index,amplitude,energy"
    assert len(lines) == 5
    # the whole text of a noisy frame
    noisy = frame_amps(code, unity_link(sigma_n2=0.01), noise_seed=4)
    assert signal_to_csv(noisy) == (
        "# schema=1\nslot_index,amplitude,energy\n"
        "0,0.750237171264,0.562855813146\n"
        "1,0.0129736175537,0.000168314752429\n"
        "2,-1.09465725248,1.1982745004\n"
    )


def test_timeline_layout():
    params = CodeParams(n=6, alpha=2, beta=4, ts_ns=100.0, tp_ns=2.0, r=1)
    code = generate_code(params, seed=3)
    link = unity_link()
    tl = synthesize_timeline(code, link, noise_seed=0, lead_ns=40.0, tail_ns=60.0)
    assert params.stride == 50
    assert tl.start_bin == 20
    assert tl.lock_bin == tl.start_bin
    slot_bins = tl.slot_bins(tl.start_bin)
    assert np.allclose(tl.amplitudes[slot_bins], code.slots.astype(float), atol=1e-9)
    # off-slot bins stay silent in a noiseless channel
    mask = np.ones(len(tl.amplitudes), dtype=bool)
    mask[slot_bins] = False
    assert np.all(tl.amplitudes[mask] == 0.0)

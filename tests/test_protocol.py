"""Full ranging sessions: honest verification, replay alarms, the fail-closed rule."""

import dataclasses
import math

import numpy as np
import pytest

from uwblab import protocol
from uwblab.adversary import plan_attack
from uwblab.channel import (SPEED_OF_LIGHT_M_PER_NS, LinkModel, synthesize_timeline,
                            worst_case_rx_power)
from uwblab.codec import CodeParams, generate_code
from uwblab.protocol import PHASE_ALARMED, PHASE_VERIFIED, run_session, session_trace
from uwblab.receiver import (
    REASON_ENERGY,
    REASON_RANGE,
    REASON_TOF,
    VERDICT_ACCEPTED,
    VERDICT_ATTACK,
    VERDICT_NO_CODE,
    DetectionOutcome,
    ReceiverConfig,
    backtrack_detect,
    backtrack_frames,
    outcome_to_csv,
)

PARAMS = CodeParams(n=12, alpha=4, beta=8, ts_ns=100.0, tp_ns=2.0, r=2)
RCV = ReceiverConfig(r=1, upsilon=25, backtrack_window_ns=220.0)


def honest_link(d1=10.0):
    return LinkModel(d1_m=d1, d2_m=0.0, e_db=-10.0, sigma_n2=0.0)


def replay_link():
    # per-pulse room R(60 m, +30 m, -10 dB) is about 6.5 dB, so the default
    # 6 dB replay gain keeps the delayed copy plausible at the fake distance
    return LinkModel(d1_m=60.0, d2_m=30.0, e_db=-10.0, sigma_n2=0.0)


def test_honest_session_verifies_exactly():
    for seed in range(3):
        state = run_session(PARAMS, honest_link(), seed=seed, receiver=RCV)
        assert state.phase == PHASE_VERIFIED
        assert state.alarm_reason is None
        assert abs(state.t_commit_tof_ns - state.t_verify_tof_ns) <= 1e-9
        assert state.t_commit_tof_ns == pytest.approx(10.0 / SPEED_OF_LIGHT_M_PER_NS)


def test_default_receiver_fits_a_small_empty_bin():
    # the default sample size is capped by both bins: r = min(8, alpha) = 8
    # would exceed the two-slot empty bin
    params = CodeParams(n=12, alpha=10, beta=2, ts_ns=100.0, tp_ns=2.0, r=2)
    state = run_session(params, LinkModel(d1_m=10.0, d2_m=0.0), seed=1)
    assert state.phase == PHASE_VERIFIED
    assert state.t_verify_tof_ns == pytest.approx(state.t_commit_tof_ns)


def test_default_window_never_accepts_a_whole_slot_alias():
    # the default 660 ns window spans 6.6 slot spacings of 100 ns; with
    # pulses in 10 of 12 slots, a start whole slots early reads the code
    # shifted onto mostly pulse slots, so backtracking stops short of it
    params = CodeParams(n=12, alpha=10, beta=2, ts_ns=100.0, tp_ns=2.0, r=2)
    for seed in range(200):
        state = run_session(params, LinkModel(d1_m=10.0, d2_m=0.0), seed=seed)
        assert state.phase == PHASE_VERIFIED, (seed, state.alarm_reason)


def test_replay_session_alarms_on_tof_mismatch():
    for seed in range(3):
        state = run_session(PARAMS, replay_link(), seed=seed,
                            replay_delay_ns=60.0, replay_gain_db=6.0,
                            receiver=RCV)
        assert state.phase == PHASE_ALARMED
        assert state.alarm_reason == REASON_TOF


def test_replay_rounding_to_a_whole_spacing_is_refused():
    # backtracking stops one bin short of a slot spacing, so a replayed copy
    # must land short of it too: 99.5 ns over 2 ns bins rounds to the whole
    # 50-bin stride and is refused; 98.9 ns, 49 bins late, still alarms
    for seed in range(3):
        with pytest.raises(ValueError, match="slot spacing"):
            run_session(PARAMS, replay_link(), seed=seed, replay_delay_ns=99.5,
                        replay_gain_db=6.0, receiver=RCV)
        state = run_session(PARAMS, replay_link(), seed=seed, replay_delay_ns=98.9,
                            replay_gain_db=6.0, receiver=RCV)
        assert state.phase == PHASE_ALARMED
        assert state.alarm_reason == REASON_TOF


def test_replay_delay_must_be_finite_and_nonnegative():
    # a nan or negative delay must not pass for "no replay" and run an honest session
    for delay_ns in (math.nan, -200.0, -math.inf, math.inf):
        with pytest.raises(ValueError, match="replay_delay_ns"):
            run_session(PARAMS, replay_link(), seed=0, k=3, replay_delay_ns=delay_ns,
                        receiver=RCV)


def test_overdriven_replay_alarms_on_energy():
    state = run_session(PARAMS, replay_link(), seed=0,
                        replay_delay_ns=60.0, replay_gain_db=12.0,
                        receiver=RCV)
    assert state.phase == PHASE_ALARMED
    assert state.alarm_reason == REASON_ENERGY


def test_commitment_beyond_range_alarms(frame_calls):
    state = run_session(PARAMS, replay_link(), seed=0,
                        replay_delay_ns=60.0, max_range_m=65.0,
                        receiver=RCV)
    # committed distance 60 + 60 ns * c / 2 is about 69 m, past the 65 m ceiling
    assert state.phase == PHASE_ALARMED
    assert state.alarm_reason == REASON_RANGE
    assert state.t_verify_tof_ns is None
    assert frame_calls == []  # the range alarm detects no frame


def test_no_code_fails_closed(monkeypatch):
    # a response with no verifiable code has no arrival to corroborate the commitment
    def no_code_response(timelines, *args, **kwargs):
        return [backtrack_frames(timelines, *args, **kwargs)[0],
                DetectionOutcome(verdict=VERDICT_NO_CODE)]

    monkeypatch.setattr(protocol, "backtrack_frames", no_code_response)
    state = run_session(PARAMS, honest_link(), seed=1, receiver=RCV)
    assert state.phase == PHASE_ALARMED
    assert state.alarm_reason == REASON_TOF
    assert state.t_verify_tof_ns is None
    assert session_trace(state).endswith("frame response: no_code_found\nalarm: tof_mismatch\n")


def test_attacked_challenge_alarms_before_the_response_is_read(monkeypatch):
    # the response carries no time of arrival, so reading it would raise
    def attacked_challenge(timelines, *args, **kwargs):
        return [DetectionOutcome(verdict=VERDICT_ATTACK), DetectionOutcome(verdict=VERDICT_ACCEPTED)]

    monkeypatch.setattr(protocol, "backtrack_frames", attacked_challenge)
    state = run_session(PARAMS, honest_link(), seed=1, receiver=RCV)
    assert state.phase == PHASE_ALARMED
    assert state.alarm_reason == REASON_ENERGY
    assert state.t_verify_tof_ns is None
    assert session_trace(state).endswith(
        "frame challenge: attack_detected\nframe response: code_accepted\nalarm: energy_exceeded\n")


def test_session_trace_lines():
    honest = run_session(PARAMS, honest_link(), seed=1, receiver=RCV)
    text = session_trace(honest)
    assert "commit: t_tof=" in text
    assert "verified" in text.strip().split("\n")[-1]
    attacked = run_session(PARAMS, replay_link(), seed=1,
                           replay_delay_ns=60.0, receiver=RCV)
    assert "alarm: tof_mismatch" in session_trace(attacked)


# -- session stream pin ---------------------------------------------------------
# C11's geometry in three modes. The literal texts and counts below pin
# every generator call of a session (codes, noise, attack plan, votes); the
# noiseless honest mode pins the session flow only. A change that moves a
# session stream must update them and say so in CHANGES.md.

PIN_PARAMS = CodeParams(n=12, alpha=4, beta=8, r=2)
PIN_NOISY = LinkModel(
    d1_m=60.0, d2_m=30.0, e_db=-10.0,
    sigma_n2=worst_case_rx_power(LinkModel(d1_m=60.0, e_db=-10.0)) / 64.0)
PIN_MODES = {
    "honest": dict(link=honest_link()),
    "replay_k0": dict(link=PIN_NOISY, k=0, replay_delay_ns=200.0, replay_gain_db=6.0),
    "replay_k3": dict(link=PIN_NOISY, k=3, replay_delay_ns=200.0, replay_gain_db=6.0),
}
CSV_HEAD = "# schema=1\ncandidate_toa_ns,aggregate,pass_ratio\n"
PIN_SEED = 7
PIN_TRACE = {
    "honest": "commit: t_tof=33.3556 ns (d=10.000 m)\nframe challenge: code_accepted\n"
              "frame response: code_accepted\nverify: t_tof=33.3556 ns\nverified\n",
    "replay_k0": "commit: t_tof=300.1334 ns (d=89.980 m)\nframe challenge: code_accepted\n"
                 "frame response: code_accepted\nverify: t_tof=200.1334 ns\n"
                 "alarm: tof_mismatch\n",
    "replay_k3": "commit: t_tof=300.1334 ns (d=89.980 m)\nframe challenge: code_accepted\n"
                 "frame response: attack_detected\nalarm: energy_exceeded\n",
}
PIN_RESPONSE_CSV = {
    "honest": CSV_HEAD + "220,7.00585299248e-07,1\n"
              + "".join("%d,0,0\n" % t for t in range(218, -1, -2)),
    "replay_k0": CSV_HEAD + """\
420,7.95198395396e-08,1
418,4.51348909096e-10,nan
416,9.33347333773e-10,0.76
414,6.70740723544e-10,nan
412,9.90473946747e-10,0.4
410,4.52512728398e-10,nan
408,9.34373835723e-10,0.4
406,3.76892873389e-10,nan
404,6.54942972635e-10,nan
402,8.48914170154e-10,nan
400,1.05138952835e-09,0.44
398,8.65704025053e-10,nan
396,1.57808400337e-09,0.44
394,6.28995422351e-10,nan
392,6.27878760756e-10,nan
390,1.33653723279e-09,0.72
388,8.45038815818e-10,nan
386,1.78243321601e-09,0.64
384,1.03544757892e-09,0.16
382,7.86838599737e-10,nan
380,9.33848968446e-10,0.4
378,9.46594890601e-10,0.08
376,6.85248420175e-10,nan
374,9.59630729993e-10,0.4
372,7.78887775471e-10,nan
370,8.1872329185e-10,nan
368,1.03230596795e-09,0.4
366,8.01552902343e-10,nan
364,8.74490646425e-10,nan
362,1.06916236064e-09,0.44
360,1.04009595034e-09,0.52
358,1.14311707131e-09,0.28
356,9.47274457705e-10,0.36
354,9.60042731455e-10,0.44
352,5.41697656646e-10,nan
350,1.02463950865e-09,0.68
348,9.67687180388e-10,0.52
346,7.73256450773e-10,nan
344,1.20269798232e-09,0.68
342,1.1098116396e-09,0.92
340,9.53317982924e-10,0.36
338,5.80266289314e-10,nan
336,1.55949753673e-09,0.44
334,5.75969315233e-10,nan
332,1.06829955154e-09,0.36
330,9.98158852011e-10,0.24
328,1.09474477784e-09,0.08
326,4.6055162268e-10,nan
324,1.97566155451e-09,0.56
322,1.23022163961e-09,0.92
320,9.06812932436e-10,nan
318,6.85201594534e-10,nan
316,7.06120935699e-10,nan
314,1.57205567437e-09,0.36
312,5.6693907594e-10,nan
310,8.53197377026e-10,nan
308,1.49900513381e-09,0.2
306,4.10325919718e-10,nan
304,1.84785825113e-09,0.88
302,8.21479211427e-10,nan
300,1.08853120989e-09,0.16
298,1.04561851642e-09,0.4
296,9.39607644401e-10,0.68
294,9.16441246401e-10,0.56
292,1.02282747663e-09,0.24
290,6.05616190132e-10,nan
288,1.24130083644e-09,0.64
286,1.17585354502e-09,1
284,6.89755070105e-10,nan
282,6.52970211292e-10,nan
280,1.22495994306e-09,0.8
278,1.01846735138e-09,0.16
276,7.01283005247e-10,nan
274,6.98007789314e-10,nan
272,6.79508453474e-10,nan
270,1.02221072434e-09,0.28
268,1.58051545659e-09,0.52
266,2.90510301826e-10,nan
264,3.67782959447e-10,nan
262,2.38991378174e-10,nan
260,4.76280586338e-10,nan
258,1.20695159774e-09,0.2
256,6.86406280222e-10,nan
254,6.2949188999e-10,nan
252,5.6294047493e-10,nan
250,4.65499137008e-10,nan
248,1.13040263062e-09,0.32
246,6.31726468133e-10,nan
244,7.64098409292e-10,nan
242,3.83580343273e-10,nan
240,7.92220215125e-10,nan
238,7.51052894213e-10,nan
236,1.53083907599e-09,0.52
234,1.08063612599e-09,0.48
232,9.21550023758e-10,0.12
230,8.42479217394e-10,nan
228,9.69135868819e-10,0.12
226,1.67935160256e-09,0.76
224,6.75762180015e-10,nan
222,6.0173494634e-10,nan
220,2.02656024919e-08,1
218,1.06912518606e-09,0.2
216,6.73400540992e-10,nan
214,8.36523318546e-10,nan
212,9.15690137032e-10,0.64
210,3.05169631927e-10,nan
208,9.8211679084e-10,0.36
206,7.40383248124e-10,nan
204,1.17268520243e-09,0.28
202,1.74965913433e-09,0.24
200,9.90544852505e-10,0.4
""",
    "replay_k3": CSV_HEAD + "220,2.99097478296e-06,nan\n",
}
# over seeds 0..99: (phase, alarm reason) counts and the vote passes summed
# over both frames of every session
PIN_COUNTS = {
    "honest": ({(PHASE_VERIFIED, None): 100}, 5000),
    "replay_k0": ({(PHASE_ALARMED, REASON_TOF): 100}, 128983),
    "replay_k3": ({(PHASE_ALARMED, REASON_ENERGY): 100}, 63272),
}


@pytest.fixture
def frame_calls(monkeypatch):
    """(code slots, DetectionOutcome, timeline) of every frame run_session detects, in order."""
    calls = []

    def capture(timelines, *args, **kwargs):
        outcomes = backtrack_frames(timelines, *args, **kwargs)
        calls.extend((tl.code.slots, o, tl) for o, tl in zip(outcomes, timelines))
        return outcomes

    monkeypatch.setattr(protocol, "backtrack_frames", capture)
    return calls


def _pinned_session(mode, seed, frame_calls, receiver=RCV):
    frame_calls.clear()
    mode_kw = dict(PIN_MODES[mode])
    return run_session(PIN_PARAMS, mode_kw.pop("link"), seed=seed, receiver=receiver, **mode_kw)


@pytest.mark.parametrize("mode", sorted(PIN_MODES))
def test_session_stream_pin(frame_calls, mode):
    state = _pinned_session(mode, PIN_SEED, frame_calls)
    assert len(frame_calls) == 2
    assert session_trace(state) == PIN_TRACE[mode]
    assert outcome_to_csv(frame_calls[1][1]) == PIN_RESPONSE_CSV[mode]

    counts, passes = {}, 0
    for seed in range(100):
        state = _pinned_session(mode, seed, frame_calls)
        key = (state.phase, state.alarm_reason)
        counts[key] = counts.get(key, 0) + 1
        passes += sum(round(x * RCV.upsilon) for _, o, _ in frame_calls
                      for x in o.pass_ratios if not math.isnan(x))
    assert (counts, passes) == PIN_COUNTS[mode]


# -- draw order -------------------------------------------------------------------

@pytest.mark.parametrize("mode", sorted(PIN_MODES))
def test_frames_are_drawn_before_any_vote(frame_calls, mode):
    # the vote count moves no frame: codes, candidates and aggregates match
    frames = []
    for upsilon in (25, 50):
        _pinned_session(mode, PIN_SEED, frame_calls, dataclasses.replace(RCV, upsilon=upsilon))
        frames.append([(slots.tolist(), o.candidate_toas_ns, o.aggregates)
                       for slots, o, _ in frame_calls])
    assert len(frames[0]) == 2
    for (slots_a, toas_a, agg_a), (slots_b, toas_b, agg_b) in zip(*frames, strict=True):
        assert slots_a == slots_b
        assert np.array_equal(toas_a, toas_b) and np.array_equal(agg_a, agg_b)


def test_frames_record_only_what_is_read(frame_calls):
    # at C11's geometry (2 ns bins, a 500-bin slot spacing, a 220 ns window)
    # each slot keeps 110 bins of lead and its own bin; the response replayed
    # 200 ns late keeps 100 bins of tail besides
    for mode, sizes in (("honest", [12 * 111, 12 * 111]), ("replay_k0", [12 * 111, 12 * 211])):
        _pinned_session(mode, PIN_SEED, frame_calls)
        assert [len(tl.amplitudes) for _, _, tl in frame_calls] == sizes
        assert [tl.start_bin for _, _, tl in frame_calls] == [110, 110]


def test_challenge_code_is_the_seed_code(frame_calls):
    for seed in range(5):
        frame_calls.clear()
        run_session(PIN_PARAMS, PIN_NOISY, seed=seed, receiver=RCV)
        assert np.array_equal(frame_calls[0][0], generate_code(PIN_PARAMS, seed).slots)


def per_frame_detection(timelines, *args, **kwargs):
    """The per-frame session detection: backtrack_detect on each frame in turn, on one generator."""
    return [backtrack_detect(tl, *args, **kwargs) for tl in timelines]


def test_batched_session_keeps_the_per_frame_law(monkeypatch):
    # on a noisy honest link with a 20 ns window, where about a third of
    # sessions verify, sessions that vote both frames as one batch verify at
    # the rate of sessions that vote each frame on its own (two-proportion
    # z over disjoint seeds, 2,000 sessions each)
    link = dataclasses.replace(PIN_NOISY, d1_m=10.0, d2_m=0.0,
                               sigma_n2=worst_case_rx_power(LinkModel(d1_m=10.0, e_db=-10.0)) / 4)
    rcv = dataclasses.replace(RCV, backtrack_window_ns=20.0)
    sessions = 2000

    def verify_rate(first_seed):
        return sum(run_session(PIN_PARAMS, link, seed=seed, receiver=rcv).phase == PHASE_VERIFIED
                   for seed in range(first_seed, first_seed + sessions)) / sessions

    batched = verify_rate(0)
    monkeypatch.setattr(protocol, "backtrack_frames", per_frame_detection)
    per_frame = verify_rate(10**6)
    assert 0.2 < per_frame < 0.8
    pooled = (batched + per_frame) / 2
    z = (batched - per_frame) / math.sqrt(pooled * (1 - pooled) * 2 / sessions)
    assert abs(z) < 4, (batched, per_frame)


def test_generators_are_drawn_in_place():
    # a Generator is drawn from in place, and an int seed draws what a
    # fresh generator of that seed does
    draws = {
        "code": lambda seed: generate_code(PIN_PARAMS, seed).slots,
        "plan": lambda seed: plan_attack(PIN_PARAMS, 3, seed=seed).phases,
        "noise": lambda seed: synthesize_timeline(
            generate_code(PIN_PARAMS, 0), PIN_NOISY, noise_seed=seed).amplitudes,
    }
    for name, draw in draws.items():
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state
        assert np.array_equal(draw(rng), draw(11)), name
        assert rng.bit_generator.state != before, name

"""Full ranging sessions: honest verification, replay alarms, phase rules."""

import dataclasses
import math

import numpy as np
import pytest

from uwblab import protocol
from uwblab.adversary import plan_attack
from uwblab.channel import (SPEED_OF_LIGHT_M_PER_NS, LinkModel, synthesize_timeline,
                            worst_case_rx_power)
from uwblab.codec import CodeParams, generate_code
from uwblab.protocol import (
    PHASE_ALARMED,
    PHASE_COMMITTED,
    PHASE_VERIFIED,
    ProtocolState,
    commitment_phase,
    run_session,
    session_trace,
    verification_phase,
)
from uwblab.receiver import (
    REASON_ENERGY,
    REASON_RANGE,
    REASON_TOF,
    VERDICT_NO_CODE,
    DetectionOutcome,
    ReceiverConfig,
    backtrack_detect,
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


def test_overdriven_replay_alarms_on_energy():
    state = run_session(PARAMS, replay_link(), seed=0,
                        replay_delay_ns=60.0, replay_gain_db=12.0,
                        receiver=RCV)
    assert state.phase == PHASE_ALARMED
    assert state.alarm_reason == REASON_ENERGY


def test_commitment_beyond_range_alarms():
    state = run_session(PARAMS, replay_link(), seed=0,
                        replay_delay_ns=60.0, max_range_m=65.0,
                        receiver=RCV)
    # committed distance 60 + 60 ns * c / 2 is about 69 m, past the 65 m ceiling
    assert state.phase == PHASE_ALARMED
    assert state.alarm_reason == REASON_RANGE
    assert state.t_verify_tof_ns is None


def test_phase_ordering_is_enforced():
    state = ProtocolState(t_max_tof_ns=1000.0)
    with pytest.raises(RuntimeError):
        verification_phase(state, DetectionOutcome(verdict=VERDICT_NO_CODE))
    commitment_phase(state, honest_link())
    assert state.phase == PHASE_COMMITTED
    with pytest.raises(RuntimeError):
        commitment_phase(state, honest_link())


def test_no_code_fails_closed():
    state = ProtocolState(t_max_tof_ns=1000.0)
    commitment_phase(state, honest_link())
    verification_phase(state, DetectionOutcome(verdict=VERDICT_NO_CODE))
    assert state.phase == PHASE_ALARMED
    assert state.alarm_reason == REASON_TOF
    with pytest.raises(RuntimeError):
        verification_phase(state, DetectionOutcome(verdict=VERDICT_NO_CODE))


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
    "honest": CSV_HEAD + "800,7.00585299248e-07,1\n"
              + "".join("%d,0,0\n" % t for t in range(798, 579, -2)),
    "replay_k0": CSV_HEAD + """\
1000,7.78459361854e-08,1
998,3.82477002134e-10,nan
996,1.78511720421e-09,0.84
994,1.00634610046e-09,0.32
992,8.03972199307e-10,nan
990,1.43432057012e-09,1
988,8.76290335613e-10,nan
986,1.01072720825e-09,0.2
984,4.63929038926e-10,nan
982,7.46145566952e-10,nan
980,1.07806510362e-09,0.68
978,1.39076282996e-09,0.44
976,1.21811302561e-09,0.72
974,6.5180808494e-10,nan
972,1.13351987326e-09,0.44
970,6.49923138461e-10,nan
968,9.15182837958e-10,0.32
966,1.38354593554e-09,0.32
964,4.28439405881e-10,nan
962,6.15718054202e-10,nan
960,7.08281756534e-10,nan
958,8.09723903831e-10,nan
956,9.21736882461e-10,0.56
954,1.50760785227e-09,0.48
952,1.79646342403e-10,nan
950,4.95198705262e-10,nan
948,1.05160942834e-09,0.48
946,6.67234698933e-10,nan
944,7.56711205935e-10,nan
942,1.747002472e-09,0.68
940,1.64339937682e-09,0.44
938,1.00107808325e-09,1
936,5.51565885522e-10,nan
934,4.16213361572e-10,nan
932,4.90092022798e-10,nan
930,5.64437441876e-10,nan
928,1.19440460949e-09,0.48
926,1.35370108884e-09,0.12
924,6.17378966571e-10,nan
922,7.43268559485e-10,nan
920,4.93503652424e-10,nan
918,6.34500279631e-10,nan
916,6.05573750029e-10,nan
914,8.06708719708e-10,nan
912,8.88923368082e-10,nan
910,9.30465031046e-10,0.76
908,6.94916264235e-10,nan
906,4.80145285597e-10,nan
904,7.92704994807e-10,nan
902,6.31405762151e-10,nan
900,1.08465550333e-09,0.76
898,8.35760013741e-10,nan
896,5.92743586837e-10,nan
894,1.51640388077e-09,0.36
892,1.1250993221e-09,0.04
890,9.53026905229e-10,0.48
888,8.18132170597e-10,nan
886,8.63671737742e-10,nan
884,9.65740540593e-10,0.56
882,1.72271273355e-09,0.4
880,5.04290714298e-10,nan
878,1.06601959199e-09,0.72
876,5.50616571248e-10,nan
874,1.64863092975e-09,0.76
872,1.35293279164e-09,0.08
870,1.16732626413e-09,0.6
868,1.08369064834e-09,0.6
866,4.32217875182e-10,nan
864,1.84681028596e-09,0.8
862,1.60192783399e-09,0.6
860,1.42370057452e-09,0.76
858,7.89531942138e-10,nan
856,9.39151750646e-10,0.72
854,3.51262652393e-10,nan
852,1.78315724337e-09,0.44
850,1.1316463562e-09,0.28
848,6.73743249014e-10,nan
846,1.02669521206e-09,0.6
844,1.07382395294e-09,0.48
842,8.37783291689e-10,nan
840,1.12405749186e-09,0.52
838,6.53375148298e-10,nan
836,6.36238877052e-10,nan
834,1.02024458919e-09,0.6
832,9.1592423644e-10,0.64
830,1.9376179227e-09,0.28
828,1.6790311506e-09,0.16
826,1.46830757004e-09,0.44
824,4.49202845855e-10,nan
822,1.62117247671e-09,0.4
820,1.35264089616e-09,0.12
818,1.73179210786e-09,0.24
816,8.92981359357e-10,nan
814,9.02814492733e-10,nan
812,6.48619465853e-10,nan
810,4.63780782238e-10,nan
808,8.05080280255e-10,nan
806,1.03715254641e-09,0.32
804,8.06363147485e-10,nan
802,7.93850948681e-10,nan
800,2.03272192388e-08,1
798,1.37496805585e-09,0.48
796,8.18171533939e-10,nan
794,3.74040000738e-10,nan
792,6.80640149683e-10,nan
790,1.82106208945e-09,0.56
788,9.71135485902e-10,0.36
786,9.5771648543e-10,0.16
784,1.0345580228e-09,0.24
782,1.01682723799e-09,0.6
780,9.07056456287e-10,nan
""",
    "replay_k3": CSV_HEAD + "800,3.03419960926e-06,nan\n",
}
# over seeds 0..99: (phase, alarm reason) counts and the vote passes summed
# over both frames of every session
PIN_COUNTS = {
    "honest": ({(PHASE_VERIFIED, None): 100}, 5000),
    "replay_k0": ({(PHASE_ALARMED, REASON_TOF): 100}, 128778),
    "replay_k3": ({(PHASE_ALARMED, REASON_ENERGY): 100}, 62816),
}


@pytest.fixture
def frame_calls(monkeypatch):
    """(code slots, DetectionOutcome) of every frame run_session detects, in order."""
    calls = []

    def capture(timeline, code, *args, **kwargs):
        calls.append((code.slots, backtrack_detect(timeline, code, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(protocol, "backtrack_detect", capture)
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
        passes += sum(round(x * RCV.upsilon) for _, o in frame_calls
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
                       for slots, o in frame_calls])
    assert len(frames[0]) == 2 and frames[0] == frames[1]


def test_challenge_code_is_the_seed_code(frame_calls):
    for seed in range(5):
        frame_calls.clear()
        run_session(PIN_PARAMS, PIN_NOISY, seed=seed, receiver=RCV)
        assert np.array_equal(frame_calls[0][0], generate_code(PIN_PARAMS, seed).slots)


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

"""Full ranging sessions: honest verification, replay alarms, phase rules."""

import math

import pytest

from uwblab import protocol
from uwblab.channel import SPEED_OF_LIGHT_M_PER_NS, LinkModel, worst_case_rx_power
from uwblab.codec import CodeParams
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


def test_replay_session_alarms_on_tof_mismatch():
    for seed in range(3):
        state = run_session(PARAMS, replay_link(), seed=seed,
                            replay_delay_ns=60.0, replay_gain_db=6.0,
                            receiver=RCV)
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
1000,7.88233177118e-08,1
998,6.86081767404e-10,nan
996,6.35837756582e-10,nan
994,6.73853184797e-10,nan
992,1.12088361737e-09,0.72
990,1.13195291137e-09,0.48
988,1.09982011352e-09,0.76
986,6.93914481313e-10,nan
984,9.86285287463e-10,0.36
982,7.18231716661e-10,nan
980,1.12741055575e-09,0.52
978,4.50034460475e-10,nan
976,1.20522073552e-09,0.8
974,7.84913291218e-10,nan
972,6.88779886649e-10,nan
970,1.11593255336e-09,0.28
968,4.30891954096e-10,nan
966,1.38235471656e-09,0.44
964,7.36357870649e-10,nan
962,5.9134577892e-10,nan
960,7.98116979193e-10,nan
958,6.60394089928e-10,nan
956,1.18978933444e-09,0.8
954,5.95189031463e-10,nan
952,6.77146385821e-10,nan
950,5.43019717685e-10,nan
948,9.10199551207e-10,nan
946,5.66515075738e-10,nan
944,5.25432865293e-10,nan
942,7.03338192292e-10,nan
940,1.3296920191e-09,0.48
938,1.37176615077e-09,0.36
936,8.04331398675e-10,nan
934,8.33251492568e-10,nan
932,1.56425327936e-09,0.84
930,7.60947454747e-10,nan
928,6.29341453047e-10,nan
926,1.1093239908e-09,0.6
924,9.46575643389e-10,0.16
922,1.5955383599e-09,0.56
920,5.23286546164e-10,nan
918,6.70506384834e-10,nan
916,1.07348479934e-09,0.32
914,8.63541903389e-10,nan
912,6.97960204814e-10,nan
910,1.93057655074e-09,0.68
908,9.27629270075e-10,0.76
906,8.63221116214e-10,nan
904,3.52058374135e-10,nan
902,7.54826448623e-10,nan
900,7.1530693955e-10,nan
898,6.03249429733e-10,nan
896,8.68014038034e-10,nan
894,4.42806434421e-10,nan
892,5.02769943849e-10,nan
890,1.18936470366e-09,0.68
888,8.31890586064e-10,nan
886,9.68732758137e-10,0.56
884,7.10146529313e-10,nan
882,9.15468221513e-10,0.16
880,4.59979902251e-10,nan
878,7.04052445516e-10,nan
876,1.29013823896e-09,0.72
874,7.42776646405e-10,nan
872,9.45821334276e-10,0.16
870,1.06752514796e-09,0.12
868,1.11473986824e-09,0.52
866,4.61929677795e-10,nan
864,5.01361811729e-10,nan
862,6.01386972606e-10,nan
860,3.68554501098e-10,nan
858,9.63067167184e-10,0.32
856,7.29193714558e-10,nan
854,8.87645763385e-10,nan
852,1.42493190409e-09,0.64
850,1.2715757712e-09,0.16
848,1.15265886331e-09,0.48
846,6.27993059885e-10,nan
844,1.09396026745e-09,0.72
842,9.88930938277e-10,0.64
840,9.19976938983e-10,0.36
838,1.15275887979e-09,0.68
836,1.11602737267e-09,0.4
834,1.05723258701e-09,0.24
832,1.45226178954e-09,0.08
830,5.8913386021e-10,nan
828,7.58732746137e-10,nan
826,9.00289953901e-10,nan
824,4.39671576996e-10,nan
822,9.68769900826e-10,0.28
820,1.83255859214e-09,0.28
818,8.59744985184e-10,nan
816,9.9650732979e-10,0.2
814,5.95523273792e-10,nan
812,6.19927326454e-10,nan
810,1.12490264569e-09,0.2
808,1.35683451198e-09,0.76
806,7.6118215352e-10,nan
804,6.95068492421e-10,nan
802,1.10379893304e-09,0.36
800,2.11006046544e-08,1
798,9.08731855111e-10,nan
796,8.48014147297e-10,nan
794,8.13260846099e-10,nan
792,3.16817128788e-10,nan
790,9.05969027214e-10,nan
788,1.09770223365e-09,0.32
786,8.92615545941e-10,nan
784,8.83763372961e-10,nan
782,6.35759438762e-10,nan
780,9.70470859178e-10,0.56
""",
    "replay_k3": CSV_HEAD + "800,3.12377129554e-06,nan\n",
}
# over seeds 0..99: (phase, alarm reason) counts and the vote passes summed
# over both frames of every session
PIN_COUNTS = {
    "honest": ({(PHASE_VERIFIED, None): 100}, 5000),
    "replay_k0": ({(PHASE_ALARMED, REASON_TOF): 100}, 127614),
    "replay_k3": ({(PHASE_ALARMED, REASON_ENERGY): 100}, 63510),
}


@pytest.fixture
def frame_outcomes(monkeypatch):
    """The DetectionOutcome of every frame run_session detects, in order."""
    outcomes = []

    def capture(*args, **kwargs):
        outcomes.append(backtrack_detect(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(protocol, "backtrack_detect", capture)
    return outcomes


def _pinned_session(mode, seed, frame_outcomes):
    frame_outcomes.clear()
    mode_kw = dict(PIN_MODES[mode])
    return run_session(PIN_PARAMS, mode_kw.pop("link"), seed=seed, receiver=RCV, **mode_kw)


@pytest.mark.parametrize("mode", sorted(PIN_MODES))
def test_session_stream_pin(frame_outcomes, mode):
    state = _pinned_session(mode, PIN_SEED, frame_outcomes)
    assert len(frame_outcomes) == 2
    assert session_trace(state) == PIN_TRACE[mode]
    assert outcome_to_csv(frame_outcomes[1]) == PIN_RESPONSE_CSV[mode]

    counts, passes = {}, 0
    for seed in range(100):
        state = _pinned_session(mode, seed, frame_outcomes)
        key = (state.phase, state.alarm_reason)
        counts[key] = counts.get(key, 0) + 1
        passes += sum(round(x * RCV.upsilon) for o in frame_outcomes
                      for x in o.pass_ratios if not math.isnan(x))
    assert (counts, passes) == PIN_COUNTS[mode]

"""Two-device ranging session: commit a distance, then verify it.

The commitment phase yields an upper-bound time of flight that an adversary
can only enlarge, never shrink. The verification phase re-measures the
arrival of a coded frame, backtracking past the acquisition lock; the
session alarms when the frame's energy is injected-hot, when no code can be
verified at all, or when the re-measured time of flight disagrees with the
committed one. All times are one-way equivalents in nanoseconds; a replay
that delays one direction of a round trip by delta enlarges the one-way
time by delta / 2.
"""

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .adversary import plan_attack, replay_frame
from .channel import SPEED_OF_LIGHT_M_PER_NS, LinkModel, synthesize_timeline
from .codec import CodeParams, generate_code
from .receiver import (
    REASON_ENERGY,
    REASON_RANGE,
    REASON_TOF,
    VERDICT_ACCEPTED,
    VERDICT_ATTACK,
    DetectionOutcome,
    ReceiverConfig,
    backtrack_detect,  # noqa: F401 -- kept on protocol, where bench/ probes look it up
    backtrack_frames,
)

PHASE_IDLE = "idle"
PHASE_COMMITTED = "committed"
PHASE_VERIFIED = "verified"
PHASE_ALARMED = "alarmed"


@dataclass
class ProtocolState:
    """One ranging session's bookkeeping. Alarmed is terminal."""

    precision_ns: ClassVar[float] = 0.33  # the ranging precision, one for every session
    t_max_tof_ns: float
    t_commit_tof_ns: float | None = None
    t_verify_tof_ns: float | None = None
    phase: str = PHASE_IDLE
    alarm_reason: str | None = None
    trace: list = field(default_factory=list)

    def _log(self, line: str):
        self.trace.append(line)

    def _alarm(self, reason: str):
        self.phase = PHASE_ALARMED
        self.alarm_reason = reason
        self._log(f"alarm: {reason}")


def commitment_phase(state: ProtocolState, link: LinkModel, adversary_delay_ns: float = 0.0) -> float:
    """Commit to an upper-bound time of flight.

    The committed value is the true one-way time of flight plus whatever
    delay the adversary managed to smuggle into the round trip (halved by
    the caller). A commitment beyond the maximum communication range alarms
    immediately.
    """
    if state.phase != PHASE_IDLE:
        raise RuntimeError(f"commitment must start from idle, session is {state.phase}")
    t_commit = link.d1_m / SPEED_OF_LIGHT_M_PER_NS + adversary_delay_ns
    state.t_commit_tof_ns = t_commit
    state._log(
        "commit: t_tof=%.4f ns (d=%.3f m)"
        % (t_commit, t_commit * SPEED_OF_LIGHT_M_PER_NS)
    )
    if t_commit > state.t_max_tof_ns:
        state._alarm(REASON_RANGE)
    else:
        state.phase = PHASE_COMMITTED
    return t_commit


def verification_phase(
    state: ProtocolState,
    detection: DetectionOutcome,
    t_verify_tof_ns: float = float("nan"),
) -> str:
    """Judge the session from the verification frame's detection outcome.

    t_verify_tof_ns is the one-way time of flight the caller recovered from
    the detection's time of arrival. An attack verdict (energy over the
    ceiling) alarms REASON_ENERGY; a frame with no verifiable code fails
    closed as a time-of-flight mismatch (there is no arrival to corroborate
    the commitment); otherwise the committed and verified times must agree
    within the ranging precision. Returns the resulting phase.
    """
    if state.phase == PHASE_ALARMED:
        raise RuntimeError("session already alarmed")
    if state.phase != PHASE_COMMITTED:
        raise RuntimeError(f"verification requires a committed session, got {state.phase}")
    if detection.verdict != VERDICT_ACCEPTED or math.isnan(t_verify_tof_ns):
        state._alarm(REASON_ENERGY if detection.verdict == VERDICT_ATTACK else REASON_TOF)
        return state.phase
    state.t_verify_tof_ns = t_verify_tof_ns
    state._log("verify: t_tof=%.4f ns" % t_verify_tof_ns)
    if abs(state.t_commit_tof_ns - t_verify_tof_ns) > state.precision_ns:
        state._alarm(REASON_TOF)
    else:
        state.phase = PHASE_VERIFIED
        state._log("verified")
    return state.phase


def run_session(
    params: CodeParams,
    link: LinkModel,
    seed: int = 0,
    k: int = 0,
    replay_delay_ns: float = 0.0,
    replay_gain_db: float = 6.0,
    max_range_m: float = 100.0,
    receiver: ReceiverConfig | None = None,
) -> ProtocolState:
    """Play out one full session, optionally under attack.

    replay_delay_ns > 0 replays the verification frames delayed by that
    much (one attacked direction, so the committed one-way time inflates by
    half the delay); a nan, infinite or negative delay is refused. k > 0
    additionally injects k random-phase pulses over the authentic frame to
    hide it from backtracking. Both directions of the verification exchange
    run detection; the response direction carries the attack. Honest runs
    end verified with commit and verify times equal.

    One generator, default_rng(seed), draws both codes, the attack plan
    (under attack with k > 0), both frames' noise and only then one vote
    over both frames (one backtrack_frames batch, challenge first, each
    frame carrying its code and link), so the number of votes cast never
    moves a frame. A frame records only what backtracking reads, so no
    noise is drawn where nothing reads it; the session reads only each
    outcome's verdict and time of arrival.
    """
    if not 0 <= replay_delay_ns < math.inf:
        raise ValueError("replay_delay_ns must be finite and nonnegative, got %r" % replay_delay_ns)
    if receiver is None:
        receiver = ReceiverConfig(r=min(8, params.alpha, params.beta))
    state = ProtocolState(t_max_tof_ns=max_range_m / SPEED_OF_LIGHT_M_PER_NS)
    attacked = replay_delay_ns > 0
    commitment_phase(state, link, replay_delay_ns / 2.0 if attacked else 0.0)
    if state.phase == PHASE_ALARMED:
        return state
    d_committed = state.t_commit_tof_ns * SPEED_OF_LIGHT_M_PER_NS

    rng = np.random.default_rng(seed)
    codes = [generate_code(params, rng), generate_code(params, rng)]
    plan = plan_attack(params, k, seed=rng) if attacked and k > 0 else None
    lead_ns, tail_ns = receiver.backtrack_window_ns, replay_delay_ns if attacked else 0.0
    frames = [synthesize_timeline(codes[0], link, None, rng, lead_ns, 0.0),
              synthesize_timeline(codes[1], link, plan, rng, lead_ns, tail_ns)]
    if attacked:
        frames[1] = replay_frame(frames[1], replay_delay_ns, replay_gain_db)

    outcomes = backtrack_frames(frames, receiver, d_committed_m=d_committed, rng=rng)
    for name, outcome in zip(("challenge", "response"), outcomes):
        state._log(f"frame {name}: {outcome.verdict}")
    for outcome in outcomes:
        if outcome.verdict != VERDICT_ACCEPTED:
            verification_phase(state, outcome)
            return state
    # one attacked direction shifts the round trip by the arrival offset,
    # which enters the one-way time of flight halved
    toa_offset_ns = outcomes[1].toa_ns - frames[1].start_bin * frames[1].tp_ns
    t_verify = link.d1_m / SPEED_OF_LIGHT_M_PER_NS + toa_offset_ns / 2.0
    verification_phase(state, outcomes[1], t_verify)
    return state


def session_trace(state: ProtocolState) -> str:
    """The session's line-oriented trace log."""
    return "\n".join(state.trace) + "\n"

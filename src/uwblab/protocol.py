"""Two-device ranging session: commit a distance, then verify it.

One session function, run_session, plays the defence's one rule. It
commits to an upper-bound time of flight, which an adversary can only
enlarge, never shrink, then re-measures the arrival of a coded frame,
backtracking past the acquisition lock, and checks it against the
commitment. The session alarms when the commitment is beyond range, when
the frame's energy is injected-hot, when no code can be verified at all (it
fails closed, with no arrival to corroborate the commitment), or when the
re-measured time of flight disagrees with the committed one. ProtocolState
is the record of a finished session. All times are one-way equivalents in
nanoseconds; a replay that delays one direction of a round trip by delta
enlarges the one-way time by delta / 2.
"""

import math
from dataclasses import dataclass
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
    ReceiverConfig,
    backtrack_detect,  # noqa: F401 -- kept on protocol, where bench/ probes look it up
    backtrack_frames,
)

PHASE_VERIFIED = "verified"
PHASE_ALARMED = "alarmed"


@dataclass
class ProtocolState:
    """The record of one finished session: verified, or alarmed with its reason."""

    precision_ns: ClassVar[float] = 0.33  # the ranging precision, one for every session
    t_commit_tof_ns: float
    t_verify_tof_ns: float | None
    phase: str
    alarm_reason: str | None
    trace: list


def _alarmed(trace: list, t_commit: float, reason: str, t_verify: float | None = None):
    """The record of a session that alarmed for reason, its trace ending on the alarm."""
    trace.append(f"alarm: {reason}")
    return ProtocolState(t_commit, t_verify, PHASE_ALARMED, reason, trace)


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
    """Play out one full session, optionally under attack, and return its record.

    The commitment is the true one-way time of flight plus half of
    replay_delay_ns: replay_delay_ns > 0 replays the verification frames
    delayed by that much (one attacked direction); a nan, infinite or
    negative delay is refused. A commitment past max_range_m alarms
    range_exceeded before any frame is drawn. k > 0 additionally injects k
    random-phase pulses over the authentic frame to hide it from
    backtracking. Both directions of the verification exchange run
    detection; the response direction carries the attack. The first frame
    not accepted alarms energy_exceeded on an attack verdict and
    tof_mismatch otherwise; else the response's re-measured time of flight
    must agree with the committed one within precision_ns. Honest runs end
    verified with commit and verify times equal.

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
    attacked = replay_delay_ns > 0
    t_commit = link.d1_m / SPEED_OF_LIGHT_M_PER_NS + replay_delay_ns / 2.0
    d_committed = t_commit * SPEED_OF_LIGHT_M_PER_NS
    trace = ["commit: t_tof=%.4f ns (d=%.3f m)" % (t_commit, d_committed)]
    if t_commit > max_range_m / SPEED_OF_LIGHT_M_PER_NS:
        return _alarmed(trace, t_commit, REASON_RANGE)

    rng = np.random.default_rng(seed)
    codes = [generate_code(params, rng), generate_code(params, rng)]
    plan = plan_attack(params, k, seed=rng) if attacked and k > 0 else None
    lead_ns, tail_ns = receiver.backtrack_window_ns, replay_delay_ns if attacked else 0.0
    frames = [synthesize_timeline(codes[0], link, None, rng, lead_ns, 0.0),
              synthesize_timeline(codes[1], link, plan, rng, lead_ns, tail_ns)]
    if attacked:
        frames[1] = replay_frame(frames[1], replay_delay_ns, replay_gain_db)

    outcomes = backtrack_frames(frames, receiver, d_committed_m=d_committed, rng=rng)
    trace += [f"frame {name}: {o.verdict}" for name, o in zip(("challenge", "response"), outcomes)]
    for outcome in outcomes:
        if outcome.verdict != VERDICT_ACCEPTED:
            return _alarmed(trace, t_commit,
                            REASON_ENERGY if outcome.verdict == VERDICT_ATTACK else REASON_TOF)
    # one attacked direction shifts the round trip by the arrival offset,
    # which enters the one-way time of flight halved
    toa_offset_ns = outcomes[1].toa_ns - frames[1].start_bin * frames[1].tp_ns
    t_verify = link.d1_m / SPEED_OF_LIGHT_M_PER_NS + toa_offset_ns / 2.0
    trace.append("verify: t_tof=%.4f ns" % t_verify)
    if abs(t_commit - t_verify) > ProtocolState.precision_ns:
        return _alarmed(trace, t_commit, REASON_TOF, t_verify)
    trace.append("verified")
    return ProtocolState(t_commit, t_verify, PHASE_VERIFIED, None, trace)


def session_trace(state: ProtocolState) -> str:
    """The session's line-oriented trace log."""
    return "\n".join(state.trace) + "\n"

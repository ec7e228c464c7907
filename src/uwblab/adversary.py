"""Attack construction: random-phase injections plus a delayed replay.

The adversary cannot read pulse phases off the air fast enough to react, so
the best it can do against a secret code is statistical: pick k slots, fire
a random-phase pulse into each hoping to cancel whatever authentic pulse
might sit there, and separately replay an amplified copy of the overheard
frame some delay later so the receiver locks onto the late copy.
"""

from dataclasses import dataclass, replace

import numpy as np

from .codec import CodeParams
from .channel import FrameTimeline


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """k injected pulses (slot, phase).

    Every injection arrives with the adversary's received power, which the
    link sets (LinkModel.p_adv_sent at d3_m).
    """

    slots: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        slots = np.asarray(self.slots, dtype=np.int64)
        phases = np.asarray(self.phases, dtype=np.int8)
        if slots.shape != phases.shape or slots.ndim != 1:
            raise ValueError("slots and phases must be parallel vectors")
        if len(set(slots.tolist())) != len(slots):
            raise ValueError("injection slots must be distinct")
        # abs(-128) is -128 in int8, which still differs from 1
        if (np.abs(phases) != 1).any():
            raise ValueError("phases must be -1 or +1")
        for name, arr in (("slots", slots), ("phases", phases)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return len(self.slots)


def plan_attack(
    code_params: CodeParams,
    k: int,
    seed: int = 0,
) -> AttackPlan:
    """Draw an attack: k distinct uniform slots, independent random phases.

    Positions and phases come from independent child streams of the seed.
    """
    if not 0 <= k <= code_params.n:
        raise ValueError("cannot inject more pulses than there are slots")
    pos_ss, phase_ss = np.random.SeedSequence(seed).spawn(2)
    slots = np.random.default_rng(pos_ss).choice(code_params.n, size=k, replace=False)
    phases = 2 * np.random.default_rng(phase_ss).integers(0, 2, size=k).astype(np.int8) - 1
    return AttackPlan(slots=slots, phases=phases)


def replay_frame(timeline: FrameTimeline, delay_ns: float, gain_db: float) -> FrameTimeline:
    """Add a delayed, amplified copy of the overheard authentic frame.

    The copy is the clean authentic frame (the adversary recorded it before
    its own injections reached the receiver) scaled by gain_db and shifted
    by delay_ns. The delay must stay inside one slot spacing or the
    round-trip bookkeeping would already give the replay away. Acquisition
    lock moves to whichever frame copy now holds the strongest pulse, the
    later copy winning ties.
    """
    if not 0 < delay_ns < timeline.ts_ns:
        raise ValueError("replay delay must lie strictly inside one slot spacing")
    shift = int(round(delay_ns / timeline.tp_ns))
    copy_start = timeline.start_bin + shift
    copy_bins = timeline.slot_bins(copy_start)
    if copy_bins[-1] >= len(timeline.amplitudes):
        raise ValueError("timeline too short to hold the delayed copy")
    gain = 10.0 ** (gain_db / 20.0)
    amps = timeline.amplitudes.copy()
    amps[copy_bins] += timeline.auth_slot_amps * gain

    peak_auth = np.abs(amps[timeline.slot_bins(timeline.start_bin)]).max()
    peak_copy = np.abs(amps[copy_bins]).max()
    lock = copy_start if peak_copy >= peak_auth else timeline.start_bin
    return replace(timeline, amplitudes=amps, lock_bin=lock)


def plan_to_csv(plan: AttackPlan) -> str:
    """CSV dump (slot, phase) with a schema header."""
    lines = ["# schema=1", "slot,phase"]
    for s, ph in zip(plan.slots, plan.phases):
        lines.append("%d,%d" % (s, ph))
    return "\n".join(lines) + "\n"

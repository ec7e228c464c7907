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
    """Injected pulses, one phase per slot: phases[i] in {-1, 0, +1}, 0 where none.

    The form of VerificationCode.slots. Every injection arrives with the
    adversary's received power, which the link sets (p_adv_sent at d3_m).
    """

    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.int8)
        # a range test, not abs(phases) <= 1: abs(-128) is -128 in int8
        if phases.ndim != 1 or ((phases < -1) | (phases > 1)).any():
            raise ValueError("phases must be one vector of -1, 0 or +1 per slot")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @property
    def slots(self) -> np.ndarray:
        """Injected slot indices, ascending."""
        return np.flatnonzero(self.phases)

    @property
    def k(self) -> int:
        return int(np.count_nonzero(self.phases))


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
    phases = np.zeros(code_params.n, dtype=np.int8)
    phases[slots] = 2 * np.random.default_rng(phase_ss).integers(0, 2, size=k) - 1
    return AttackPlan(phases=phases)


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
    """CSV dump (slot, phase) of the injected slots in slot order, with a schema header."""
    lines = ["# schema=1", "slot,phase"]
    for s in plan.slots:
        lines.append("%d,%d" % (s, plan.phases[s]))
    return "\n".join(lines) + "\n"

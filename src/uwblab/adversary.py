"""Attack construction: random-phase injections plus a delayed replay.

The adversary cannot read pulse phases off the air fast enough to react, so
the best it can do against a secret code is statistical: pick k slots, fire
a random-phase pulse into each hoping to cancel whatever authentic pulse
might sit there, and separately replay an amplified copy of the overheard
frame some delay later so the receiver locks onto the late copy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codec import CodeParams, _csv, _draw_slots, _unit_slots
from .channel import FrameTimeline, superpose


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """Injected pulses, one phase per slot: phases[i] in {-1, 0, +1}, 0 where none.

    The form of VerificationCode.slots. Every injection arrives with the
    adversary's received power, which the link sets (p_adv_sent at d3_m).
    """

    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases", _unit_slots(self.phases, "phases"))

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
    seed=0,
) -> AttackPlan:
    """Draw an attack: k distinct uniform slots, independent random phases.

    It is the draw of a code with k pulses: plan_attack(params, params.alpha,
    seed).phases equals generate_code(params, seed).slots. seed is an int
    or a Generator, which the draw advances in place.
    """
    if not 0 <= k <= code_params.n:
        raise ValueError("cannot inject more pulses than there are slots")
    return AttackPlan(phases=_draw_slots(code_params.n, k, seed))


def replay_frame(timeline: FrameTimeline, delay_ns: float, gain_db: float) -> FrameTimeline:
    """Add a delayed, amplified copy of the overheard authentic frame.

    The copy is superpose() of the timeline's code and link with phases 0
    at gain_db: the clean authentic frame (the adversary recorded it before
    its own injections reached the receiver), here shifted by delay_ns
    rounded to whole bins, 1 to stride - 1 of them: a whole slot spacing or
    more would already show in the round-trip bookkeeping, and no more than
    the record reaches (the timeline's tail_ns). A delay that is not finite
    is refused too. Acquisition lock moves to whichever frame copy now
    holds the strongest pulse, the later copy winning ties.
    """
    steps = delay_ns / timeline.tp_ns
    shift = int(round(steps)) if math.isfinite(steps) else 0
    if not 0 < shift < timeline.code.params.stride:
        raise ValueError("replay delay must round to one bin or more, short of one slot spacing")
    copy_start = timeline.start_bin + shift
    copy_bins = timeline.slot_bins(copy_start)
    amps = timeline.amplitudes.copy()
    amps[copy_bins] += superpose(timeline.link, timeline.code.slots, 0, gain_db)

    peak_auth = np.abs(amps[timeline.slot_bins(timeline.start_bin)]).max()
    peak_copy = np.abs(amps[copy_bins]).max()
    lock = copy_start if peak_copy >= peak_auth else timeline.start_bin
    return FrameTimeline(amps, timeline.start_bin, lock, timeline.code, timeline.link,
                         timeline.pitch)


def plan_to_csv(plan: AttackPlan) -> str:
    """CSV dump (slot, phase) of the injected slots in slot order, with a schema header."""
    return _csv("slot,phase", "%d,%d", ((s, plan.phases[s]) for s in plan.slots))

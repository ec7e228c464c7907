"""Slot-coded verification frames.

A verification frame is a train of n slots, alpha of which carry a unit pulse
with a random sign while the remaining beta stay empty. Which slots carry
pulses, and with which signs, is drawn from a seeded generator and acts as the
shared secret between prover and verifier: an attacker who wants to shift the
frame later in time has to guess both the occupied subset and the signs.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CodeParams:
    """Frame geometry: slot counts, slot spacing, pulse width, sample size r."""

    n: int
    alpha: int
    beta: int
    ts_ns: float = 1000.0
    tp_ns: float = 2.0
    r: int = 8

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("frame needs at least one slot")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta != self.n:
            raise ValueError("slot counts must satisfy n = alpha + beta with alpha, beta >= 0")
        # a chain that nan fails
        if not 0 < self.tp_ns < self.ts_ns < np.inf:
            raise ValueError("need 0 < tp_ns < ts_ns < inf (pulse width, slot spacing)")
        if self.alpha == 0:
            # degenerate all-empty frame, only meaningful for bin bookkeeping
            if self.r != 0:
                raise ValueError("an all-empty frame cannot be sampled, set r = 0")
        elif not 1 <= self.r <= self.alpha:
            raise ValueError("sample size r must satisfy 1 <= r <= alpha")


@dataclass(frozen=True, eq=False)
class VerificationCode:
    """A concrete frame: slots[i] in {-1, 0, +1}, exactly alpha nonzero."""

    params: CodeParams
    slots: np.ndarray

    def __post_init__(self):
        slots = np.asarray(self.slots, dtype=np.int8)
        if slots.shape != (self.params.n,):
            raise ValueError("slot vector length must equal n")
        # a range test, not abs(slots) <= 1: abs(-128) is -128 in int8
        if slots.min() < -1 or slots.max() > 1:
            raise ValueError("slot values must be -1, 0 or +1")
        if int(np.count_nonzero(slots)) != self.params.alpha:
            raise ValueError("number of pulses must equal alpha")
        slots.setflags(write=False)
        object.__setattr__(self, "slots", slots)


def generate_code(params: CodeParams, seed: int) -> VerificationCode:
    """Draw a fresh code: uniform alpha-subset of slots, independent signs.

    Positions and signs come from two independent child streams of the seed,
    so tests can pin one while varying the other. The same (params, seed)
    always reproduces the same code.
    """
    pos_ss, phase_ss = np.random.SeedSequence(seed).spawn(2)
    slots = np.zeros(params.n, dtype=np.int8)
    if params.alpha:
        pulse_at = np.random.default_rng(pos_ss).choice(
            params.n, size=params.alpha, replace=False
        )
        signs = np.random.default_rng(phase_ss).integers(0, 2, size=params.alpha)
        slots[pulse_at] = 2 * signs.astype(np.int8) - 1
    return VerificationCode(params=params, slots=slots)


def bins(code: VerificationCode) -> tuple[np.ndarray, np.ndarray]:
    """Split slot indices into (pulse bin, empty bin), each sorted ascending."""
    idx = np.arange(code.params.n)
    occupied = code.slots != 0
    return idx[occupied], idx[~occupied]


def code_to_line(code: VerificationCode) -> str:
    """One-line text form, e.g. '0,-1,0,0,1'."""
    return ",".join(str(int(v)) for v in code.slots)


def code_from_line(
    line: str,
    r: int | None = None,
) -> VerificationCode:
    """Parse the one-line text form back into a code.

    alpha and beta are recovered from the content; r defaults to min(8, alpha)
    since the text form does not carry the receiver's sample size. Slot
    spacing and pulse width keep the CodeParams defaults.
    """
    try:
        values = [int(tok) for tok in line.strip().split(",")]
    except ValueError as err:
        raise ValueError(f"unparseable code line: {err}") from None
    slots = np.array(values, dtype=np.int8)
    alpha = int(np.count_nonzero(slots))
    if r is None:
        r = min(8, alpha)
    params = CodeParams(n=len(values), alpha=alpha, beta=len(values) - alpha, r=r)
    return VerificationCode(params=params, slots=slots)

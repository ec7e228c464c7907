"""Slot-coded verification frames.

A verification frame is a train of n slots, alpha of which carry a unit pulse
with a random sign while the remaining beta stay empty. Which slots carry
pulses, and with which signs, is drawn from a seeded generator and acts as the
shared secret between prover and verifier: an attacker who wants to shift the
frame later in time has to guess both the occupied subset and the signs.
"""

from dataclasses import dataclass
from functools import cached_property

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
        # an all-empty frame carries no code the receiver could vote on
        if self.alpha < 1 or self.beta < 0 or self.alpha + self.beta != self.n:
            raise ValueError("slot counts must satisfy n = alpha + beta with alpha >= 1, beta >= 0")
        # a chain that nan fails
        if not 0 < self.tp_ns < self.ts_ns < np.inf:
            raise ValueError("need 0 < tp_ns < ts_ns < inf (pulse width, slot spacing)")
        if not 1 <= self.r <= self.alpha:
            raise ValueError("sample size r must satisfy 1 <= r <= alpha")

    @cached_property
    def stride(self) -> int:
        """Timeline bins (of width tp_ns) per slot spacing ts_ns, computed once."""
        return int(round(self.ts_ns / self.tp_ns))


def _unit_slots(values, name: str) -> np.ndarray:
    """values as a read-only int8 vector of -1, 0, +1: the check of codes and plans.

    The int8 cast must keep every value, so 255 and 0.5 are refused, not
    wrapped to -1 or truncated to 0; the range test takes abs() in int16, as
    abs(-128) is -128 in int8. An int8 vector is taken without a copy.
    """
    given = np.asarray(values)
    vec = given.astype(np.int8, copy=False)
    if (given.ndim != 1 or np.count_nonzero(np.abs(vec, dtype=np.int16) > 1)
            or (vec is not given and not np.array_equal(vec, given))):
        raise ValueError(f"{name} must be one vector of -1, 0 or +1 per slot")
    vec.setflags(write=False)
    return vec


def _draw_slots(n: int, count: int, seed) -> np.ndarray:
    """int8 n-vector of count distinct uniform slots at independent uniform signs.

    The one draw of codes and plans, from default_rng(seed): the head of one
    permutation, then +1 where random() < 0.5, a fair coin as random() is
    k * 2**-53. An int seeds a fresh generator; a Generator is drawn in place.
    """
    rng = np.random.default_rng(seed)
    at = rng.permutation(n)[:count]
    slots = np.zeros(n, dtype=np.int8)
    slots[at] = 1
    slots[at[rng.random(count) >= 0.5]] = -1
    return slots


@dataclass(frozen=True, eq=False)
class VerificationCode:
    """A concrete frame: slots[i] in {-1, 0, +1}, exactly alpha nonzero."""

    params: CodeParams
    slots: np.ndarray

    def __post_init__(self):
        slots = np.asarray(self.slots)
        if slots.shape != (self.params.n,):
            raise ValueError("slot vector length must equal n")
        slots = _unit_slots(slots, "slot values")
        if int(np.count_nonzero(slots)) != self.params.alpha:
            raise ValueError("number of pulses must equal alpha")
        object.__setattr__(self, "slots", slots)


def generate_code(params: CodeParams, seed) -> VerificationCode:
    """Draw a fresh code: uniform alpha-subset of slots, independent fair signs.

    seed is an int or a Generator, which _draw_slots advances in place. The
    same (params, int seed) always reproduces the same code, and the same
    slot vector as plan_attack(params, params.alpha, seed).phases.
    """
    return VerificationCode(params=params, slots=_draw_slots(params.n, params.alpha, seed))


def bins(code: VerificationCode) -> tuple[np.ndarray, np.ndarray]:
    """Split slot indices into (pulse bin, empty bin), each sorted ascending."""
    idx = np.arange(code.params.n)
    occupied = code.slots != 0
    return idx[occupied], idx[~occupied]


def _csv(header: str, fmt: str, rows, *meta: str) -> str:
    """The lab's one CSV form: `# schema=1`, a `# ` line per meta string, the
    header, then fmt % row for each row, every line ending in a newline."""
    lines = ["# schema=1", *("# " + line for line in meta), header]
    lines.extend(fmt % row for row in rows)
    return "\n".join(lines) + "\n"


def code_to_line(code: VerificationCode) -> str:
    """One-line text form, e.g. '0,-1,0,0,1'."""
    return ",".join(str(int(v)) for v in code.slots)


def code_from_line(line: str) -> VerificationCode:
    """Parse the one-line text form back into a code.

    alpha and beta are recovered from the content; r is min(8, alpha) since
    the text form does not carry the receiver's sample size. Slot spacing
    and pulse width keep the CodeParams defaults.
    """
    try:
        values = [int(tok) for tok in line.strip().split(",")]
    except ValueError as err:
        raise ValueError(f"unparseable code line: {err}") from None
    if any(abs(v) > 1 for v in values):
        raise ValueError("slot values must be -1, 0 or +1")
    alpha = int(np.count_nonzero(values))
    params = CodeParams(n=len(values), alpha=alpha, beta=len(values) - alpha, r=min(8, alpha))
    return VerificationCode(params=params, slots=values)

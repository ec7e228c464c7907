"""Path loss, link budgets, AWGN, and pulse superposition.

Everything downstream of the antenna is reduced to one real amplitude per
slot (the energy detector integrates a whole slot window, so intra-slot
waveform shape never matters). Powers are dimensionless "power units";
amplitudes are their signed square roots, so a reciprocal-phase pulse of
matching power cancels an authentic pulse exactly and an equal-phase pulse
doubles the amplitude (quadrupling the slot energy). superpose() is the one
place where link powers become slot amplitudes.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .codec import VerificationCode, _csv

SPEED_OF_LIGHT_M_PER_NS = 0.2998


def path_loss_db(d_m: float) -> float:
    """Expected free-space loss in dB at distance d_m, negative for d >= 1 m."""
    if d_m <= 0:
        raise ValueError("distance must be positive")
    return -46.3 - 20.0 * math.log10(d_m) - math.log10(6.5 / 5.0)


def power_ratio(d_m: float, extra_db: float = 0.0) -> float:
    """Linear received/transmitted power ratio at distance d_m."""
    return 10.0 ** ((path_loss_db(d_m) + extra_db) / 10.0)


def expected_rx_power(p_sent: float, d_m: float, extra_db: float = 0.0) -> float:
    """Received per-pulse power for transmit power p_sent at distance d_m.

    extra_db models degradation beyond pure path loss (fading margin,
    detector losses); it is 0 for the best-case budget that thresholds use.
    """
    return p_sent * power_ratio(d_m, extra_db)


def adversary_room(d1_m: float, d2_m: float, e_db: float) -> tuple[float, float]:
    """Per-pulse power headroom the verifier's energy ceiling leaves open.

    The verifier expects best-case power from the claimed distance d1+d2
    while the authentic signal arrives degraded from the true distance d1,
    so each pulse leaves r_db = f(d1+d2) - (f(d1) + e_db) decibels of room.
    Returns (r_db, zeta) with zeta the linear ratio 10^(r_db/10). At d2 = 0
    the path-loss terms cancel and the room is just -e_db.
    """
    if d1_m <= 0 or d2_m < 0:
        raise ValueError("need d1 > 0 and d2 >= 0")
    r_db = path_loss_db(d1_m + d2_m) - (path_loss_db(d1_m) + e_db)
    return r_db, 10.0 ** (r_db / 10.0)


@dataclass(frozen=True)
class LinkModel:
    """Geometry and power budget of one ranging link.

    d1_m is the true sender-receiver distance, d2_m the enlargement the
    adversary wants to add, d3_m the adversary-receiver distance. e_db <= 0
    is the extra degradation the real signal suffers beyond path loss.
    sigma_n2 is the receiver noise variance in power units. The defaults
    reproduce the walk-through scenario of the `uwblab example` command.
    auth_amp and adv_amp, the square roots of worst_case_rx_power and
    adversary_rx_power, are computed once, outside eq, hash, repr and replace().
    """

    d1_m: float = 4.0
    d2_m: float = 4.5
    d3_m: float = 6.0
    e_db: float = -10.0
    p_sent: float = 7.67
    p_adv_sent: float = 15.77
    sigma_n2: float = 0.0

    def __post_init__(self):
        # each check is one that nan fails
        if not (0 < self.d1_m < math.inf and 0 < self.d3_m < math.inf):
            raise ValueError("distances out of range: need 0 < d1_m < inf and 0 < d3_m < inf")
        if not 0 <= self.d2_m < math.inf:
            raise ValueError("distances out of range: need 0 <= d2_m < inf")
        if not self.e_db <= 0:
            raise ValueError("extra degradation must be <= 0 dB")
        if not (self.p_sent >= 0 and self.p_adv_sent >= 0 and self.sigma_n2 >= 0):
            raise ValueError("powers and noise variance must be nonnegative")

    auth_amp = cached_property(lambda self: math.sqrt(worst_case_rx_power(self)))
    adv_amp = cached_property(lambda self: math.sqrt(adversary_rx_power(self)))


def worst_case_rx_power(link: LinkModel) -> float:
    """Authentic per-pulse power actually arriving (path loss plus e_db)."""
    return expected_rx_power(link.p_sent, link.d1_m, link.e_db)


def adversary_rx_power(link: LinkModel) -> float:
    """Adversary per-pulse power arriving at the receiver."""
    return expected_rx_power(link.p_adv_sent, link.d3_m, link.e_db)


def superpose(link: LinkModel, signs, phases, gain_db: float):
    """Slot amplitudes of one received frame: the one superposition rule. Draws nothing.

    signs (authentic pulses) and phases (injections, or the scalar 0 for none,
    which skips that term) hold -1, 0 or +1 per slot, one frame per row.
    Returns one fresh array, signs * link.auth_amp * 10^(gain_db / 20) plus
    phases * link.adv_amp: a frame at 0 dB, a replayed copy at the replay gain.
    """
    frame = signs * (link.auth_amp * 10.0 ** (gain_db / 20.0))
    if type(phases) is not int or phases:  # amp > 0 makes no -0.0, so + 0.0 is a no-op
        frame += phases * link.adv_amp
    return frame


def unity_link(sigma_n2: float = 0.0) -> LinkModel:
    """A link whose received sender and adversary pulses carry unit power.

    Transmit powers are back-solved from the path loss, so received powers
    are 1.0 up to float rounding. Handy for worked examples and tests where
    per-slot energies should read as small integers.
    """
    link = LinkModel(sigma_n2=sigma_n2)
    return replace(link, p_sent=1.0 / power_ratio(link.d1_m, link.e_db),
                   p_adv_sent=1.0 / power_ratio(link.d3_m, link.e_db))


def signal_to_csv(amplitudes) -> str:
    """CSV dump (slot_index, amplitude, energy) of one frame's slot amplitudes."""
    return _csv("slot_index,amplitude,energy", "%d,%.12g,%.12g",
                ((i, a, a * a) for i, a in enumerate(amplitudes)))


@dataclass(frozen=True, eq=False)
class FrameTimeline:
    """Received amplitudes at pulse-width resolution, kept only where a frame is read.

    One bin per tp_ns; slot i of a frame starting at bin s (bin s + i * stride)
    is rows[i, s]. pitch is the stride for one train from bin 0 (the default),
    or less for n rows, one around each slot. start_bin marks the authentic
    frame, lock_bin the frame start the receiver's acquisition locked onto
    (the strongest copy). A replay adds superpose() of the frame's code and
    link at its gain. amplitudes is a read-only view sharing the given array's memory.
    """

    amplitudes: np.ndarray
    start_bin: int
    lock_bin: int
    code: VerificationCode
    link: LinkModel
    pitch: int | None = None

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.float64).view()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "pitch", self.pitch or self.code.params.stride)

    @property
    def tp_ns(self) -> float:
        return self.code.params.tp_ns

    @property
    def rows(self) -> np.ndarray:
        """Read-only view: rows[i, s] = amplitudes[s + i * pitch] for each frame start s held."""
        amps, n = self.amplitudes, self.code.params.n
        if len(amps) == n * self.pitch:  # n rows that tile the record
            return amps.reshape(n, self.pitch)
        return np.ndarray((n, max(0, len(amps) - (n - 1) * self.pitch)), buffer=amps,
                          strides=(self.pitch * amps.itemsize, amps.itemsize))

    def slot_bins(self, frame_start_bin: int) -> np.ndarray:
        """Record positions of a frame's n slots; raises for a start the record does not hold."""
        if not 0 <= frame_start_bin < len(self.amplitudes) - (self.code.params.n - 1) * self.pitch:
            raise ValueError("timeline too short to hold frame start %d" % frame_start_bin)
        return frame_start_bin + np.arange(self.code.params.n) * self.pitch


def synthesize_timeline(
    code: VerificationCode,
    link: LinkModel,
    attack=None,
    noise_seed=0,
    lead_ns: float = 800.0,
    tail_ns: float = 1100.0,
) -> FrameTimeline:
    """Lay one received frame onto a timeline that records only the bins read.

    The frame starts lead_ns into the record (its time of arrival), which
    reaches lead_ns before and tail_ns after each slot, for backtracking and
    a delayed copy: one train from bin 0 where neighbouring reaches meet,
    else n rows of lead + tail + 1 bins. The slot bins receive superpose()
    of the code and the attack's phases at 0 dB. Every recorded bin
    carries independent N(0, sigma_n2) noise, drawn in bin order from
    default_rng(noise_seed), an int or a Generator drawn from in place (a
    noiseless link draws nothing). A frame's slots are amplitudes[slot_bins(start)].
    """
    params = code.params
    for name, ns in (("lead_ns", lead_ns), ("tail_ns", tail_ns)):
        if not 0 <= ns < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative")
    lead = int(round(lead_ns / params.tp_ns))
    width = lead + int(round(tail_ns / params.tp_ns)) + 1
    pitch = min(width, params.stride)
    nbins = (params.n - 1) * pitch + width
    phases = 0 if attack is None else attack.phases
    if attack is not None and len(phases) != params.n:
        raise ValueError("attack plan length must equal the frame's n")

    if link.sigma_n2 > 0:
        rng = np.random.default_rng(noise_seed)
        amps = rng.normal(0.0, math.sqrt(link.sigma_n2), size=nbins)
    else:
        amps = np.zeros(nbins)
    amps[lead:lead + params.n * pitch:pitch] += superpose(link, code.slots, phases, 0.0)
    return FrameTimeline(amplitudes=amps, start_bin=lead, lock_bin=lead,
                         code=code, link=link, pitch=pitch)

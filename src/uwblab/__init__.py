"""Desk-scale laboratory for energy-coded ranging and enlargement detection.

The package splits along the signal path: codec builds secret verification
frames, channel attenuates and superposes them, adversary injects and
replays, receiver thresholds and votes, analytic carries the closed-form
attack probabilities, montecarlo estimates them empirically, and protocol
plays a whole ranging session in one call. The cli module fronts it all.
"""

from .analytic import (
    appendix_prob_delta,
    appendix_prob_within_threshold,
    prob_evade_rcv,
    prob_noise_pass,
    prob_success,
)
from .adversary import AttackPlan, plan_attack, replay_frame
from .channel import (
    SPEED_OF_LIGHT_M_PER_NS,
    FrameTimeline,
    LinkModel,
    adversary_room,
    expected_rx_power,
    path_loss_db,
    synthesize_timeline,
    unity_link,
)
from .codec import CodeParams, VerificationCode, bins, code_from_line, code_to_line, generate_code
from .montecarlo import EstimateRow, TrialConfig, false_positive_rate, run_grid, wilson_interval
from .protocol import ProtocolState, run_session
from .receiver import (
    DetectionOutcome,
    ReceiverConfig,
    Thresholds,
    attack_plausibility,
    backtrack_detect,
    compute_thresholds,
    robust_code_verification,
)

__version__ = "0.1.0"

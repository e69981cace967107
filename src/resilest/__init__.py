"""Resilient state estimation against sparse sensor attacks.

Offline analysis (security index, redundant observability, robustness
constants), block-sparse error detection and decoding, a bank of per-sensor
partial observers with a switching decoder, and a simulation testbed with a
built-in three-inertia benchmark plant.
"""

from .analysis import (
    AnalysisReport,
    CorrectabilityError,
    RobustnessConstants,
    SystemModel,
    UnsupportedInputError,
    analyze,
    is_q_error_correctable,
    is_q_error_detectable,
    is_q_redundant_observable,
    observability_matrix,
    robustness_constants,
    security_index,
    security_index_eigenvector,
    sensor_observability_matrix,
    stacked_cospark,
)
from .decoding import (
    CandidateStack,
    DecodeResult,
    DetectionResult,
    certify_estimate,
    decode_noiseless,
    decode_noisy,
    recover_initial_state,
    residual_detect_noiseless,
    residual_detect_noisy,
)
from .estimator import (
    DecoderState,
    EstimatorAssumptionError,
    ObserverBank,
    decoder_step,
    estimator_step,
)
from .observers import (
    ErrorBoundParams,
    PartialObserver,
    compute_error_bounds,
    contracted_poles,
    default_poles,
    design_gain,
    kalman_decompose,
    v_max_at,
)
from .plant import (
    AttackSpec,
    ContinuousModel,
    ControllerConfig,
    IntegralController,
    ObserverConfig,
    Scenario,
    ScenarioValidationError,
    Trace,
    build_observer_bank,
    simulate,
    three_inertia_model,
    zoh_discretize,
)
from .stacked import CodingMatrix, IndexSet

__version__ = "0.1.0"

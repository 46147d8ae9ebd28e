"""Two-window STFT magnitude measurements on a finite grid.

The toolkit measures magnitude-only windowed Fourier data with a window pair
(phi, psi), reconstructs signals from it up to a global phase, forges the
boundary cases where that is provably impossible, and cross-checks both
against brute-force uniqueness oracles.
"""

from .signal_model import (
    GridSpec,
    OffGridError,
    PeriodicSpec,
    PhaseAlignment,
    ReflectionRangeError,
    Signal,
    conj_reflect,
    equivalent_up_to_phase,
    global_phase_align,
    is_separable,
    make_periodic,
    phase_fit,
    phase_residuals,
    random_nonseparable,
)
from .window_engine import WindowPair, WindowValidationError, build_window
from .stft_engine import (
    FrequencyGrid,
    MeasurementSet,
    TimeNodes,
    check_difference_identity,
    default_anchor,
    measure,
    measure_batch,
    windowed_segment,
)
from .local_recovery import (
    AmbiguityViolation,
    InconsistentMeasurements,
    LocalClass,
    RecoveryError,
    UnrealizableAutocorrelation,
    autocorrelation_from_magnitudes,
    direct_autocorrelation,
    enumerate_candidates,
    recover_local,
    recover_rows,
    slot_reflect,
)
from .stitcher import (
    ReconstructionReport,
    SeparableInputError,
    StitchError,
    periodic_verdict,
    reconstruct,
)
from .counterexample_forge import CLAIMS, FORGES, ForgedPair, forge
from .verifier import (
    OracleConfig,
    OracleReport,
    alphabet_family,
    is_conjugate_twist_mate,
    measurements_equal,
    pair_equivalent,
    trig_family,
    uniqueness_oracle,
)
from .acceptance import CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "Signal",
    "PhaseAlignment",
    "PeriodicSpec",
    "OffGridError",
    "ReflectionRangeError",
    "conj_reflect",
    "equivalent_up_to_phase",
    "global_phase_align",
    "is_separable",
    "make_periodic",
    "phase_fit",
    "phase_residuals",
    "random_nonseparable",
    "WindowPair",
    "WindowValidationError",
    "build_window",
    "FrequencyGrid",
    "MeasurementSet",
    "TimeNodes",
    "check_difference_identity",
    "default_anchor",
    "measure",
    "measure_batch",
    "windowed_segment",
    "AmbiguityViolation",
    "InconsistentMeasurements",
    "LocalClass",
    "RecoveryError",
    "UnrealizableAutocorrelation",
    "autocorrelation_from_magnitudes",
    "direct_autocorrelation",
    "enumerate_candidates",
    "recover_local",
    "recover_rows",
    "slot_reflect",
    "ReconstructionReport",
    "SeparableInputError",
    "StitchError",
    "periodic_verdict",
    "reconstruct",
    "CLAIMS",
    "FORGES",
    "ForgedPair",
    "forge",
    "OracleConfig",
    "OracleReport",
    "alphabet_family",
    "is_conjugate_twist_mate",
    "measurements_equal",
    "pair_equivalent",
    "trig_family",
    "uniqueness_oracle",
    "CriterionResult",
    "run_all",
]

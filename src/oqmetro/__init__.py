"""Quasiprobability metrology with incompatible qubit measurements."""

from .errors import (
    AllTrialsOmitted,
    BlochNormExceeded,
    DerivativeNotTraceless,
    DimensionMismatch,
    FlatLikelihood,
    NegativeCounts,
    NegativeOq,
    NotHermitian,
    NotNormalized,
    NotPsd,
    OqMetroError,
    OutcomeCountMismatch,
    ParamOutOfRange,
    ZeroInformation,
    ZeroQfi,
    ZeroSlope,
)
from .estimation import (
    CountTable,
    EstimatorSummary,
    TrialConfig,
    TrialResult,
    TrialSummary,
    lep_estimate,
    log_likelihood,
    mle_estimate,
    run_trials,
    sample_counts,
)
from .fisher import advantage, cri_bound, fisher_discrete, oqfi, qfi_pure
from .measurement import (
    Hovm,
    Povm,
    bloch_povm,
    build_hovm,
    busch_compatible,
    busch_equiv_hovm_check,
    hovm_is_povm,
    marginality_defect,
    mutually_unbiased_pair,
    sequential_povm,
    sharpness_threshold,
)
from .oq import is_positive, negativity, oq_slopes, oq_values
from .probe import ProbeParams, Target, amplitude_slopes, amplitudes, check_angles

__version__ = "0.1.0"

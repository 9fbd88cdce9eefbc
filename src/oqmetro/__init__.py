"""Quasiprobability metrology with incompatible qubit measurements."""

from .errors import (
    AllTrialsOmitted,
    BlochNormExceeded,
    DerivativeNotTraceless,
    NegativeOq,
    NotHermitian,
    NotNormalized,
    NotPsd,
    OqMetroError,
    OutcomeCountMismatch,
    ParamOutOfRange,
    ZeroQfi,
)
from .estimation import (
    CountTable,
    EstimatorSummary,
    TrialConfig,
    TrialResult,
    TrialSummary,
    estimate_tables,
    run_trials,
)
from .fisher import advantage, fisher_discrete, oqfi, qfi_pure
from .measurement import (
    Hovm,
    Povm,
    bloch_povm,
    build_hovm,
    busch_compatible,
    hovm_is_povm,
    mutually_unbiased_pair,
    sequential_povm,
    sharpness_threshold,
)
from .oq import negativity, oq_slopes, oq_values
from .probe import Target, amplitude_slopes, amplitudes, check_angles

__version__ = "0.1.0"

"""Quasiprobability metrology with incompatible qubit measurements.

The package root exports the names the README's examples use; every other
name is imported from its module, such as ``oqmetro.measurement``.
"""

from .estimation import TrialConfig, run_trials
from .fisher import advantage, qfi_pure
from .measurement import build_hovm, mutually_unbiased_pair, sequential_povm
from .oq import negativity, oq_slopes, oq_values
from .probe import Target, amplitudes

__version__ = "0.1.0"

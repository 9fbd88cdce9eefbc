"""Operational quasiprobability of probe states under a HOVM.

The table W(a,b) = <psi|W_ab|psi> is real (the elements are Hermitian) but
may be negative; negativity sum|W| - 1 quantifies by how much it fails to
be a probability distribution.  This module is the only place that
evaluates HOVM cells: every function works on whole arrays of amplitudes
of shape (..., 2) and returns cells of shape (..., d, d).  The batch axes
of a stacked HOVM broadcast against those of the amplitudes.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .measurement import Hovm

POSITIVITY_TOL = 1e-10

_CELLS = "...i,...abij,...j->...ab"


def _check_qubit(w: Hovm) -> None:
    if w.dim != 2:
        raise DimensionMismatch("probe states are qubits; HOVM dim must be 2")


def oq_values(w: Hovm, psi: np.ndarray) -> np.ndarray:
    """Cells W(a,b) = Re <psi|W_ab|psi>."""
    _check_qubit(w)
    return np.real(np.einsum(_CELLS, psi.conj(), w.elements, psi))


def oq_slopes(w: Hovm, psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Cell derivatives d W(a,b) / dg = 2 Re <d_g psi|W_ab|psi>."""
    _check_qubit(w)
    return 2 * np.real(np.einsum(_CELLS, dpsi.conj(), w.elements, psi))


def negativity(values: np.ndarray) -> np.ndarray:
    """sum |W(a,b)| - 1 over the last two axes."""
    return np.sum(np.abs(values), axis=(-2, -1)) - 1.0


"""Operational quasiprobability of probe states under a HOVM.

The table W(a,b) = <psi|W_ab|psi> is real (the elements are Hermitian) but
may be negative; negativity sum|W| - 1 quantifies by how much it fails to
be a probability distribution.  This module is the only place that
evaluates HOVM cells: every function works on whole arrays of amplitudes
of shape (..., 2) and returns cells of shape (..., d, d).  The batch axes
of a stacked HOVM broadcast against those of the amplitudes.

Callers evaluate a grid in blocks of at most ``BLOCK_POINTS`` probe points
per kernel call (``row_blocks``): large enough that per-call overhead does
not dominate, small enough to keep the working set small.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .measurement import Hovm

POSITIVITY_TOL = 1e-10

# the most probe points one kernel call evaluates
BLOCK_POINTS = 4096

_CELLS = "...i,...abij,...j->...ab"


def _check_qubit(w: Hovm) -> None:
    if w.dim != 2:
        raise DimensionMismatch("probe states are qubits; HOVM dim must be 2")


def row_blocks(rows: int, width: int) -> list:
    """Slices covering ``rows`` rows of ``width`` probe points each, at most
    ``BLOCK_POINTS`` points per slice but at least one row; an empty row
    counts as one point."""
    step = max(1, BLOCK_POINTS // max(width, 1))
    return [slice(s, s + step) for s in range(0, rows, step)]


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


"""Operational quasiprobability of qubit probe states under a HOVM.

The table W(a,b) = <psi|W_ab|psi> is real (the elements are Hermitian) but
may be negative; negativity sum|W| - 1 quantifies by how much it fails to
be a probability distribution.  This module is the only place that
evaluates HOVM cells: the public functions work on whole arrays of
amplitudes of shape (..., 2) and return cells of shape (..., d, d).
A ``Hovm`` is a qubit measurement by construction, so its 2 x 2 elements
always match the amplitudes.  The batch axes of a stacked HOVM broadcast
against those of the amplitudes.

One kernel (``_cells``) evaluates every cell.  It sums over the 2 x 2
amplitude and element indices with the probe-point axes innermost, so
einsum's inner loop runs over the points rather than over a length-2
index, about twice as fast on a block of points.  Each cell is the same
sum of the same triple products, in the same order, as with the points
outermost.  The kernel takes C-contiguous component-first operands: the
HOVM's ``front``, laid out once when the HOVM is built, and kets of shape
(2, ...).  einsum picks its iteration order from the operands' strides,
so a strided view could move the last bit of a cell.  ``estimation``
hands it the kets ``probe.TargetKets`` writes in that layout, and
``oq_values``/``oq_slopes``, thin wrappers over it, lay out their
amplitudes of shape (..., 2) first (a C-contiguous copy).  Its output is
component-first too: the private entry point ``_cells`` returns the real
cells in shape (d, d, ...), which ``estimation`` reads as they are, and
the wrappers move the cell axes last (another copy).

Cells are summed by one rule, one cell after another in C order from
+0.0.  ``_cell_sum``, which ``fisher`` shares, applies it to cells laid
out last.  For fewer than 8 cells (every qubit pair has 4) that is the
order numpy's ``.sum()`` takes on a C-contiguous array, bit for bit, at
about a quarter of its cost.  From 8 cells on numpy interleaves partial
sums (pairwise beyond 128), so a d >= 3 HOVM's negativity or a model of 8
or more outcomes may differ from ``.sum()`` in the last digit.  On the
kernel's component-first cells ``estimation`` applies the same rule as
one reduction over the 4 rows of a qubit table (``np.add.reduce`` with
the summed axis outermost adds whole rows in order) or, in its grid scan,
one einsum outer contraction, so each sum has ``_cell_sum``'s bits.

Callers evaluate a grid in blocks of at most ``BLOCK_POINTS`` probe points
per kernel call (``row_blocks``): large enough that per-call overhead does
not dominate, small enough to keep the working set small.
"""

from __future__ import annotations

import math

import numpy as np

from .measurement import Hovm

POSITIVITY_TOL = 1e-10

# the most probe points one kernel call evaluates
BLOCK_POINTS = 4096

_CELLS = "i...,abij...,j...->ab..."


def row_blocks(rows: int, width: int) -> list:
    """Slices covering ``rows`` rows of ``width`` probe points each, at most
    ``BLOCK_POINTS`` points per slice but at least one row; an empty row
    counts as one point."""
    step = max(1, BLOCK_POINTS // max(width, 1))
    return [slice(s, s + step) for s in range(0, rows, step)]


def _front(x: np.ndarray, k: int) -> np.ndarray:
    """x with its last k axes moved to the front, C-contiguous (a copy
    unless x already is)."""
    n = x.ndim - k
    return np.ascontiguousarray(x.transpose([*range(n, x.ndim), *range(n)]))


def _cells(w: Hovm, ket: np.ndarray, dket: np.ndarray | None = None) -> np.ndarray:
    """The kernel: cells Re <ket|W_ab|ket>, or with ``dket`` their slopes
    2 Re <dket|W_ab|ket>, for C-contiguous component-first kets of shape
    (2, ...), returned component-first in shape (d, d, ...).  The cells
    are the real view of the einsum's complex output (strided, not a
    copy), the slopes a new array."""
    bra = ket if dket is None else dket
    cells = np.real(np.einsum(_CELLS, bra.conj(), w.front, ket))
    return cells if dket is None else 2 * cells


def _cell_sum(x: np.ndarray, axes: int = 2) -> np.ndarray:
    """Sum over the last ``axes`` axes, one cell after another in C order,
    starting from +0.0 as numpy's reduction does (so cells that are all
    -0.0 sum to +0.0)."""
    batch = x.shape[:x.ndim - axes]
    x = x.reshape(batch + (math.prod(x.shape[len(batch):]),))
    total = np.zeros(batch)
    for k in range(x.shape[-1]):
        total += x[..., k]
    return total


def oq_values(w: Hovm, psi: np.ndarray) -> np.ndarray:
    """Cells W(a,b) = Re <psi|W_ab|psi>."""
    cells = _cells(w, _front(psi, 1))
    return _front(cells, cells.ndim - 2)


def oq_slopes(w: Hovm, psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Cell derivatives d W(a,b) / dg = 2 Re <d_g psi|W_ab|psi>."""
    slopes = _cells(w, _front(psi, 1), _front(dpsi, 1))
    return _front(slopes, slopes.ndim - 2)


def negativity(values: np.ndarray) -> np.ndarray:
    """sum |W(a,b)| - 1 over the last two axes."""
    return _cell_sum(np.abs(values)) - 1.0


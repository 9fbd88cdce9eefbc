"""Operational quasiprobability of qubit probe states under a HOVM.

The table W(a,b) = <psi|W_ab|psi> is real (the elements are Hermitian) but
may be negative; negativity sum|W| - 1 quantifies by how much it fails to
be a probability distribution.  This module is the only place that
evaluates HOVM cells, and it has one layout, component first: it takes
kets of shape (2, ...), as ``probe.amplitudes`` writes them, and returns
cells of shape (d, d, ...).  A ``Hovm`` is a qubit measurement by
construction, so its 2 x 2 elements always match the kets.  The batch
axes of a stacked HOVM broadcast against those of the kets.

``oq_values`` and ``oq_slopes`` are the kernel: one einsum over the 2 x 2
ket and element indices with the probe-point axes innermost, so einsum's
inner loop runs over the points rather than over a length-2 index, about
twice as fast on a block of points.  Its operands are the HOVM's
``front``, laid out once when the HOVM is built, and the kets taken
C-contiguous (a copy only of kets that are not).  einsum picks its
iteration order from the operands' strides, so a strided view, such as
masked kets ``psi[:, mask]``, would otherwise move the last bit of a
cell.  The cells are the real view of the einsum's complex output
(strided, not a copy), the slopes a new array.

Cells are summed by one rule, ``cell_sum``: over the leading cell axes,
one cell after another in C order from +0.0.  It serves ``negativity``,
``fisher`` and ``estimation``.  Fewer than 8 cells (every qubit pair has
4) are one ``np.add.reduce``, which adds whole rows in that order when
the summed axis is outermost and, below 8 terms, also when it sums
within a row; from 8 cells on numpy's reduction interleaves partial sums
(pairwise), so the cells are added one row at a time instead.

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


def oq_values(w: Hovm, psi: np.ndarray) -> np.ndarray:
    """Cells W(a,b) = Re <psi|W_ab|psi> of kets of shape (2, ...), in
    shape (d, d, ...)."""
    psi = np.ascontiguousarray(psi)
    return np.real(np.einsum(_CELLS, psi.conj(), w.front, psi))


def oq_slopes(w: Hovm, psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Cell derivatives d W(a,b) / dg = 2 Re <d_g psi|W_ab|psi>, in shape
    (d, d, ...)."""
    bra = np.ascontiguousarray(dpsi).conj()
    return 2 * np.real(np.einsum(_CELLS, bra, w.front, np.ascontiguousarray(psi)))


def cell_sum(x: np.ndarray, axes: int = 2) -> np.ndarray:
    """Sum over the leading ``axes`` axes, one cell after another in C
    order, starting from +0.0 as numpy's reduction does (so cells that are
    all -0.0 sum to +0.0)."""
    if axes > 1:
        x = x.reshape((math.prod(x.shape[:axes]),) + x.shape[axes:])
    if len(x) < 8:
        return np.add.reduce(x, axis=0, initial=0.0)
    total = np.zeros(x.shape[1:])
    for row in x:
        total += row
    return total


def negativity(values: np.ndarray) -> np.ndarray:
    """sum |W(a,b)| - 1 over the leading two axes."""
    return cell_sum(np.abs(values)) - 1.0

"""Fisher information: discrete models, quasiprobability FI, pure-state
quantum FI, Cramer-Rao bounds and the two-setting advantage figure.

``oqfi``, ``qfi_pure`` and ``advantage`` take probe amplitudes ``psi``
and their target-angle derivative ``dpsi`` of shape (..., 2) and return
one value per probe point: a plain float for a single point, an array
for a grid.  Infinite information (a vanishing cell with a nonzero
slope) is ``inf``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DerivativeNotTraceless,
    NegativeOq,
    NotNormalized,
    ZeroInformation,
    ZeroQfi,
)
from .measurement import Hovm
from .oq import POSITIVITY_TOL, negativity, oq_slopes, oq_values

PROB_FLOOR = 1e-12
DERIV_FLOOR = 1e-9


def _per_point(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def fisher_discrete(probs, derivs):
    """Sum of derivs^2 / probs over the last axis of a discrete model.

    Cells with vanishing probability contribute 0 when their derivative also
    vanishes and make the information infinite otherwise.
    """
    probs = np.asarray(probs, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    if probs.shape != derivs.shape:
        raise ValueError("probs and derivs must have equal length")
    total_p = probs.sum(axis=-1)
    bad = np.abs(total_p - 1.0) > 1e-9
    if bad.any():
        raise NotNormalized(f"probabilities sum to {total_p[bad].flat[0]:.12f}")
    total_d = derivs.sum(axis=-1)
    bad = np.abs(total_d) > 1e-9
    if bad.any():
        raise DerivativeNotTraceless(
            f"derivatives sum to {total_d[bad].flat[0]:.3e}")
    vanishing = probs <= PROB_FLOOR
    diverged = (vanishing & (np.abs(derivs) > DERIV_FLOOR)).any(axis=-1)
    terms = np.where(vanishing, 0.0,
                     derivs * derivs / np.where(vanishing, 1.0, probs))
    return _per_point(np.where(diverged, math.inf, terms.sum(axis=-1)))


def _cells(x: np.ndarray) -> np.ndarray:
    """Flatten the trailing (d, d) outcome grid into one model axis."""
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def oqfi(w: Hovm, psi, dpsi, positivity_tol: float = POSITIVITY_TOL):
    """Fisher information of the quasiprobability model.

    Defined only where the quasiprobability is positive; raises NegativeOq
    if any point is negative.
    """
    values = oq_values(w, psi)
    neg = negativity(values)
    bad = neg > positivity_tol
    if bad.any():
        raise NegativeOq(
            f"negativity {neg[bad].flat[0]:.3e} exceeds {positivity_tol:.1e}"
        )
    return fisher_discrete(_cells(values), _cells(oq_slopes(w, psi, dpsi)))


def _inner(u, v):
    """<u|v> over the last axis; matmul rounds like np.vdot, einsum does not."""
    return (u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]


def qfi_pure(psi, dpsi):
    """Quantum Fisher information 4(<d psi|d psi> - |<psi|d psi>|^2)."""
    dd = np.real(_inner(dpsi, dpsi))
    overlap = _inner(psi, dpsi)
    # re^2 + im^2 rounds the same for one point and for a batch; numpy's
    # complex abs does not
    sq = overlap.real * overlap.real + overlap.imag * overlap.imag
    return _per_point(4 * (dd - sq))


def advantage(w: Hovm, psi, dpsi):
    """log10 of the quasiprobability FI over twice the quantum FI.

    The factor 2 accounts for the two measurement settings consuming twice
    the sample budget of a single optimal measurement.  Raises ZeroQfi if
    the quantum information vanishes at any point.
    """
    q = qfi_pure(psi, dpsi)
    if np.any(q <= 0):
        raise ZeroQfi("quantum Fisher information vanishes; advantage undefined")
    ratios = np.divide(oqfi(w, psi, dpsi), 2 * q)
    # math.log10 keeps the last digit independent of numpy's SIMD dispatch
    logs = [math.log10(r) if r > 0 else -math.inf for r in ratios.flat]
    return _per_point(np.reshape(logs, ratios.shape))


def cri_bound(fi: float, n: int) -> float:
    """Cramer-Rao lower bound 1 / (n * FI); 0 for infinite information."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if math.isinf(fi):
        return 0.0
    if fi <= 0:
        raise ZeroInformation("Fisher information is zero; bound undefined")
    return 1.0 / (n * fi)

"""Fisher information: discrete models, quasiprobability FI, pure-state
quantum FI and the two-setting advantage figure.

Arrays in, numbers out, with the model axes first as ``oq`` lays them out:
``fisher_discrete`` takes a model's outcomes along the first axis (a 1-d
model as before; a stack of models now has its outcome axis first, not
last), ``oqfi`` and ``advantage`` take quasiprobability cells ``values``
and their target-angle slopes ``slopes`` of shape (d, d, ...), as
``oq.oq_values`` and ``oq.oq_slopes`` return them, and ``qfi_pure`` takes
probe kets ``psi`` and their slope ``dpsi`` of shape (2, ...).  Each
returns one value per probe point: a plain float for a single point, an
array for a grid.  Infinite information (a vanishing cell with a nonzero
slope) is ``inf``.  This module evaluates no measurement; its callers
evaluate each probe point once and hand the cells on.  Sums over a
model's outcomes follow ``oq``'s one rule, ``cell_sum``, and ``advantage``
takes ``math.log10`` of the positive ratios only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DerivativeNotTraceless, NegativeOq, NotNormalized, ZeroQfi
from .oq import POSITIVITY_TOL, cell_sum, negativity

PROB_FLOOR = 1e-12
DERIV_FLOOR = 1e-9


def _per_point(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def fisher_discrete(probs, derivs):
    """Sum of derivs^2 / probs over the first axis of a discrete model.

    Cells with vanishing probability contribute 0 when their derivative also
    vanishes and make the information infinite otherwise.
    """
    probs = np.asarray(probs, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    if probs.shape != derivs.shape:
        raise ValueError("probs and derivs must have equal length")
    total_p = cell_sum(probs, 1)
    bad = np.abs(total_p - 1.0) > 1e-9
    if bad.any():
        raise NotNormalized(f"probabilities sum to {total_p[bad].flat[0]:.12f}")
    total_d = cell_sum(derivs, 1)
    bad = np.abs(total_d) > 1e-9
    if bad.any():
        raise DerivativeNotTraceless(
            f"derivatives sum to {total_d[bad].flat[0]:.3e}")
    vanishing = probs <= PROB_FLOOR
    diverged = (vanishing & (np.abs(derivs) > DERIV_FLOOR)).any(axis=0)
    terms = np.where(vanishing, 0.0,
                     derivs * derivs / np.where(vanishing, 1.0, probs))
    return _per_point(np.where(diverged, math.inf, cell_sum(terms, 1)))


def oqfi(values, slopes):
    """Fisher information of the quasiprobability model with cells
    ``values`` and their slopes ``slopes``.

    Defined only where the quasiprobability is positive; raises NegativeOq
    if any point is negative.
    """
    neg = negativity(values)
    bad = neg > POSITIVITY_TOL
    if bad.any():
        raise NegativeOq(
            f"negativity {neg[bad].flat[0]:.3e} exceeds {POSITIVITY_TOL:.1e}"
        )
    # the (d, d) outcome grid as one model axis
    model = (values.shape[0] * values.shape[1],) + values.shape[2:]
    return fisher_discrete(values.reshape(model), slopes.reshape(model))


def _inner(u, v):
    """<u|v> over the first axis, taken last as a view; matmul rounds like
    np.vdot, einsum does not."""
    last = (*range(1, u.ndim), 0)
    u, v = u.transpose(last), v.transpose(last)
    return (u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]


def qfi_pure(psi, dpsi):
    """Quantum Fisher information 4(<d psi|d psi> - |<psi|d psi>|^2)."""
    dd = np.real(_inner(dpsi, dpsi))
    overlap = _inner(psi, dpsi)
    # re^2 + im^2 rounds the same for one point and for a batch; numpy's
    # complex abs does not
    sq = overlap.real * overlap.real + overlap.imag * overlap.imag
    return _per_point(4 * (dd - sq))


def advantage(values, slopes, qfi):
    """log10 of the quasiprobability FI over twice the quantum FI ``qfi``.

    The factor 2 accounts for the two measurement settings consuming twice
    the sample budget of a single optimal measurement.  Raises ZeroQfi if
    the quantum information vanishes at any point, then NegativeOq if the
    quasiprobability is negative at any point.
    """
    if np.any(qfi <= 0):
        raise ZeroQfi("quantum Fisher information vanishes; advantage undefined")
    ratios = np.divide(oqfi(values, slopes), 2 * qfi)
    # math.log10 keeps the last digit independent of numpy's SIMD dispatch;
    # a ratio that is not positive (nan included) gives -inf
    positive = ratios > 0
    logs = np.full(np.shape(ratios), -math.inf)
    logs[positive] = list(map(math.log10, ratios[positive].tolist()))
    return _per_point(logs)


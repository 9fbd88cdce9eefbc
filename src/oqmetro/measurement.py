"""POVM / HOVM data model and compatibility predicates.

A ``Povm`` is a list of PSD effects summing to the identity.  A ``Hovm``
relaxes positivity: its elements need only be Hermitian, and the grid as a
whole sums to the identity.  The HOVM built from a pair of local
measurements and a conjunction measurement is the operator form of the
operational quasiprobability; whether it is itself a POVM decides
compatibility of the pair (for qubits, equivalently the Busch criterion).

Measurements carry leading batch axes: ``Povm.effects`` has shape
(..., outcomes, dim, dim) and ``Hovm.elements`` (..., d, d, dim, dim), so
a stack of measurements (one per sharpness value, say) is built in one
array pass.  A single measurement has batch shape ().  The builders
broadcast the batch axes of their inputs.

Operators are checked once per stack, when a ``Povm`` or ``Hovm`` is
constructed, with one check per condition over all its effects or
elements; one bad entry refuses the whole stack.
Everything built from validated measurements relies on those checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BlochNormExceeded,
    DimensionMismatch,
    NotHermitian,
    NotPsd,
    OutcomeCountMismatch,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)

# Entrywise tolerance of the Hermitian check, and the eigenvalue tolerance
# of the PSD check: eigenvalues in [-HERMITIAN_TOL, 0) are float noise.
HERMITIAN_TOL = 1e-10
IDENTITY_TOL = 1e-10


def _hermitian(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (..., dim, dim) stack is within
    HERMITIAN_TOL of its adjoint, entrywise."""
    adjoint = stack.conj().swapaxes(-1, -2)
    return np.abs(stack - adjoint).max(axis=(-2, -1)) <= HERMITIAN_TOL


def _psd(stack: np.ndarray, tol: float) -> np.ndarray:
    """Whether the least eigenvalue of each Hermitian matrix of a
    (..., dim, dim) stack is >= -tol."""
    return np.linalg.eigvalsh(stack)[..., 0] >= -tol


def _sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square roots of a (..., dim, dim) stack of validated POVM
    effects; eigenvalues in [-HERMITIAN_TOL, 0) are clamped to 0 first."""
    vals, vecs = np.linalg.eigh(m)
    vals = np.where(vals < 0.0, 0.0, vals)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD effects summing to identity.

    ``effects`` has shape (..., outcomes, dim, dim); it may be given as a
    sequence of (dim, dim) effects of one measurement.
    """

    effects: np.ndarray

    def __post_init__(self):
        effects = self.effects
        if not isinstance(effects, np.ndarray):
            effects = [np.asarray(e, dtype=complex) for e in effects]
            for e in effects:
                if e.ndim != 2 or e.shape[0] != e.shape[1]:
                    raise ValueError(f"expected a square matrix, got shape {e.shape}")
            if len({e.shape for e in effects}) > 1:
                raise DimensionMismatch("effects act on different dimensions")
        stack = np.array(effects, dtype=complex)
        if stack.ndim < 3 or stack.shape[-1] != stack.shape[-2] or not stack.shape[-3]:
            raise ValueError(f"expected one or more square effects, got {stack.shape}")
        if not _hermitian(stack).all():
            raise NotHermitian("POVM effect is not Hermitian")
        if not _psd(stack, HERMITIAN_TOL).all():
            raise NotPsd("POVM effect is not PSD")
        if (np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1])) > IDENTITY_TOL).any():
            raise ValueError("POVM effects do not sum to the identity")
        # a read-only private copy keeps the checks valid for good
        stack.setflags(write=False)
        object.__setattr__(self, "effects", stack)

    @property
    def outcomes(self) -> int:
        return self.effects.shape[-3]

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]


@dataclass(frozen=True)
class Hovm:
    """Hermitian operator-valued measure on a d x d outcome grid.

    ``elements`` has shape (..., d, d, dim, dim); elements may fail positivity.
    """

    elements: np.ndarray

    def __post_init__(self):
        el = np.array(self.elements, dtype=complex)
        if el.ndim < 4 or el.shape[-4] != el.shape[-3] or el.shape[-2] != el.shape[-1]:
            raise ValueError(f"expected shape (..., d, d, dim, dim), got {el.shape}")
        bad = np.argwhere(~_hermitian(el))
        if len(bad):
            a, b = bad[0][-2:]
            raise NotHermitian(f"HOVM element ({a},{b}) is not Hermitian")
        total = el.sum(axis=(-4, -3))
        if (np.abs(total - np.eye(el.shape[-1])) > IDENTITY_TOL).any():
            raise ValueError("HOVM elements do not sum to the identity")
        el.setflags(write=False)
        object.__setattr__(self, "elements", el)

    @property
    def d(self) -> int:
        return self.elements.shape[-3]

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]


def bloch_povm(bloch) -> Povm:
    """Two-outcome qubit POVMs with effects (1 + (-1)^a bloch.sigma) / 2,
    one per Bloch vector of a (..., 3) stack."""
    v = np.asarray(bloch, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError("bloch vector must have 3 components")
    norm = np.linalg.norm(v, axis=-1)
    # written so that a vector with a nan or inf entry fails it too
    bad = ~(norm <= 1 + 1e-12)
    if bad.any():
        raise BlochNormExceeded(f"Bloch norm {norm[bad].flat[0]:.6f} > 1")
    vs = sum(v[..., k, None, None] * p for k, p in enumerate(PAULI))
    eye = np.eye(2, dtype=complex)
    return Povm(np.stack(((eye + vs) / 2, (eye - vs) / 2), axis=-3))


def mutually_unbiased_pair(sharpness) -> tuple[Povm, Povm]:
    """The z/x noisy-projective pair with common sharpness, one pair per
    entry of an array of sharpness values."""
    s = np.asarray(sharpness, dtype=float)[..., None]
    zero = np.zeros_like(s)
    return (bloch_povm(np.concatenate((zero, zero, s), axis=-1)),
            bloch_povm(np.concatenate((s, zero, zero), axis=-1)))


def sequential_povm(first: Povm, second: Povm) -> Povm:
    """Measure ``first`` then ``second``: effects sqrt(A_a) B_b sqrt(A_a).

    Outcomes are indexed (a, b) row-major: flat index a * second.outcomes + b.
    The marginal over b reproduces ``first`` exactly.
    """
    if first.dim != second.dim:
        raise DimensionMismatch("POVMs act on different dimensions")
    roots = _sqrt(first.effects)[..., :, None, :, :]
    effects = (roots @ second.effects[..., None, :, :, :]) @ roots
    return Povm(effects.reshape(effects.shape[:-4] + (
        first.outcomes * second.outcomes, first.dim, first.dim)))


def build_hovm(a: Povm, b: Povm, c: Povm) -> Hovm:
    """Assemble the quasiprobability measure from locals A, B and conjunction C.

    W_ab = C_ab + (A_a - sum_b C_ab) / d + (B_b - sum_a C_ab) / d.
    The marginals of the result reproduce A and B for any valid C.
    """
    if a.dim != b.dim or a.dim != c.dim:
        raise DimensionMismatch("measurements act on different dimensions")
    d = a.outcomes
    if b.outcomes != d:
        raise OutcomeCountMismatch("A and B must have the same outcome count")
    if c.outcomes != d * d:
        raise OutcomeCountMismatch(f"conjunction must have {d * d} outcomes")
    grid = c.effects.reshape(c.effects.shape[:-3] + (d, d, a.dim, a.dim))
    marg_a = grid.sum(axis=-3)  # sum over b, indexed by a
    marg_b = grid.sum(axis=-4)  # sum over a, indexed by b
    fix_a = (a.effects - marg_a) / d
    fix_b = (b.effects - marg_b) / d
    return Hovm((grid + fix_a[..., :, None, :, :]) + fix_b[..., None, :, :, :])


def hovm_is_povm(w: Hovm, tol: float = HERMITIAN_TOL) -> bool:
    """True iff every HOVM element is PSD to the given tolerance."""
    return bool(_psd(w.elements, tol).all())


def busch_compatible(mu, nu) -> bool:
    """Qubit two-outcome compatibility: |mu+nu| + |mu-nu| <= 2."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not (np.linalg.norm(mu) <= 1 + 1e-12 and np.linalg.norm(nu) <= 1 + 1e-12):
        raise BlochNormExceeded("Bloch norms must be <= 1")
    return np.linalg.norm(mu + nu) + np.linalg.norm(mu - nu) <= 2 + 1e-12


def sharpness_threshold(mu_dir, nu_dir) -> float | None:
    """The common sharpness where the sequential HOVM stops being a POVM.

    Directions are normalized.  The pair ``lam * mu``, ``lam * nu`` meets
    the Busch boundary at lam = 2 / (|mu + nu| + |mu - nu|); since
    (|mu + nu| + |mu - nu|)^2 = 4 (1 + |mu x nu|) for unit vectors, that is
    sqrt(1 / (1 + |mu x nu|)), which stays accurate for nearly parallel
    and orthogonal pairs alike.  Returns None when the boundary is not
    below full sharpness (parallel or antiparallel directions).
    """
    mu_dir = np.asarray(mu_dir, dtype=float)
    nu_dir = np.asarray(nu_dir, dtype=float)
    mu_dir = mu_dir / np.linalg.norm(mu_dir)
    nu_dir = nu_dir / np.linalg.norm(nu_dir)
    sine = np.linalg.norm(np.cross(mu_dir, nu_dir))
    boundary = float(np.sqrt(1.0 / (1.0 + sine)))
    return None if boundary >= 1.0 else boundary

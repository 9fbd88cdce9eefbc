"""POVM / HOVM data model and compatibility predicates.

A ``Povm`` is a list of PSD effects summing to the identity.  A ``Hovm``
relaxes positivity: its elements need only be Hermitian, and the grid as a
whole sums to the identity.  The HOVM built from a pair of local
measurements and a conjunction measurement is the operator form of the
operational quasiprobability; whether it is itself a POVM decides
compatibility of the pair (for qubits, equivalently the Busch criterion).

Operators are checked once, when a ``Povm`` or ``Hovm`` is constructed,
with one check per condition over the whole stack of its effects or
elements.
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
    """Principal square root of a validated POVM effect; eigenvalues in
    [-HERMITIAN_TOL, 0) are clamped to 0 first."""
    vals, vecs = np.linalg.eigh(m)
    vals = np.where(vals < 0.0, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD effects summing to identity."""

    effects: tuple

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        for e in effects:
            if e.ndim != 2 or e.shape[0] != e.shape[1]:
                raise ValueError(f"expected a square matrix, got shape {e.shape}")
        dim = effects[0].shape[0]
        if any(e.shape[0] != dim for e in effects):
            raise DimensionMismatch("effects act on different dimensions")
        stack = np.array(effects)
        if not _hermitian(stack).all():
            raise NotHermitian("POVM effect is not Hermitian")
        if not _psd(stack, HERMITIAN_TOL).all():
            raise NotPsd("POVM effect is not PSD")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(dim))) > IDENTITY_TOL:
            raise ValueError("POVM effects do not sum to the identity")
        # read-only views of a private copy keep the checks valid for good
        stack.setflags(write=False)
        object.__setattr__(self, "effects", tuple(stack))

    @property
    def outcomes(self) -> int:
        return len(self.effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


@dataclass(frozen=True)
class Hovm:
    """Hermitian operator-valued measure on a d x d outcome grid.

    ``elements`` has shape (d, d, dim, dim); elements may fail positivity.
    """

    elements: np.ndarray

    def __post_init__(self):
        el = np.array(self.elements, dtype=complex)
        if el.ndim != 4 or el.shape[0] != el.shape[1] or el.shape[2] != el.shape[3]:
            raise ValueError(f"expected shape (d, d, dim, dim), got {el.shape}")
        bad = np.argwhere(~_hermitian(el))
        if len(bad):
            a, b = bad[0]
            raise NotHermitian(f"HOVM element ({a},{b}) is not Hermitian")
        total = el.sum(axis=(0, 1))
        if np.max(np.abs(total - np.eye(el.shape[2]))) > IDENTITY_TOL:
            raise ValueError("HOVM elements do not sum to the identity")
        el.setflags(write=False)
        object.__setattr__(self, "elements", el)

    @property
    def d(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[2]


def bloch_povm(bloch) -> Povm:
    """Two-outcome qubit POVM with effects (1 + (-1)^a bloch.sigma) / 2."""
    v = np.asarray(bloch, dtype=float)
    if v.shape != (3,):
        raise ValueError("bloch vector must have 3 components")
    # written so that a vector with a nan or inf entry fails it too
    if not np.linalg.norm(v) <= 1 + 1e-12:
        raise BlochNormExceeded(f"Bloch norm {np.linalg.norm(v):.6f} > 1")
    vs = sum(c * p for c, p in zip(v, PAULI))
    eye = np.eye(2, dtype=complex)
    return Povm(((eye + vs) / 2, (eye - vs) / 2))


def mutually_unbiased_pair(sharpness: float) -> tuple[Povm, Povm]:
    """The z/x noisy-projective pair with common sharpness."""
    return bloch_povm((0.0, 0.0, sharpness)), bloch_povm((sharpness, 0.0, 0.0))


def sequential_povm(first: Povm, second: Povm) -> Povm:
    """Measure ``first`` then ``second``: effects sqrt(A_a) B_b sqrt(A_a).

    Outcomes are indexed (a, b) row-major: flat index a * second.outcomes + b.
    The marginal over b reproduces ``first`` exactly.
    """
    if first.dim != second.dim:
        raise DimensionMismatch("POVMs act on different dimensions")
    roots = [_sqrt(ea) for ea in first.effects]
    return Povm(tuple(root @ eb @ root for root in roots for eb in second.effects))


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
    grid = np.array(c.effects).reshape(d, d, a.dim, a.dim)
    marg_a = grid.sum(axis=1)  # sum over b, indexed by a
    marg_b = grid.sum(axis=0)  # sum over a, indexed by b
    fix_a = (np.array(a.effects) - marg_a) / d
    fix_b = (np.array(b.effects) - marg_b) / d
    return Hovm((grid + fix_a[:, None]) + fix_b[None, :])


def marginality_defect(w, a: Povm, b: Povm) -> float:
    """Worst entrywise deviation of the HOVM marginals from A and B.

    Accepts a ``Hovm`` or a raw (d, d, dim, dim) grid, so deliberately
    defective grids can be scored too.
    """
    elements = w.elements if isinstance(w, Hovm) else np.asarray(w, dtype=complex)
    d, dim = elements.shape[0], elements.shape[2]
    if dim != a.dim or dim != b.dim:
        raise DimensionMismatch("dimension mismatch")
    if d != a.outcomes or d != b.outcomes:
        raise OutcomeCountMismatch("outcome-count mismatch")
    defect_a = np.abs(elements.sum(axis=1) - np.array(a.effects)).max()
    defect_b = np.abs(elements.sum(axis=0) - np.array(b.effects)).max()
    return float(max(defect_a, defect_b))


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


def busch_equiv_hovm_check(mu, nu) -> bool:
    """Runnable equivalence of the Busch criterion and HOVM positivity.

    Builds W from the sequential conjunction of the Bloch pair and compares
    the two compatibility predicates; always true when both are correct.
    """
    a = bloch_povm(mu)
    b = bloch_povm(nu)
    w = build_hovm(a, b, sequential_povm(a, b))
    return busch_compatible(mu, nu) == hovm_is_povm(w)


def sharpness_threshold(mu_dir, nu_dir, tol: float = 1e-9) -> float | None:
    """Bisect the common sharpness where the sequential HOVM stops being a POVM.

    Directions are normalized; returns None if W stays a POVM up to full
    sharpness.
    """
    mu_dir = np.asarray(mu_dir, dtype=float)
    nu_dir = np.asarray(nu_dir, dtype=float)
    mu_dir = mu_dir / np.linalg.norm(mu_dir)
    nu_dir = nu_dir / np.linalg.norm(nu_dir)

    def povm_at(s: float) -> bool:
        a = bloch_povm(s * mu_dir)
        b = bloch_povm(s * nu_dir)
        return hovm_is_povm(build_hovm(a, b, sequential_povm(a, b)))

    if povm_at(1.0):
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if povm_at(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


"""POVM / HOVM data model and compatibility predicates.

A ``Povm`` is a list of PSD effects summing to the identity.  A ``Hovm``
relaxes positivity: its elements need only be Hermitian, and the grid as a
whole sums to the identity.  The HOVM built from a pair of local
measurements and a conjunction measurement is the operator form of the
operational quasiprobability; whether it is itself a POVM decides
compatibility of the pair (for qubits, equivalently the Busch criterion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
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

IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD effects summing to identity."""

    effects: tuple

    def __post_init__(self):
        effects = tuple(linalg.as_matrix(e) for e in self.effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        dim = effects[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in effects:
            if e.shape[0] != dim:
                raise DimensionMismatch("effects act on different dimensions")
            if not linalg.is_hermitian(e, 1e-10):
                raise NotHermitian("POVM effect is not Hermitian")
            if not linalg.is_psd(e, 1e-10):
                raise NotPsd("POVM effect is not PSD")
            total = total + e
        if np.max(np.abs(total - np.eye(dim))) > IDENTITY_TOL:
            raise ValueError("POVM effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)

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
        el = np.asarray(self.elements, dtype=complex)
        if el.ndim != 4 or el.shape[0] != el.shape[1] or el.shape[2] != el.shape[3]:
            raise ValueError(f"expected shape (d, d, dim, dim), got {el.shape}")
        for a in range(el.shape[0]):
            for b in range(el.shape[1]):
                if not linalg.is_hermitian(el[a, b], 1e-10):
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
    if np.linalg.norm(v) > 1 + 1e-12:
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
    effects = []
    for ea in first.effects:
        root = linalg.psd_sqrt(ea)
        for eb in second.effects:
            effects.append(root @ eb @ root)
    return Povm(tuple(effects))


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
    grid = np.array(
        [[c.effects[i * d + j] for j in range(d)] for i in range(d)], dtype=complex
    )
    marg_a = grid.sum(axis=1)  # sum over b, indexed by a
    marg_b = grid.sum(axis=0)  # sum over a, indexed by b
    w = np.empty_like(grid)
    for i in range(d):
        for j in range(d):
            w[i, j] = (
                grid[i, j]
                + (a.effects[i] - marg_a[i]) / d
                + (b.effects[j] - marg_b[j]) / d
            )
    return Hovm(w)


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
    defect = 0.0
    sum_b = elements.sum(axis=1)
    sum_a = elements.sum(axis=0)
    for i in range(d):
        defect = max(defect, float(np.max(np.abs(sum_b[i] - a.effects[i]))))
        defect = max(defect, float(np.max(np.abs(sum_a[i] - b.effects[i]))))
    return defect


def hovm_is_povm(w: Hovm, tol: float = 1e-10) -> bool:
    """True iff every HOVM element is PSD to the given tolerance."""
    return all(
        linalg.is_psd(w.elements[i, j], tol)
        for i in range(w.d)
        for j in range(w.d)
    )


def busch_compatible(mu, nu) -> bool:
    """Qubit two-outcome compatibility: |mu+nu| + |mu-nu| <= 2."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if np.linalg.norm(mu) > 1 + 1e-12 or np.linalg.norm(nu) > 1 + 1e-12:
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
    return busch_compatible(mu, nu) == hovm_is_povm(w, 1e-10)


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
        return hovm_is_povm(build_hovm(a, b, sequential_povm(a, b)), 1e-10)

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


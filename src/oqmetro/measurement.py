"""Qubit POVM / HOVM data model and compatibility predicates.

A ``Povm`` is a list of PSD qubit effects summing to the identity.  A
``Hovm`` relaxes positivity: its elements need only be Hermitian, and the
grid as a whole sums to the identity.  The HOVM built from a pair of local
measurements and a conjunction measurement is the operator form of the
operational quasiprobability; whether it is itself a POVM decides
compatibility of the pair (for qubits, equivalently the Busch criterion).

Operators are 2 x 2 (the probes are qubits); any other size is refused
with ``ValueError``.  Measurements carry leading batch axes:
``Povm.effects`` has shape (..., outcomes, 2, 2) and ``Hovm.elements``
(..., d, d, 2, 2), so a stack of measurements (one per sharpness value,
say) is built in one array pass.  A single measurement has batch shape
().  The builders broadcast the batch axes of their inputs.

Operators are checked once per stack, when a ``Povm`` or ``Hovm`` is
constructed, with one check per condition over all its effects or
elements; one bad entry refuses the whole stack.
A Bloch vector has one check, ``_bloch``: it must have 3 components and
be finite with norm <= 1 + 1e-12.  ``bloch_povm`` and ``busch_compatible``
run it, and ``sharpness_threshold`` runs its shape part on its
directions, which must be single vectors, finite and nonzero.  ``bloch_povm`` then keeps
the effects (1 +- v.sigma) / 2 unchecked (``_derived``), since that norm
implies all three ``Povm`` conditions (see ``bloch_povm``).
Everything built from validated measurements relies on those checks:
``sequential_povm`` and ``build_hovm`` keep their results unchecked
too.  Checking them again could refuse valid inputs: an
effect's square root is taken with its eigenvalues in
[-HERMITIAN_TOL, 0) clamped to 0, which moves the sequential effects'
sum off the identity by up to HERMITIAN_TOL per clamped effect.
The Hermitian check is the full rule max |M - M^dagger| <= HERMITIAN_TOL
and the PSD check a closed form in the entries of each 2 x 2 operator
(c0 - |c| >= -HERMITIAN_TOL for c0 I + c.sigma), so validation calls no
eigensolver.  Matrix products are explicit sums of entry products in
index order (``_mul``), one array pass per term instead of one BLAS call
per matrix; the one LAPACK call left is ``_sqrt``'s ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlochNormExceeded,
    NotHermitian,
    NotPsd,
    OutcomeCountMismatch,
)

# Entrywise tolerance of the Hermitian check, and the eigenvalue tolerance
# of the PSD check: eigenvalues in [-HERMITIAN_TOL, 0) are float noise.
HERMITIAN_TOL = 1e-10
IDENTITY_TOL = 1e-10


def _hermitian(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix M of a (..., 2, 2) stack has
    max |M - M^dagger| <= HERMITIAN_TOL; a nan or inf entry fails."""
    skew = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return skew <= HERMITIAN_TOL


def _psd(stack: np.ndarray, tol: float) -> np.ndarray:
    """Whether the least eigenvalue of each Hermitian matrix of a
    (..., 2, 2) stack is >= -tol.

    A Hermitian qubit operator is c0 I + c.sigma, with eigenvalues
    c0 +- |c|; in its entries (diagonal a, d and lower off-diagonal b, the
    entries a Hermitian eigensolver reads) the least one is
    (a + d) / 2 - hypot((a - d) / 2, |b|); hypot keeps huge entries from
    overflowing.
    """
    a, d = stack[..., 0, 0].real, stack[..., 1, 1].real
    least = (a + d) / 2 - np.hypot((a - d) / 2, np.abs(stack[..., 1, 0]))
    return least >= -tol


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix products of two broadcast (..., n, n) stacks, each entry the
    sum of its n entry products added in index order.

    One array pass per term, where ``@`` makes one BLAS call per matrix.
    """
    out = x[..., :, 0, None] * y[..., None, 0, :]
    for k in range(1, x.shape[-1]):
        out += x[..., :, k, None] * y[..., None, k, :]
    return out


def _sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square roots of a (..., dim, dim) stack of validated POVM
    effects; eigenvalues in [-HERMITIAN_TOL, 0) are clamped to 0 first."""
    vals, vecs = np.linalg.eigh(m)
    vals = np.where(vals < 0.0, 0.0, vals)
    return _mul(vecs * np.sqrt(vals)[..., None, :], vecs.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD qubit effects summing to 1.

    ``effects`` has shape (..., outcomes, 2, 2); it may be given as a
    sequence of the 2 x 2 effects of one measurement.
    """

    effects: np.ndarray

    def __post_init__(self):
        stack = np.array(self.effects, dtype=complex)
        if stack.ndim < 3 or stack.shape[-2:] != (2, 2) or not stack.shape[-3]:
            raise ValueError(f"expected one or more 2x2 effects, got {stack.shape}")
        if not _hermitian(stack).all():
            raise NotHermitian("POVM effect is not Hermitian")
        if not _psd(stack, HERMITIAN_TOL).all():
            raise NotPsd("POVM effect is not PSD")
        if (np.abs(stack.sum(axis=-3) - np.eye(2)) > IDENTITY_TOL).any():
            raise ValueError("POVM effects do not sum to the identity")
        self._keep(stack)

    def _keep(self, stack: np.ndarray) -> None:
        # a read-only private copy keeps the checks valid for good
        stack.setflags(write=False)
        object.__setattr__(self, "effects", stack)

    @property
    def outcomes(self) -> int:
        return self.effects.shape[-3]


@dataclass(frozen=True)
class Hovm:
    """Hermitian operator-valued measure on a d x d outcome grid.

    ``elements`` has shape (..., d, d, 2, 2); elements may fail positivity.
    ``front`` holds the same elements component first, with shape
    (d, d, 2, 2, ...), C-contiguous and read-only: the operand the cell
    kernel takes, laid out once per measurement rather than per call.
    """

    elements: np.ndarray
    front: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        el = np.array(self.elements, dtype=complex)
        if el.ndim < 4 or el.shape[-4] != el.shape[-3] or el.shape[-2:] != (2, 2):
            raise ValueError(f"expected shape (..., d, d, 2, 2), got {el.shape}")
        bad = np.argwhere(~_hermitian(el))
        if len(bad):
            a, b = bad[0][-2:]
            raise NotHermitian(f"HOVM element ({a},{b}) is not Hermitian")
        total = el.sum(axis=(-4, -3))
        if (np.abs(total - np.eye(2)) > IDENTITY_TOL).any():
            raise ValueError("HOVM elements do not sum to the identity")
        self._keep(el)

    def _keep(self, el: np.ndarray) -> None:
        el.setflags(write=False)
        object.__setattr__(self, "elements", el)
        n = el.ndim - 4
        front = np.ascontiguousarray(el.transpose([*range(n, el.ndim), *range(n)]))
        front.setflags(write=False)
        object.__setattr__(self, "front", front)


def _derived(cls, array: np.ndarray):
    """A ``Povm`` or ``Hovm`` holding ``array``, a new array built from
    validated measurements, without checking it again."""
    measurement = object.__new__(cls)
    measurement._keep(array)
    return measurement


def _three(v) -> np.ndarray:
    """v as a float array of 3-component vectors, shape (..., 3)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError("bloch vector must have 3 components")
    return v


def _bloch(bloch) -> np.ndarray:
    """A (..., 3) stack of Bloch vectors, refused with BlochNormExceeded
    unless each is finite with |v| <= 1 + 1e-12."""
    v = _three(bloch)
    with np.errstate(over="ignore"):  # an overflowed norm is inf, and > 1
        norm = np.linalg.norm(v, axis=-1)
    # written so that a vector with a nan or inf entry fails it too
    bad = ~(norm <= 1 + 1e-12)
    if bad.any():
        first, shown = v[bad][0], norm[bad].flat[0]
        scale = np.abs(first).max()
        if shown == np.inf and scale < np.inf:
            # a finite vector whose squares overflowed: scale them down
            shown = scale * np.linalg.norm(first / scale)
        raise BlochNormExceeded(f"Bloch norm {shown:.6f} > 1")
    return v


def bloch_povm(bloch) -> Povm:
    """Two-outcome qubit POVMs with effects (1 + (-1)^a bloch.sigma) / 2,
    one per Bloch vector of a (..., 3) stack.

    The norm is the one check (``_bloch``): each vector v must be finite
    with |v| <= 1 + 1e-12, and then its effects pass every ``Povm`` check,
    so they are kept without one.  They are Hermitian to the last bit: with
    real coefficients the off-diagonal entries of v.sigma are exact
    conjugates and its diagonal imaginary parts are zeros.  Their least
    eigenvalue is (1 - |v|) / 2 >= -5e-13, far above -HERMITIAN_TOL.  And
    their sum is within one ulp of the identity in each entry.
    """
    v = _bloch(bloch)
    x, y, z = np.moveaxis(v, -1, 0)
    vs = np.stack((z, x - 1j * y, x + 1j * y, -z), axis=-1).reshape(x.shape + (2, 2))
    eye = np.eye(2, dtype=complex)
    return _derived(Povm, np.stack(((eye + vs) / 2, (eye - vs) / 2), axis=-3))


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
    roots = _sqrt(first.effects)[..., :, None, :, :]
    effects = _mul(_mul(roots, second.effects[..., None, :, :, :]), roots)
    return _derived(Povm, effects.reshape(effects.shape[:-4] + (
        first.outcomes * second.outcomes, 2, 2)))


def build_hovm(a: Povm, b: Povm, c: Povm) -> Hovm:
    """Assemble the quasiprobability measure from locals A, B and conjunction C.

    W_ab = C_ab + (A_a - sum_b C_ab) / d + (B_b - sum_a C_ab) / d.
    The marginals of the result reproduce A and B for any valid C.
    """
    d = a.outcomes
    if b.outcomes != d:
        raise OutcomeCountMismatch("A and B must have the same outcome count")
    if c.outcomes != d * d:
        raise OutcomeCountMismatch(f"conjunction must have {d * d} outcomes")
    grid = c.effects.reshape(c.effects.shape[:-3] + (d, d, 2, 2))
    marg_a = grid.sum(axis=-3)  # sum over b, indexed by a
    marg_b = grid.sum(axis=-4)  # sum over a, indexed by b
    fix_a = (a.effects - marg_a) / d
    fix_b = (b.effects - marg_b) / d
    return _derived(Hovm, (grid + fix_a[..., :, None, :, :])
                    + fix_b[..., None, :, :, :])


def hovm_is_povm(w: Hovm) -> bool:
    """True iff every HOVM element is PSD to HERMITIAN_TOL."""
    return bool(_psd(w.elements, HERMITIAN_TOL).all())


def busch_compatible(mu, nu) -> bool:
    """Qubit two-outcome compatibility: |mu+nu| + |mu-nu| <= 2 (Busch).

    Busch's criterion and the pair 1 + mu.nu >= |mu + nu|,
    1 - mu.nu >= |mu - nu| each square to
    (1 - |mu|^2)(1 - |nu|^2) >= |mu x nu|^2, so they are one criterion.
    The pair's slacks 1 +- mu.nu - |mu +- nu|, over 4, are the least
    eigenvalues of the elements (1 + ab mu.nu + (a mu + b nu).sigma) / 4
    of the HOVM that ``build_hovm`` assembles from ``sequential_povm``; so
    this checks them against the same -HERMITIAN_TOL as ``hovm_is_povm``,
    and the two verdicts can part only within rounding of that tolerance.
    Each vector is refused as ``bloch_povm`` refuses it (``_bloch``).
    """
    mu, nu = _bloch(mu), _bloch(nu)
    dot = mu @ nu
    least = min(1 + dot - np.linalg.norm(mu + nu),
                1 - dot - np.linalg.norm(mu - nu)) / 4
    return least >= -HERMITIAN_TOL


def _direction(v) -> np.ndarray:
    """v / |v| for a nonzero vector v, which is first scaled by a power of
    two that brings its largest entry into [0.5, 1), so no square under- or
    overflows (1e-160 or 1e200 entries included).  Such a scaling is exact,
    so a vector whose squares do not under- or overflow keeps the bits of
    ``v / np.linalg.norm(v)``."""
    v = _three(v)
    if v.ndim != 1 or not (np.isfinite(v).all() and v.any()):
        raise ValueError(f"direction {v.tolist()} is not one finite nonzero vector")
    v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
    return v / np.linalg.norm(v)


def sharpness_threshold(mu_dir, nu_dir) -> float | None:
    """The common sharpness where the sequential HOVM stops being a POVM.

    Directions of any nonzero length are normalized (``_direction``).  The
    pair ``lam * mu``, ``lam * nu`` meets the Busch boundary at
    lam = 2 / (|mu + nu| + |mu - nu|); since
    (|mu + nu| + |mu - nu|)^2 = 4 (1 + |mu x nu|) for unit vectors, that is
    sqrt(1 / (1 + |mu x nu|)), which stays accurate for nearly parallel
    and orthogonal pairs alike.  Returns None when the boundary is not
    below full sharpness (parallel or antiparallel directions).  A
    direction that is not one vector of 3 components, finite and nonzero,
    is refused with ``ValueError``.
    """
    mu_dir, nu_dir = _direction(mu_dir), _direction(nu_dir)
    sine = np.linalg.norm(np.cross(mu_dir, nu_dir))
    boundary = float(np.sqrt(1.0 / (1.0 + sine)))
    return None if boundary >= 1.0 else boundary

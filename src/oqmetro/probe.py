"""Pure qubit probe states and their analytic derivatives, over whole grids.

The probe is cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.  Exactly one of
the two angles is the estimation target; ``amplitudes`` given a target
also returns the analytic derivative with respect to it, so
Fisher-information divergences stay well characterized (no
finite-difference noise on the hot path), and a ket and its slope share
one evaluation of the sines, cosines and phases.

``amplitudes`` broadcasts over arrays of angles and returns new
C-contiguous kets of shape ``(2,) + broadcast(theta, phi).shape``,
component first, the layout the kernel (``oq.oq_values``) takes.  Scalar
angles are evaluated as one-value arrays, so a single point gets the
bits of the same point in a grid, signed zeros included.  This module is
the only place that turns angles into amplitudes.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ParamOutOfRange


class Target(enum.Enum):
    POLAR = "theta"
    AZIMUTHAL = "phi"


def check_angles(theta, phi) -> None:
    """Raise ParamOutOfRange unless theta in [0, pi] and phi in [0, 2*pi)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    bad = ~((0.0 <= theta) & (theta <= math.pi))
    if bad.any():
        raise ParamOutOfRange(f"theta={float(theta[bad][0])} outside [0, pi]")
    bad = ~((0.0 <= phi) & (phi < 2 * math.pi))
    if bad.any():
        raise ParamOutOfRange(f"phi={float(phi[bad][0])} outside [0, 2*pi)")


def _operands(theta, phi):
    """theta / 2, phi and their broadcast shape.  Scalar angles come back
    as one-value arrays: numpy's scalar complex arithmetic can give another
    signed zero than its array loop, so every call runs the array loop."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast(theta, phi).shape
    if not shape:
        theta, phi = theta.reshape(1), phi.reshape(1)
    return theta / 2, phi, shape


def _empty(shape) -> np.ndarray:
    return np.empty((2,) + (shape or (1,)), dtype=complex)


def amplitudes(theta, phi, target: Target | None = None):
    """Probe amplitudes (cos(theta/2), e^{i phi} sin(theta/2)); given a
    target angle, the pair (psi, dpsi) of the amplitudes and their
    derivative with respect to it, from one pass of sines, cosines and
    phases."""
    half, phi, shape = _operands(theta, phi)
    cos, sin, phase = np.cos(half), np.sin(half), np.exp(1j * phi)
    psi = _empty(shape)
    psi[0] = cos
    psi[1] = phase * sin
    psi = psi.reshape((2,) + shape)
    if target is None:
        return psi
    dpsi = _empty(shape)
    if target is Target.POLAR:
        dpsi[0] = -sin / 2
        dpsi[1] = phase * cos / 2
    else:
        dpsi[0] = 0.0
        dpsi[1] = 1j * phase * sin
    return psi, dpsi.reshape((2,) + shape)

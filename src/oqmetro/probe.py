"""Pure qubit probe states and their analytic derivatives, over whole grids.

The probe is cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.  Exactly one of
the two angles is the estimation target; ``amplitude_slopes`` gives the
analytic derivative with respect to it so Fisher-information divergences
stay well characterized (no finite-difference noise on the hot path).

Both functions broadcast over arrays of angles and return amplitudes of
shape ``broadcast(theta, phi).shape + (2,)``.  ``TargetKets`` serves a
run that varies only the target angle: it computes the fixed angle's
factor once and writes component-first kets of shape (2, N), the layout
the kernel (``oq._cells``) takes, with the bits of ``amplitudes`` and
``amplitude_slopes`` at the same angles.  This module is the only place
that turns angles into amplitudes.
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


def _empty(theta, phi) -> np.ndarray:
    return np.empty(np.broadcast(theta, phi).shape + (2,), dtype=complex)


def amplitudes(theta, phi) -> np.ndarray:
    """Probe amplitudes (cos(theta/2), e^{i phi} sin(theta/2))."""
    half = np.asarray(theta, dtype=float) / 2
    psi = _empty(theta, phi)
    psi[..., 0] = np.cos(half)
    psi[..., 1] = np.exp(1j * np.asarray(phi, dtype=float)) * np.sin(half)
    return psi


def amplitude_slopes(theta, phi, target: Target) -> np.ndarray:
    """Derivative of the amplitudes with respect to the target angle."""
    half = np.asarray(theta, dtype=float) / 2
    phase = np.exp(1j * np.asarray(phi, dtype=float))
    dpsi = _empty(theta, phi)
    if target is Target.POLAR:
        dpsi[..., 0] = -np.sin(half) / 2
        dpsi[..., 1] = phase * np.cos(half) / 2
    else:
        dpsi[..., 0] = 0.0
        dpsi[..., 1] = 1j * phase * np.sin(half)
    return dpsi


class TargetKets:
    """Probe kets over values g of the target angle, the other angle fixed.

    Built once per run: the fixed factor, e^{i phi} for a polar target or
    cos and sin of theta/2 for an azimuthal one, is computed here.  A call
    returns the kets at the values g of shape (N,) as a new C-contiguous
    array of shape (2, N), component first, and ``slopes`` their
    derivatives with respect to g.  Every entry has the bits of
    ``amplitudes`` and ``amplitude_slopes`` at the same angles, since each
    is the same operation on the same operands.
    """

    def __init__(self, target: Target, other: float):
        self.target = target
        other = np.asarray(other, dtype=float)
        if target is Target.POLAR:
            self._phase = np.exp(1j * other)
        else:
            half = other / 2
            self._cos, self._sin = np.cos(half), np.sin(half)

    def __call__(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        ket = np.empty((2,) + g.shape, dtype=complex)
        if self.target is Target.POLAR:
            half = g / 2
            ket[0] = np.cos(half)
            ket[1] = self._phase * np.sin(half)
        else:
            ket[0] = self._cos
            ket[1] = np.exp(1j * g) * self._sin
        return ket

    def slopes(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        dket = np.empty((2,) + g.shape, dtype=complex)
        if self.target is Target.POLAR:
            half = g / 2
            dket[0] = -np.sin(half) / 2
            dket[1] = self._phase * np.cos(half) / 2
        else:
            dket[0] = 0.0
            dket[1] = 1j * np.exp(1j * g) * self._sin
        return dket

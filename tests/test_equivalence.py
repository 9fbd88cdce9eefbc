"""The batched kernel against the per-point formulas it replaced.

The reference functions below keep the arithmetic of the earlier
per-point path: scalar ``math`` amplitudes, the ``i,abij,j->ab`` einsum,
``np.vdot`` for the quantum information and a scalar loop for the Fisher
information.  Every batched result must agree with them to 1e-12
relative, including infinite values and the NegativeOq / ZeroQfi
refusals, and a grid call must equal the stacked single-point calls.

The quantum information 4(<d psi|d psi> - |<psi|d psi>|^2) cancels for
the azimuthal target near the poles, where a last-digit difference in
|<psi|d psi>|^2 (the reference squares with pow, the kernel with a
product) is large relative to the result.  It is therefore compared to
1e-12 of 4 <d psi|d psi>, the size of the terms it is the difference of,
and the advantage inherits that tolerance through log10.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cells, mub_hovm, probe
from oqmetro.errors import NegativeOq, ZeroQfi
from oqmetro.fisher import DERIV_FLOOR, PROB_FLOOR, advantage, oqfi, qfi_pure
from oqmetro.oq import POSITIVITY_TOL, negativity, oq_slopes, oq_values
from oqmetro.probe import Target

RTOL = 1e-12


def ref_state(theta, phi, target):
    half = theta / 2
    phase = np.exp(1j * phi)
    amps = np.array([math.cos(half), phase * math.sin(half)])
    if target is Target.POLAR:
        der = np.array([-math.sin(half) / 2, phase * math.cos(half) / 2])
    else:
        der = np.array([0.0, 1j * phase * math.sin(half)])
    return amps, der


def ref_values(w, amps):
    return np.einsum("i,abij,j->ab", amps.conj(), w.elements, amps).real


def ref_slopes(w, amps, der):
    return 2 * np.real(np.einsum("i,abij,j->ab", der.conj(), w.elements, amps))


def ref_fisher(probs, derivs):
    total = 0.0
    for p, dp in zip(probs, derivs):
        if p <= PROB_FLOOR:
            if abs(dp) > DERIV_FLOOR:
                return math.inf
            continue
        total += dp * dp / p
    return total


def ref_oqfi(w, amps, der):
    values = ref_values(w, amps)
    if float(np.sum(np.abs(values)) - 1.0) > POSITIVITY_TOL:
        raise NegativeOq("negative")
    return ref_fisher(values.ravel(), ref_slopes(w, amps, der).ravel())


def ref_qfi(amps, der):
    dd = np.vdot(der, der).real
    return float(4 * (dd - abs(np.vdot(amps, der)) ** 2))


def ref_advantage(w, amps, der):
    q = ref_qfi(amps, der)
    if q <= 0:
        raise ZeroQfi("zero")
    f = ref_oqfi(w, amps, der)
    if math.isinf(f):
        return math.inf
    if f == 0.0:
        return -math.inf
    return math.log10(f / (2 * q))


def outcome(fn, *args):
    """The value of fn(*args), or the exception type it raises."""
    try:
        return fn(*args)
    except (NegativeOq, ZeroQfi) as exc:
        return type(exc)


def assert_close(got, want, atol=0.0):
    if isinstance(want, type):
        assert got is want
        return
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    # an infinite value matches only the same infinity
    assert np.isclose(got, want, rtol=RTOL, atol=atol).all(), (got, want)


angles = dict(
    lam=st.floats(0.0, 1.0),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    target=st.sampled_from(Target),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**angles)
@example(lam=1.0, theta=math.pi / 2, phi=0.0, target=Target.POLAR)  # inf
@example(lam=0.0, theta=math.pi / 2, phi=0.0, target=Target.POLAR)  # -inf
@example(lam=1.0, theta=math.pi / 4, phi=0.0, target=Target.POLAR)  # negative
@example(lam=0.7072, theta=math.pi / 4, phi=0.0, target=Target.POLAR)  # barely
@example(lam=0.5, theta=0.0, phi=0.0, target=Target.AZIMUTHAL)  # zero QFI
def test_single_point_matches_reference(lam, theta, phi, target):
    _, _, w = mub_hovm(lam)
    amps, der = ref_state(theta, phi, target)
    psi, dpsi = probe(theta, phi, target)
    assert_close(psi.real, amps.real)
    assert_close(psi.imag, amps.imag)
    assert_close(dpsi.real, der.real)
    assert_close(dpsi.imag, der.imag)
    assert_close(oq_values(w, psi), ref_values(w, amps))
    assert_close(oq_slopes(w, psi, dpsi), ref_slopes(w, amps, der))
    q_ref = ref_qfi(amps, der)
    q_atol = RTOL * 4 * np.vdot(der, der).real
    assert_close(qfi_pure(psi, dpsi), q_ref, q_atol)
    assert_close(outcome(oqfi, *cells(w, psi, dpsi)),
                 outcome(ref_oqfi, w, amps, der))
    assert_close(outcome(advantage, *cells(w, psi, dpsi), qfi_pure(psi, dpsi)),
                 outcome(ref_advantage, w, amps, der),
                 q_atol / (max(q_ref, 0.0) * math.log(10) or math.inf))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lam=angles["lam"], target=angles["target"],
       points=st.lists(st.tuples(angles["theta"], angles["phi"]),
                       min_size=1, max_size=12))
def test_grid_call_equals_stacked_single_calls(lam, target, points):
    _, _, w = mub_hovm(lam)
    theta, phi = np.array(points).T
    psi, dpsi = probe(theta, phi, target)
    singles = [probe(t, p, target) for t, p in points]
    # each point's cells along the last axis, as the grid's point axis
    assert np.array_equal(oq_values(w, psi),
                          np.stack([oq_values(w, s[0]) for s in singles], -1))
    assert np.array_equal(oq_slopes(w, psi, dpsi),
                          np.stack([oq_slopes(w, *s) for s in singles], -1))
    assert np.array_equal(negativity(oq_values(w, psi)),
                          [negativity(oq_values(w, s[0])) for s in singles])
    assert np.array_equal(qfi_pure(psi, dpsi), [qfi_pure(*s) for s in singles])
    # one refused point refuses the whole grid; compare on the others, with
    # the grid's cells taken at every point and then masked, as a map row is
    values, slopes = cells(w, psi, dpsi)
    q = qfi_pure(psi, dpsi)
    single_cells = [cells(w, *s) for s in singles]
    defined = [not isinstance(outcome(advantage, *c, qfi_pure(*s)), type)
               for c, s in zip(single_cells, singles)]
    if not all(defined):
        assert isinstance(outcome(advantage, values, slopes, q), type)
    if any(defined):
        kept = [(c, s) for c, s, d in zip(single_cells, singles, defined) if d]
        assert np.array_equal(oqfi(values[..., defined], slopes[..., defined]),
                              [oqfi(*c) for c, _ in kept])
        assert np.array_equal(
            advantage(values[..., defined], slopes[..., defined], q[defined]),
            [advantage(*c, qfi_pure(*s)) for c, s in kept])

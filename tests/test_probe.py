import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqmetro.errors import ParamOutOfRange
from oqmetro.probe import Target, amplitudes, check_angles


def _bloch(psi):
    """Expectation of the Pauli vector, (sin t cos p, sin t sin p, cos t)."""
    a0, a1 = psi
    cross = np.conj(a0) * a1
    return np.array(
        [2 * cross.real, 2 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2]
    )


def test_north_pole_amplitudes():
    for phi in (0.0, 1.0, 3.0):
        np.testing.assert_allclose(amplitudes(0.0, phi), [1.0, 0.0], atol=1e-15)


def test_equator_polar_derivative():
    r = 1 / math.sqrt(2)
    np.testing.assert_allclose(amplitudes(math.pi / 2, 0.0), [r, r], atol=1e-15)
    np.testing.assert_allclose(
        amplitudes(math.pi / 2, 0.0, Target.POLAR)[1], [-r / 2, r / 2],
        atol=1e-15,
    )


def test_azimuthal_derivative_norm():
    theta = 7 * math.pi / 10
    d = amplitudes(theta, math.pi / 4, Target.AZIMUTHAL)[1]
    norm_sq = np.vdot(d, d).real
    assert norm_sq == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-14)


def test_param_range_guards():
    with pytest.raises(ParamOutOfRange):
        check_angles(-0.1, 0.0)
    with pytest.raises(ParamOutOfRange):
        check_angles(math.pi + 0.1, 0.0)
    with pytest.raises(ParamOutOfRange):
        check_angles(1.0, 2 * math.pi)


def test_check_angles_on_grids():
    check_angles([0.0, 1.0, math.pi], [0.0, 2 * math.pi - 1e-9, 3.0])
    with pytest.raises(ParamOutOfRange, match="theta=-0.5"):
        check_angles([0.1, -0.5, 4.0], 0.0)
    with pytest.raises(ParamOutOfRange, match="phi="):
        check_angles(1.0, [0.5, 2 * math.pi])
    with pytest.raises(ParamOutOfRange):
        check_angles(math.nan, 0.0)


def test_bloch_vector_poles_and_equator():
    np.testing.assert_allclose(_bloch(amplitudes(0.0, 0.0)), [0, 0, 1],
                               atol=1e-15)
    np.testing.assert_allclose(_bloch(amplitudes(math.pi / 2, 0.0)), [1, 0, 0],
                               atol=1e-15)
    r = math.sqrt(2) / 2
    np.testing.assert_allclose(_bloch(amplitudes(math.pi / 4, 0.0)), [r, 0, r],
                               atol=1e-15)


def test_bloch_vector_unit_norm(rng):
    for _ in range(200):
        psi = amplitudes(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(np.linalg.norm(_bloch(psi)) - 1) <= 1e-12


def test_amplitudes_broadcast_over_grids():
    thetas = np.linspace(0, math.pi, 7)
    phis = np.linspace(0, 2 * math.pi, 5, endpoint=False)
    grid = amplitudes(thetas[:, None], phis[None, :])
    # component first, as new C-contiguous arrays the kernel takes as they are
    assert grid.shape == (2, 7, 5) and grid.flags.c_contiguous
    for target in Target:
        ket, slopes = amplitudes(thetas[:, None], phis[None, :], target)
        # the kets built with their slopes are the kets built alone
        assert np.array_equal(ket.view(np.int64), grid.view(np.int64))
        assert slopes.shape == (2, 7, 5) and slopes.flags.c_contiguous
        for i, t in enumerate(thetas):
            for j, p in enumerate(phis):
                assert np.array_equal(grid[:, i, j], amplitudes(t, p))
                assert np.array_equal(slopes[:, i, j],
                                      amplitudes(t, p, target)[1])


def _amplitudes(theta, phi):
    return np.array(
        [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]
    )


@pytest.mark.parametrize("target", [Target.POLAR, Target.AZIMUTHAL])
def test_analytic_derivative_matches_finite_difference(target):
    rng = np.random.default_rng(99)
    h = 1e-6
    for _ in range(100):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.05, 2 * math.pi - 0.05)
        d = amplitudes(theta, phi, target)[1]
        if target is Target.POLAR:
            fd = (_amplitudes(theta + h, phi) - _amplitudes(theta - h, phi)) / (2 * h)
        else:
            fd = (_amplitudes(theta, phi + h) - _amplitudes(theta, phi - h)) / (2 * h)
        np.testing.assert_allclose(d, fd, atol=1e-8)


# the values a run of each target evaluates: theta in [0, pi], and phi over
# a domain that may start below 0 and spans at most 2*pi; the fixed angle
# lies in its check_angles range
TARGET_VALUES = {Target.POLAR: st.floats(0, math.pi),
                 Target.AZIMUTHAL: st.floats(-2 * math.pi, 2 * math.pi)}
FIXED_VALUES = {Target.POLAR: st.floats(0, 2 * math.pi, exclude_max=True),
                Target.AZIMUTHAL: st.floats(0, math.pi)}
DOMAIN_ENDS = {Target.POLAR: (0.0, math.pi),
               Target.AZIMUTHAL: (0.0, math.nextafter(2 * math.pi, 0))}


def target_kets_case(data, target):
    """(g, theta, phi): a run's target values with 0, pi and the domain
    ends, and the angles ``amplitudes`` takes for them, the other angle
    fixed, as estimation lays them out."""
    other = data.draw(FIXED_VALUES[target], label="other")
    g = np.array(data.draw(st.lists(TARGET_VALUES[target], max_size=12),
                           label="g") + [0.0, math.pi, *DOMAIN_ENDS[target]])
    theta, phi = (g, other) if target is Target.POLAR else (other, g)
    return g, theta, phi


def one_value_runs(theta, phi):
    """The angles of each value as a run of one value: (1,) arrays."""
    for t, p in np.broadcast(theta, phi):
        yield np.array([t]), np.array([p])


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("target", list(Target))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_target_kets_are_the_amplitudes_component_first(target, data):
    """The kets of a run's target values, one call over the whole vector,
    are C-contiguous, component first, and bit for bit the amplitudes and
    slopes of one-value runs, one call per value."""
    g, theta, phi = target_kets_case(data, target)
    ket, dket = amplitudes(theta, phi, target)
    assert ket.shape == dket.shape == (2, len(g))
    assert ket.flags.c_contiguous and dket.flags.c_contiguous
    for i, at in enumerate(one_value_runs(theta, phi)):
        assert np.array_equal(bits(ket[:, i:i + 1]), bits(amplitudes(*at)))
        assert np.array_equal(bits(dket[:, i:i + 1]),
                              bits(amplitudes(*at, target)[1]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(theta=st.floats(0, math.pi), phi=st.floats(0, 2 * math.pi, exclude_max=True),
       target=st.sampled_from(list(Target)))
# numpy's scalar complex arithmetic gave +0.0 for the real part of the
# slope's second entry here, where the array loop gives -0.0
@example(theta=2.225073858507203e-309, phi=math.pi, target=Target.AZIMUTHAL)
def test_scalar_angles_give_the_bits_of_one_value_arrays(theta, phi, target):
    at = np.array([theta]), np.array([phi])
    ket, dket = amplitudes(theta, phi, target)
    assert ket.shape == dket.shape == (2,)
    assert np.array_equal(bits(ket), bits(amplitudes(*at)[:, 0]))
    assert np.array_equal(bits(dket), bits(amplitudes(*at, target)[1][:, 0]))

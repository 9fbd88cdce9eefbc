import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mub_hovm, random_conjunction, random_qubit_povm
from test_probe import bits, target_kets_case
import oqmetro.oq
from oqmetro.estimation import _row_sum
from oqmetro.measurement import (
    Hovm,
    build_hovm,
    mutually_unbiased_pair,
    sequential_povm,
)
from oqmetro.oq import (
    POSITIVITY_TOL,
    _cell_sum,
    negativity,
    oq_slopes,
    oq_values,
)
from oqmetro.probe import Target, amplitude_slopes, amplitudes


def is_positive(values, tol=POSITIVITY_TOL):
    return negativity(values) <= tol


def closed_form(theta, phi, lam):
    """Hand-derived cells [1 + lam((-1)^a cos t + (-1)^b sin t cos p)] / 4."""
    out = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            out[a, b] = (
                1
                + lam
                * ((-1) ** a * math.cos(theta) + (-1) ** b * math.sin(theta) * math.cos(phi))
            ) / 4
    return out


def test_matches_closed_form_random_points(rng):
    for _ in range(300):
        lam = rng.uniform(0, 1)
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        _, _, w = mub_hovm(lam)
        np.testing.assert_allclose(oq_values(w, amplitudes(theta, phi)),
                                   closed_form(theta, phi, lam), atol=1e-12)


def test_zero_sharpness_uniform():
    _, _, w = mub_hovm(0.0)
    values = oq_values(w, amplitudes(1.0, 2.0))
    np.testing.assert_allclose(values, np.full((2, 2), 0.25), atol=1e-14)
    assert negativity(values) == pytest.approx(0.0, abs=1e-12)


def test_negativity_point_value():
    _, _, w = mub_hovm(1.0)
    values = oq_values(w, amplitudes(math.pi / 4, 0.0))
    expected = sorted(
        [(1 + math.sqrt(2)) / 4, 0.25, 0.25, (1 - math.sqrt(2)) / 4]
    )
    np.testing.assert_allclose(sorted(values.ravel()), expected, atol=1e-12)
    assert negativity(values) == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-12)


def test_normalization_and_marginals(rng):
    for _ in range(200):
        a = random_qubit_povm(rng)
        b = random_qubit_povm(rng)
        w = build_hovm(a, b, random_conjunction(rng))
        psi = amplitudes(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        values = oq_values(w, psi)
        assert abs(values.sum() - 1) <= 1e-10
        for i in range(2):
            pa = np.real(psi.conj() @ a.effects[i] @ psi)
            pb = np.real(psi.conj() @ b.effects[i] @ psi)
            assert abs(values[i, :].sum() - pa) <= 1e-10
            assert abs(values[:, i].sum() - pb) <= 1e-10


def test_positive_throughout_compatible_region():
    for lam in (0.4, 1 / math.sqrt(2)):
        _, _, w = mub_hovm(lam)
        for theta in np.linspace(0, math.pi, 50):
            for phi in np.linspace(0, math.pi, 50):
                assert negativity(oq_values(w, amplitudes(theta, phi))) <= 1e-10


def test_sharp_equator_state_positive():
    _, _, w = mub_hovm(1.0)
    values = oq_values(w, amplitudes(math.pi / 2, 0.0))
    assert is_positive(values, 1e-10)
    np.testing.assert_allclose(sorted(values.ravel()), [0, 0, 0.5, 0.5],
                               atol=1e-12)


def test_is_positive_monotone_in_tol():
    _, _, w = mub_hovm(1.0)
    values = oq_values(w, amplitudes(math.pi / 4, 0.0))
    verdicts = [is_positive(values, tol) for tol in (1e-10, 1e-2, 0.1, 0.3)]
    assert verdicts == sorted(verdicts)  # False before True, never back


def test_negativity_floor():
    vals = np.array([[0.25, 0.25], [0.25, 0.25]])
    assert negativity(vals) >= -1e-12


def test_grid_shapes():
    _, _, w = mub_hovm(0.9)
    thetas = np.linspace(0, math.pi, 6)[:, None]
    phis = np.linspace(0, math.pi, 4)[None, :]
    values = oq_values(w, amplitudes(thetas, phis))
    assert values.shape == (6, 4, 2, 2)
    assert negativity(values).shape == (6, 4)
    assert is_positive(values).shape == (6, 4)


def test_qutrit_hovm_rejected():
    # probes are qubits, so a HOVM of 3x3 elements is refused when built
    with pytest.raises(ValueError, match=r"\(\.\.\., d, d, 2, 2\)"):
        Hovm(np.array([[np.eye(3)]], dtype=complex))


def reference_cells(w, bra, ket):
    """Re <bra|W_ab|ket> summed with the 2 x 2 indices innermost, as the
    kernel first did, on C-contiguous operands."""
    bra, el, ket = map(np.ascontiguousarray, (bra, w.elements, ket))
    return np.real(np.einsum("...i,...abij,...j->...ab", bra.conj(), el, ket))


# how a caller may lay out its amplitudes; each acts on the batch axes
LAYOUTS = {
    "contiguous": lambda x: x,
    "reversed": lambda x: x[..., ::-1, :],
    "step-2": lambda x: x[::2],
    "subset": lambda x: x[np.arange(len(x)) % 3 != 1],
    "fortran": np.asfortranarray,
}


def kernel_inputs(kind, lams, thetas, phis, target):
    """(w, psi, dpsi) for one shape kind: a point, a line of (theta, phi)
    pairs, a theta-by-phi grid, or a (lambda, 1) stack of HOVMs over a
    line of points."""
    if kind == "point":
        theta, phi = thetas[0], phis[0]
    elif kind == "grid":
        theta, phi = np.array(thetas)[:, None], np.array(phis)
    else:
        theta, phi = np.resize(thetas, len(phis)), np.array(phis)
    lam = np.array(lams)[:, None] if kind == "stack" else lams[0]
    a, b = mutually_unbiased_pair(lam)
    w = build_hovm(a, b, sequential_povm(a, b))
    return w, amplitudes(theta, phi), amplitude_slopes(theta, phi, target)


angles = st.lists(st.floats(0, math.pi), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["point", "line", "grid", "stack"]),
    layout=st.sampled_from(sorted(LAYOUTS)),
    target=st.sampled_from(Target),
    lams=st.lists(st.floats(0, 1), min_size=1, max_size=4),
    thetas=angles,
    phis=st.lists(st.floats(0, 2 * math.pi, exclude_max=True),
                  min_size=1, max_size=12),
)
# the positive points of the smoke map's first theta row, as advantage-map
# hands them to the kernel: one that sums over a strided view of its
# operands moves the last bit of the slope at phi 1.58
@example(kind="line", layout="contiguous", target=Target.POLAR, lams=[0.995],
         thetas=[0.02], phis=np.arange(0.02, 3.13, 0.26)[5:7].tolist())
def test_kernel_bits_independent_of_layout_and_batching(kind, layout, target,
                                                        lams, thetas, phis):
    """Cells and slopes equal, bit for bit, the kernel's first formula on
    contiguous operands and one call per point, whatever the shape and
    memory layout of the amplitudes."""
    w, psi, dpsi = kernel_inputs(kind, lams, thetas, phis, target)
    if psi.ndim > 1:
        psi, dpsi = LAYOUTS[layout](psi), LAYOUTS[layout](dpsi)
    values, slopes = oq_values(w, psi), oq_slopes(w, psi, dpsi)
    assert values.flags.c_contiguous and slopes.flags.c_contiguous
    assert np.array_equal(values, reference_cells(w, psi, psi))
    assert np.array_equal(slopes, 2 * reference_cells(w, dpsi, psi))
    batch = values.shape[:-2]
    el = np.broadcast_to(w.elements, batch + w.elements.shape[-4:])
    psi, dpsi = (np.broadcast_to(x, batch + (2,)) for x in (psi, dpsi))
    for i in np.ndindex(batch):
        one = Hovm(el[i])
        assert np.array_equal(values[i], oq_values(one, psi[i]))
        assert np.array_equal(slopes[i], oq_slopes(one, psi[i], dpsi[i]))


@pytest.mark.parametrize("target", list(Target))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), lam=st.floats(0, 1))
def test_kernel_on_target_kets_gives_the_amplitudes_cells(target, data, lam):
    """The kernel on ``TargetKets``' component-first kets gives, bit for
    bit, the cells and slopes of the amplitudes at the same angles."""
    kets, g, theta, phi = target_kets_case(data, target)
    _, _, w = mub_hovm(lam)
    psi, dpsi = amplitudes(theta, phi), amplitude_slopes(theta, phi, target)
    cells = oqmetro.oq._cells(w, kets(g))
    slopes = oqmetro.oq._cells(w, kets(g), kets.slopes(g))
    assert np.array_equal(bits(cells), bits(np.moveaxis(oq_values(w, psi),
                                                        (-2, -1), (0, 1))))
    assert np.array_equal(bits(slopes), bits(np.moveaxis(
        oq_slopes(w, psi, dpsi), (-2, -1), (0, 1))))


@pytest.mark.parametrize("lam", [0.7, np.array([[0.2], [0.9]])],
                         ids=["one", "stack"])
def test_kernel_takes_the_hovms_component_first_elements(monkeypatch, lam):
    """``_cells`` einsums the operand the HOVM laid out once when built."""
    a, b = mutually_unbiased_pair(lam)
    w = build_hovm(a, b, sequential_povm(a, b))
    n = w.elements.ndim - 4
    assert np.array_equal(
        w.front, w.elements.transpose([*range(n, n + 4), *range(n)]))
    assert w.front.flags.c_contiguous and not w.front.flags.writeable
    operands = []
    einsum = np.einsum

    def spy(subscripts, *ops):
        operands.append(ops[1])
        return einsum(subscripts, *ops)

    monkeypatch.setattr(oqmetro.oq.np, "einsum", spy)
    psi = amplitudes(np.array([0.3, 1.2]), 0.5)
    oq_values(w, psi)
    oq_slopes(w, psi, amplitude_slopes(np.array([0.3, 1.2]), 0.5, Target.POLAR))
    assert len(operands) == 2 and all(op is w.front for op in operands)


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SUM_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan,
                     _float(0xFFF8_0000_0000_0001),  # -nan, payload 1
                     5e-324, -5e-324, 2.225073858507201e-308,
                     -1.5e-310, 1e308, -1e308)),
)


@st.composite
def cell_grids(draw):
    """A C-contiguous stack of 2 x 2 grids with 0 to 3 batch axes."""
    shape = (*draw(st.lists(st.integers(0, 3), max_size=3)), 2, 2)
    cells = draw(st.lists(SUM_FLOATS, min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    return np.array(cells, dtype=float).reshape(shape)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=cell_grids())
@example(x=np.full((2, 2), -0.0))  # numpy's sum is +0.0 here
@example(x=np.array([[[-0.0, -0.0], [-0.0, 0.0]], [[-0.0] * 2] * 2]))
def test_cell_sum_is_numpys_sum_bit_for_bit(x):
    """Over 2 x 2 grids of any batch shape (0-d and empty included), the
    one cell-sum rule gives the bits ``np.sum`` gives, signed zeros,
    infinities and subnormals alike, and nan where it gives nan.  Which
    nan survives when two meet is up to the compiled add loop, and every
    nan prints the same."""
    with np.errstate(all="ignore"):
        ours, theirs = _cell_sum(x), np.sum(x, axis=(-2, -1))
    assert np.array_equal(ours, theirs, equal_nan=True)
    number = ~np.isnan(theirs)
    assert np.array_equal(np.asarray(ours)[number].view(np.int64),
                          np.asarray(theirs)[number].view(np.int64))


@st.composite
def component_rows(draw):
    """Cells of shape (..., 2, 2) with 0 to 2 batch axes, and the same cells
    as component-first rows of shape (4, ...) in one of three layouts:
    C-contiguous, a strided view of the cells-last array, or the real view
    of a complex array (as the kernel returns them)."""
    batch = tuple(draw(st.lists(st.integers(0, 4), max_size=2)))
    size = 4 * math.prod(batch)
    cells = np.array(draw(st.lists(SUM_FLOATS, min_size=size, max_size=size)),
                     dtype=float).reshape(batch + (2, 2))
    rows = np.moveaxis(cells.reshape(batch + (4,)), -1, 0)
    layout = draw(st.sampled_from(["contiguous", "strided", "complex"]))
    if layout == "contiguous":
        rows = np.ascontiguousarray(rows)
    elif layout == "complex":
        z = np.empty(rows.shape, dtype=complex)
        z.real, z.imag = rows, draw(SUM_FLOATS)
        rows = np.real(z)
    return cells, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=component_rows())
@example(case=(np.full((3, 2, 2), -0.0), np.full((4, 3), -0.0)))
@example(case=(np.full((2, 2), -0.0), np.full(4, -0.0)))
def test_row_sum_is_the_cell_sum_bit_for_bit(case):
    """``estimation._row_sum`` over component-first rows, one reduction
    from +0.0, gives ``_cell_sum``'s bits on the same cells laid out last,
    signed zeros, infinities and subnormals alike, and nan where it gives
    nan, whatever the rows' layout and however many points they hold."""
    cells, rows = case
    with np.errstate(all="ignore"):
        ours, theirs = _row_sum(rows), _cell_sum(cells)
    assert np.shape(ours) == np.shape(theirs)
    assert np.array_equal(ours, theirs, equal_nan=True)
    number = ~np.isnan(theirs)
    assert np.array_equal(np.asarray(ours)[number].view(np.int64),
                          np.asarray(theirs)[number].view(np.int64))

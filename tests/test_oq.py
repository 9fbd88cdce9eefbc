import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mub_hovm, random_conjunction, random_qubit_povm
from test_probe import bits, one_value_runs, target_kets_case
import oqmetro.oq
from oqmetro.measurement import (
    Hovm,
    build_hovm,
    mutually_unbiased_pair,
    sequential_povm,
)
from oqmetro.oq import POSITIVITY_TOL, cell_sum, negativity, oq_slopes, oq_values
from oqmetro.probe import Target, amplitudes


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
    assert values.shape == (2, 2, 6, 4)
    assert negativity(values).shape == (6, 4)
    assert is_positive(values).shape == (6, 4)


def test_qutrit_hovm_rejected():
    # probes are qubits, so a HOVM of 3x3 elements is refused when built
    with pytest.raises(ValueError, match=r"\(\.\.\., d, d, 2, 2\)"):
        Hovm(np.array([[np.eye(3)]], dtype=complex))


def reference_cells(w, bra, ket):
    """Re <bra|W_ab|ket> summed with the 2 x 2 indices innermost, as the
    kernel first did, on C-contiguous operands laid out component last;
    returned component first."""
    bra, ket = (np.moveaxis(x, 0, -1) for x in (bra, ket))
    bra, el, ket = map(np.ascontiguousarray, (bra, w.elements, ket))
    cells = np.real(np.einsum("...i,...abij,...j->...ab", bra.conj(), el, ket))
    return np.moveaxis(cells, (-2, -1), (0, 1))


# how a caller may lay out its kets; each acts on the batch axes, the
# component axis stays first
LAYOUTS = {
    "contiguous": lambda x: x,
    "reversed": lambda x: x[..., ::-1],
    "step-2": lambda x: x[:, ::2],
    "subset": lambda x: x[:, np.arange(x.shape[1]) % 3 != 1],
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
    return (w, *amplitudes(theta, phi, target))


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
    memory layout of the kets."""
    w, psi, dpsi = kernel_inputs(kind, lams, thetas, phis, target)
    if psi.ndim > 1:
        psi, dpsi = LAYOUTS[layout](psi), LAYOUTS[layout](dpsi)
    values, slopes = oq_values(w, psi), oq_slopes(w, psi, dpsi)
    # the cells are the real view of the einsum's output, the slopes new
    assert slopes.flags.c_contiguous
    assert np.array_equal(values, reference_cells(w, psi, psi))
    assert np.array_equal(slopes, 2 * reference_cells(w, dpsi, psi))
    batch = values.shape[2:]
    el = np.broadcast_to(w.elements, batch + w.elements.shape[-4:])
    psi, dpsi = (np.moveaxis(np.broadcast_to(np.moveaxis(x, 0, -1), batch + (2,)),
                             -1, 0) for x in (psi, dpsi))
    for i in np.ndindex(batch):
        one, cell, ket = Hovm(el[i]), (slice(None),) * 2 + i, (slice(None),) + i
        assert np.array_equal(values[cell], oq_values(one, psi[ket]))
        assert np.array_equal(slopes[cell], oq_slopes(one, psi[ket], dpsi[ket]))


@pytest.mark.parametrize("target", list(Target))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), lam=st.floats(0, 1))
def test_kernel_on_target_kets_gives_the_amplitudes_cells(target, data, lam):
    """The kernel on the kets of a run's target values, as estimation
    builds them, gives component-first cells and slopes whose rows of 4
    are, bit for bit, the cells and slopes of one-value runs."""
    g, theta, phi = target_kets_case(data, target)
    _, _, w = mub_hovm(lam)
    psi, dpsi = amplitudes(theta, phi, target)
    cells, slopes = oq_values(w, psi), oq_slopes(w, psi, dpsi)
    assert cells.shape == slopes.shape == (2, 2, len(g))
    rows, slope_rows = cells.reshape(4, len(g)), slopes.reshape(4, len(g))
    for i, at in enumerate(one_value_runs(theta, phi)):
        one, done = amplitudes(*at, target)
        assert np.array_equal(bits(rows[:, i]), bits(oq_values(w, one).ravel()))
        assert np.array_equal(bits(slope_rows[:, i]),
                              bits(oq_slopes(w, one, done).ravel()))


@pytest.mark.parametrize("lam", [0.7, np.array([[0.2], [0.9]])],
                         ids=["one", "stack"])
def test_kernel_takes_the_hovms_component_first_elements(monkeypatch, lam):
    """The kernel einsums the operand the HOVM laid out once when built."""
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
    psi, dpsi = amplitudes(np.array([0.3, 1.2]), 0.5, Target.POLAR)
    oq_values(w, psi)
    oq_slopes(w, psi, dpsi)
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
    one cell-sum rule on the cells laid out first, as a strided view or
    C-contiguous, gives the bits ``np.sum`` gives on them laid out last,
    signed zeros, infinities and subnormals alike, and nan where it gives
    nan.  Which nan survives when two meet is up to the compiled add loop,
    and every nan prints the same."""
    first = np.moveaxis(x, (-2, -1), (0, 1))
    with np.errstate(all="ignore"):
        theirs = np.sum(x, axis=(-2, -1))
        for cells in (first, np.ascontiguousarray(first)):
            ours = cell_sum(cells)
            assert np.array_equal(ours, theirs, equal_nan=True)
            number = ~np.isnan(theirs)
            assert np.array_equal(np.asarray(ours)[number].view(np.int64),
                                  np.asarray(theirs)[number].view(np.int64))


def left_fold(cells, axes):
    """Each point's cells added one after another in C order from +0.0, in
    Python floats."""
    lead, points = cells.shape[:axes], cells.shape[axes:]
    rows = cells.reshape((math.prod(lead), math.prod(points)))
    totals = []
    for column in rows.T.tolist():
        total = 0.0
        for cell in column:
            total += cell
        totals.append(total)
    return np.array(totals, dtype=float).reshape(points)


@st.composite
def cell_blocks(draw):
    """(cells, axes): a qubit pair's or a d = 3 grid's cells (axes 2), or a
    model of 4 or 9 outcomes (axes 1), over 0 to 2 point axes, each of 0 to
    4 points, laid out C-contiguous, as a strided view of cells laid out
    last, or as the real view of a complex array (as the kernel returns
    them)."""
    lead = draw(st.sampled_from([(2, 2), (3, 3), (4,), (9,)]))
    points = tuple(draw(st.lists(st.integers(0, 4), max_size=2)))
    size = math.prod(lead + points)
    cells = np.array(draw(st.lists(SUM_FLOATS, min_size=size, max_size=size)),
                     dtype=float).reshape(lead + points)
    layout = draw(st.sampled_from(["contiguous", "strided", "complex"]))
    first, last = list(range(len(lead))), list(range(-len(lead), 0))
    if layout == "strided":
        cells = np.moveaxis(np.ascontiguousarray(np.moveaxis(cells, first, last)),
                            last, first)
    elif layout == "complex":
        z = np.empty(cells.shape, dtype=complex)
        z.real, z.imag = cells, draw(SUM_FLOATS)
        cells = np.real(z)
    return cells, len(lead)


# nine cells of one point, whose pairwise sum differs from the fold
NINE = [-132.353, -79.464, 0.647, -0.02, -0.0, -0.097, 0.013, 6.894, -32.721]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cell_blocks())
@example(case=(np.array(NINE).reshape(3, 3), 2))
@example(case=(np.array(NINE).reshape(3, 3, 1), 2))
@example(case=(np.array(NINE), 1))
@example(case=(np.full((3, 3, 2), -0.0), 2))
@example(case=(np.full((2, 2, 3), -0.0), 2))
@example(case=(np.full((2, 2), -0.0), 2))
@example(case=(np.empty((2, 2, 0, 3)), 2))
@example(case=(np.empty((3, 3, 0)), 2))
def test_cell_sum_is_a_left_fold_bit_for_bit(case):
    """``cell_sum`` adds each point's cells one after another in C order
    from +0.0, as a Python left fold does: for d = 2 and d = 3 cells and
    for 4- and 9-outcome models, at a single point (where numpy's own sum
    of 8 or more terms is pairwise), over point axes and on empty blocks,
    whatever the layout; signed zeros, infinities and subnormals alike,
    and nan where the fold gives nan."""
    cells, axes = case
    with np.errstate(all="ignore"):
        ours, theirs = cell_sum(cells, axes), left_fold(cells, axes)
    assert np.shape(ours) == theirs.shape
    assert np.array_equal(ours, theirs, equal_nan=True)
    number = ~np.isnan(theirs)
    assert np.array_equal(np.asarray(ours)[number].view(np.int64),
                          theirs[number].view(np.int64))

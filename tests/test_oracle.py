"""The float results against a 50-digit oracle built from the definitions.

The oracle takes every float input exactly and works at ``mp.dps = 50``.
From two Bloch vectors it builds the effects A_a and B_b, the square
roots sqrt(A_a) from mpmath's ``eigh``, the sequential effects
C_ab = sqrt(A_a) B_b sqrt(A_a) and the HOVM
W_ab = C_ab + (A_a - sum_b C_ab) / 2 + (B_b - sum_a C_ab) / 2, as
``build_hovm`` defines it (not from any closed form of the cells).  At a
probe point it computes the cells <psi|W_ab|psi>, their slopes
2 Re <dpsi|W_ab|psi>, the negativity, the OQ Fisher information with
``fisher_discrete``'s floors, the quantum Fisher information
4 (<dpsi|dpsi> - |<psi|dpsi>|^2) and the advantage; and the sharpness
threshold 2 / (|mu + nu| + |mu - nu|) of two unit directions.  For a
given table of W-counts c_ab it finds the two estimates by
``mp.findroot``, started from the float ones: the MLE as the root of the
score sum_ab c_ab W'_ab / W_ab, the LEP as the root of the parity
equation sum_ab (-1)^(ab) W_ab = the table's parity mean; and it computes
their predicted variances, 1 / (n I) with I the observed information
-(1/n) d^2/dg^2 sum_ab c_ab log W_ab at the MLE (``mp.diff``), and
(1 - m^2) / (n m'^2) with m the parity mean at the LEP.

The points are a seeded subsample of the positive points of the benchmark
map (lambda 0.995, theta target) and a set of hard spots: cells that
nearly vanish, the mutually unbiased pair at 1/sqrt(2) +- 1e-12, and
directions of length 1e-160 and 1e200.  The tables are the 20 of a
seeded n = 100,000 run at the headline point (lambda 0.9, theta target)
and its expected-counts table.

An error is measured in units of eps times the quantity's scale:
1 for cells, slopes and negativity (the cells sum to 1); the value itself
for the quantum information and the threshold; for the OQ information
sum_k (s_k^2 / v_k^2 + 2 |s_k| / v_k), the bound of its first-order
change when each cell v_k and slope s_k moves by one; and for the
advantage that scale over the OQ information, plus one.  An estimate's
error is in radians and a predicted variance's is relative.  Each bound
in ``BOUNDS`` and ``ESTIMATOR_BOUNDS`` is the worst error of today's
code, rounded up to two digits.
A bound may be tightened when the code gets more accurate, and never
loosened.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from oqmetro.cli import parse_values
from oqmetro.estimation import (
    _outcome_probs,
    draw_counts,
    estimate_tables,
    expected_counts,
)
from oqmetro.fisher import DERIV_FLOOR, PROB_FLOOR, advantage, oqfi, qfi_pure
from oqmetro.measurement import (
    bloch_povm,
    build_hovm,
    mutually_unbiased_pair,
    sequential_povm,
    sharpness_threshold,
)
from oqmetro.oq import POSITIVITY_TOL, negativity, oq_slopes, oq_values
from oqmetro.probe import Target, amplitudes

EPS = np.finfo(float).eps

# the worst error of today's code on each set of points, in units of eps
# times the quantity's scale.  The hard spots' quantum information is the
# azimuthal target's sin(theta)^2 near theta = pi, where 4 (<dpsi|dpsi> -
# |<psi|dpsi>|^2) subtracts two numbers near 1 and keeps few digits.
BOUNDS = {
    "map": {"oq_values": 0.62, "oq_slopes": 0.57, "negativity": 2.0,
            "oqfi": 0.19, "qfi_pure": 1.0, "advantage": 0.078},
    "hard": {"oq_values": 1.0, "oq_slopes": 0.45, "negativity": 3.0,
             "oqfi": 0.23, "qfi_pure": 1.1e5, "advantage": 0.37},
}
THRESHOLD_BOUND = 0.62
# The MLE is refined to a bracket of 1e-8 on a log-likelihood whose top is
# flat; its variance comes from a central second difference with step
# CURVATURE_H, whose truncation error is largest on a table with a small
# cell (one of 3.3e-4 on the worst table).
ESTIMATOR_BOUNDS = {"mle": 1.5e-8, "lep": 2.3e-9,
                    "mle_var": 4.8e-4, "lep_var": 1.7e-9}


@pytest.fixture(autouse=True)
def _digits():
    with mp.workdps(50):
        yield


# --- the oracle ---

def _mul(x, y):
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)]
            for i in range(2)]


def _add(*ms):
    return [[sum(m[i][j] for m in ms) for j in range(2)] for i in range(2)]


def _scale(m, c):
    return [[c * m[i][j] for j in range(2)] for i in range(2)]


def _effects(v):
    """(1 +- v.sigma) / 2 of a float Bloch vector, taken exactly."""
    x, y, z = map(mpf, v)
    vs = [[mpc(z), mpc(x, -y)], [mpc(x, y), mpc(-z)]]
    eye = [[mpc(1), mpc(0)], [mpc(0), mpc(1)]]
    return [_scale(_add(eye, vs), mpf(1) / 2),
            _scale(_add(eye, _scale(vs, -1)), mpf(1) / 2)]


def _sqrt(m):
    """The principal square root, from mpmath's eigh."""
    vals, vecs = mp.eigh(mp.matrix(m))
    roots = [mp.sqrt(max(mp.re(vals[k]), 0)) for k in range(2)]
    return [[sum(vecs[i, k] * roots[k] * mp.conj(vecs[j, k])
                 for k in range(2)) for j in range(2)] for i in range(2)]


def oracle_hovm(mu, nu):
    """The HOVM W[a][b] assembled from the sequential measurement."""
    a, b = _effects(mu), _effects(nu)
    roots = [_sqrt(e) for e in a]
    c = [[_mul(_mul(r, f), r) for f in b] for r in roots]
    fix_a = [_scale(_add(a[i], _scale(_add(*c[i]), -1)), mpf(1) / 2)
             for i in range(2)]
    fix_b = [_scale(_add(b[j], _scale(_add(c[0][j], c[1][j]), -1)), mpf(1) / 2)
             for j in range(2)]
    return [[_add(c[i][j], fix_a[i], fix_b[j]) for j in range(2)]
            for i in range(2)]


def _form(u, m, v):
    """<u|m|v>."""
    return sum(mp.conj(u[i]) * m[i][j] * v[j] for i in range(2) for j in range(2))


def oracle_point(w, theta, phi, target):
    """Cells, slopes, negativity, OQ and quantum information, advantage
    and the OQ information's scale at one probe point."""
    half, phi = mpf(theta) / 2, mpf(phi)
    phase = mp.expjpi(phi / mp.pi)
    psi = [mpc(mp.cos(half)), phase * mp.sin(half)]
    if target is Target.POLAR:
        dpsi = [mpc(-mp.sin(half) / 2), phase * mp.cos(half) / 2]
    else:
        dpsi = [mpc(0), 1j * phase * mp.sin(half)]
    cells = [mp.re(_form(psi, w[i][j], psi)) for i in range(2) for j in range(2)]
    slopes = [2 * mp.re(_form(dpsi, w[i][j], psi))
              for i in range(2) for j in range(2)]
    neg = sum(abs(v) for v in cells) - 1
    info, scale = mpf(0), mpf(0)
    for v, s in zip(cells, slopes):
        if v <= PROB_FLOOR:
            info += mp.inf if abs(s) > DERIV_FLOOR else 0
        else:
            info += s * s / v
            scale += s * s / (v * v) + 2 * abs(s) / v
    overlap = sum(mp.conj(psi[k]) * dpsi[k] for k in range(2))
    qfi = 4 * (sum(abs(d) ** 2 for d in dpsi) - abs(overlap) ** 2)
    return {"oq_values": cells, "oq_slopes": slopes, "negativity": neg,
            "oqfi": info, "oqfi_scale": scale, "qfi_pure": qfi,
            "advantage": mp.log10(info / (2 * qfi)) if info else -mp.inf}


def oracle_threshold(mu, nu):
    mu, nu = (mp.matrix([mpf(x) for x in v]) for v in (mu, nu))
    mu, nu = mu / mp.norm(mu), nu / mp.norm(nu)
    boundary = 2 / (mp.norm(mu + nu) + mp.norm(mu - nu))
    return None if boundary >= 1 else boundary


PARITY = (1, 1, 1, -1)


def _model(w, g, phi):
    """The cells and slopes at theta = g for the theta target."""
    point = oracle_point(w, g, phi, Target.POLAR)
    return point["oq_values"], point["oq_slopes"]


def oracle_mle(w, counts, n, phi, start):
    """The root of the score near ``start``, and its predicted variance."""
    def score(g):
        cells, slopes = _model(w, g, phi)
        return sum(c * s / v for c, s, v in zip(counts, slopes, cells))

    def loglik(g):
        cells, _ = _model(w, g, phi)
        return sum(c * mp.log(v) for c, v in zip(counts, cells)) / n

    g = mp.findroot(score, mpf(start))
    return g, 1 / (n * -mp.diff(loglik, g, 2))


def oracle_lep(w, counts, n, phi, start):
    """The root of the parity equation near ``start``, and its predicted
    variance."""
    def parity(g):
        cells, slopes = _model(w, g, phi)
        return (sum(p * v for p, v in zip(PARITY, cells)),
                sum(p * s for p, s in zip(PARITY, slopes)))

    obs = sum(p * c for p, c in zip(PARITY, counts)) / n
    g = mp.findroot(lambda g: parity(g)[0] - obs, mpf(start))
    mean, slope = parity(g)
    return g, (1 - mean * mean) / (n * slope * slope)


# --- the points ---

LAM = 0.995
HEADLINE = (1.0131710069701012, 2.3038346126325147)
TABLE_LAM = 0.9
BOUNDARY = 1 / math.sqrt(2)


def _mub(lam):
    return (0.0, 0.0, lam), (lam, 0.0, 0.0)


def _map_points():
    """A seeded sample of 200 of the benchmark map's positive points."""
    thetas = np.array(parse_values("0.02:3.12:0.02"))
    phis = np.array(parse_values("0.02:3.12:0.02"))
    theta, phi = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    a, b = mutually_unbiased_pair(LAM)
    w = build_hovm(a, b, sequential_povm(a, b))
    positive = negativity(oq_values(w, amplitudes(theta, phi))) <= POSITIVITY_TOL
    pick = np.random.default_rng(14).choice(np.flatnonzero(positive), 200,
                                            replace=False)
    return [(_mub(LAM), Target.POLAR, theta[np.sort(pick)], phi[np.sort(pick)])]


def _vanishing(cell):
    """theta at phi = pi where the least cell (1 - LAM (|n_z| + |n_x|)) / 4
    of the mutually unbiased pair is ``cell``, on both branches."""
    angle = mp.asin((1 - 4 * mpf(cell)) / (mp.sqrt(2) * LAM))
    return [float(mp.pi / 4 + angle), float(mp.pi * 5 / 4 - angle)]


def _hard_points():
    groups = []
    thetas = [t for cell in (1e-6, 1e-9, 1e-11) for t in _vanishing(cell)]
    for target in Target:
        groups.append((_mub(LAM), target, np.array(thetas),
                       np.full(len(thetas), math.pi)))
        for lam in (BOUNDARY - 1e-12, BOUNDARY + 1e-12):
            theta = np.array([3 * math.pi / 4, math.pi / 2, HEADLINE[0], 0.3, 2.9])
            phi = np.array([math.pi, 0.0, HEADLINE[1], 5.5, 1.7])
            groups.append((_mub(lam), target, theta, phi))
    # a compatible pair off the axes, whose effects have complex entries
    groups.append((((0.3, 0.4, 0.5), (-0.6, 0.2, 0.1)), Target.POLAR,
                   np.array([0.3, 1.2, 2.0, 2.9]), np.array([0.0, 1.0, 3.5, 6.0])))
    return groups


def _directions():
    rng = np.random.default_rng(160)
    pairs = [((0, 0, LAM), (LAM, 0, 0)), ((1, 0, 0), (1, 1e-8, 0))]
    for mu_scale, nu_scale in ((1, 1), (1e-160, 1e-160), (1e200, 1e200),
                               (1e-160, 1e200)):
        for _ in range(10):
            mu, nu = rng.normal(size=(2, 3))
            pairs.append((tuple(mu * mu_scale), tuple(nu * nu_scale)))
    return pairs


def _tables():
    """The W-counts, n and float MLE and LEP results of each table."""
    a, b = mutually_unbiased_pair(TABLE_LAM)
    seq = sequential_povm(a, b)
    w = build_hovm(a, b, seq)
    psi = amplitudes(*HEADLINE)
    p_b, p_seq = _outcome_probs(psi, b), _outcome_probs(psi, seq)
    tables = []
    for counts in (draw_counts(p_b, p_seq, 100_000, 7, 20),
                   expected_counts(p_b, p_seq, 100_000)):
        mle, lep = estimate_tables(counts, Target.POLAR, HEADLINE[1], w,
                                   (0.0, math.pi))
        assert not (mle.omitted.any() or lep.omitted.any())
        for k, cw in enumerate(counts.counts_w):
            tables.append((cw.ravel().tolist(), counts.n,
                           mle.estimate[k], mle.variance_estimate[k],
                           lep.estimate[k], lep.variance_estimate[k]))
    return tables


SETS = {"map": _map_points, "hard": _hard_points}


# --- the errors ---

def _ratio(err, scale):
    if not err:
        return 0.0
    return float(mp.fabs(err) / (EPS * scale)) if scale else math.inf


def point_errors(groups):
    """The worst error of each function over ``groups``, in units of eps
    times the quantity's scale."""
    worst = dict.fromkeys(BOUNDS["map"], 0.0)
    for (mu, nu), target, theta, phi in groups:
        a, b = bloch_povm(mu), bloch_povm(nu)
        w = build_hovm(a, b, sequential_povm(a, b))
        psi, dpsi = amplitudes(theta, phi, target)
        values, slopes = oq_values(w, psi), oq_slopes(w, psi, dpsi)
        qfi = qfi_pure(psi, dpsi)
        got = {"oq_values": values.reshape(4, -1).T,
               "oq_slopes": slopes.reshape(4, -1).T,
               "negativity": negativity(values), "oqfi": oqfi(values, slopes),
               "qfi_pure": qfi, "advantage": advantage(values, slopes, qfi)}
        exact = oracle_hovm(mu, nu)
        for k in range(len(theta)):
            want = oracle_point(exact, theta[k], phi[k], target)
            info = want["oqfi"]
            scales = {"oq_values": 1, "oq_slopes": 1, "negativity": 1,
                      "oqfi": want["oqfi_scale"], "qfi_pure": want["qfi_pure"],
                      "advantage": want["oqfi_scale"] / (info or 1) + 1}
            for name, scale in scales.items():
                mine = got[name][k]
                for g, x in zip(np.atleast_1d(mine), np.atleast_1d(want[name])):
                    if mp.isinf(x) or math.isinf(g):
                        err = 0.0 if g == x else math.inf
                    else:
                        err = _ratio(mpf(float(g)) - x, scale)
                    worst[name] = max(worst[name], err)
    return worst


def threshold_error(pairs):
    worst = 0.0
    for mu, nu in pairs:
        got, want = sharpness_threshold(mu, nu), oracle_threshold(mu, nu)
        if got is None or want is None:
            worst = max(worst, 0.0 if got is want else math.inf)
        else:
            worst = max(worst, _ratio(mpf(got) - want, want))
    return worst


def estimator_errors(tables):
    """The worst error of each estimate and predicted variance over
    ``tables``, and how many tables were left out: those whose model has a
    cell <= 0 at the float MLE, where the likelihood is not defined."""
    exact = oracle_hovm(*_mub(TABLE_LAM))
    worst = dict.fromkeys(ESTIMATOR_BOUNDS, 0.0)
    left_out = 0
    for cw, n, mle, mle_var, lep, lep_var in tables:
        if min(_model(exact, mle, HEADLINE[1])[0]) <= 0:
            left_out += 1
            continue
        counts = [mpf(c) for c in cw]
        g_mle, v_mle = oracle_mle(exact, counts, n, HEADLINE[1], mle)
        g_lep, v_lep = oracle_lep(exact, counts, n, HEADLINE[1], lep)
        for name, err in (("mle", mpf(mle) - g_mle), ("lep", mpf(lep) - g_lep),
                          ("mle_var", mpf(mle_var) / v_mle - 1),
                          ("lep_var", mpf(lep_var) / v_lep - 1)):
            worst[name] = max(worst[name], float(mp.fabs(err)))
    return worst, left_out


@pytest.mark.parametrize("name", SETS)
def test_errors_stay_within_their_bounds(name):
    worst = point_errors(SETS[name]())
    assert not [f for f, bound in BOUNDS[name].items() if worst[f] > bound], worst


def test_estimator_errors_stay_within_their_bounds():
    worst, left_out = estimator_errors(_tables())
    # no table of the headline run leaves the model's domain
    assert left_out == 0
    assert not [f for f, bound in ESTIMATOR_BOUNDS.items()
                if worst[f] > bound], worst


def test_threshold_error_stays_within_its_bound():
    assert threshold_error(_directions()) <= THRESHOLD_BOUND


def test_the_points_are_what_they_claim():
    (pair, _, theta, phi), = _map_points()
    assert len(theta) == 200
    exact = oracle_hovm(*pair)
    assert all(oracle_point(exact, t, f, Target.POLAR)["negativity"]
               <= POSITIVITY_TOL for t, f in zip(theta, phi))
    # the least cells of the hard spots nearly vanish, as asked
    (pair, _, theta, phi), *_ = _hard_points()
    exact = oracle_hovm(*pair)
    least = [min(oracle_point(exact, t, f, Target.POLAR)["oq_values"])
             for t, f in zip(theta, phi)]
    for cell, got in zip(np.repeat([1e-6, 1e-9, 1e-11], 2), least):
        assert abs(got / cell - 1) < 1e-3


import numpy as np
import pytest

from oqmetro.errors import OutcomeCountMismatch
from oqmetro.estimation import _outcome_probs
from oqmetro.measurement import (
    Hovm,
    Povm,
    bloch_povm,
    build_hovm,
    mutually_unbiased_pair,
    sequential_povm,
)
from oqmetro.oq import oq_slopes, oq_values
from oqmetro.probe import Target, amplitudes


def mub_hovm(lam):
    """Mutually unbiased z/x pair at the given sharpness plus its HOVM."""
    a, b = mutually_unbiased_pair(lam)
    return a, b, build_hovm(a, b, sequential_povm(a, b))


def marginality_defect(w, a, b):
    """Worst entrywise deviation of the HOVM marginals from A and B.

    Accepts a ``Hovm`` or a raw (d, d, 2, 2) grid, so deliberately
    defective grids can be scored too.
    """
    elements = w.elements if isinstance(w, Hovm) else np.asarray(w, dtype=complex)
    d = elements.shape[0]
    if d != a.outcomes or d != b.outcomes:
        raise OutcomeCountMismatch("outcome-count mismatch")
    defect_a = np.abs(elements.sum(axis=1) - np.array(a.effects)).max()
    defect_b = np.abs(elements.sum(axis=0) - np.array(b.effects)).max()
    return float(max(defect_a, defect_b))


def probe(theta, phi, target=Target.POLAR):
    """Amplitudes and target-angle slopes, the (psi, dpsi) the kernel takes."""
    return amplitudes(theta, phi, target)


def cells(w, psi, dpsi):
    """OQ cells and their slopes at the probe points, the (values, slopes)
    that ``oqfi`` and ``advantage`` take."""
    return oq_values(w, psi), oq_slopes(w, psi, dpsi)


def setting_probs(theta, phi, a, b):
    """Outcome probabilities of B and of the sequential setting A-then-B."""
    psi = amplitudes(theta, phi)
    return _outcome_probs(psi, b), _outcome_probs(psi, sequential_povm(a, b))


def random_bloch(rng, max_norm=1.0):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0, max_norm)


def random_qubit_povm(rng):
    return bloch_povm(random_bloch(rng))


def random_conjunction(rng, outcomes=4):
    """Random valid POVM: random PSD chunks renormalized by S^{-1/2}."""
    chunks = []
    for _ in range(outcomes):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        chunks.append(x @ x.conj().T)
    total = sum(chunks)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return Povm(tuple(inv_root @ g @ inv_root for g in chunks))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

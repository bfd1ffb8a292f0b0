import numpy as np
import pytest

from pcsflow.checks import random_trapped_state, rel_diff  # noqa: F401  (re-exported to the tests)
from pcsflow.spectral import FlowParams, SpectralState


def make_state(params: FlowParams, entries: dict, t: float = 0.0) -> SpectralState:
    """State with the given {mode: coefficient} entries, zeros elsewhere."""
    coeffs = np.zeros(params.n_max + 1, dtype=np.complex128)
    for n, value in entries.items():
        coeffs[n] = value
    return SpectralState(params, t, coeffs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

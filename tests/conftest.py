import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # tests import local oracles.py

from g2flow.checks import _band_limited as band_limited_form  # noqa: F401
from g2flow.lattice import FormField


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def closed_perturbed_phi(lat, rng, n_modes=4, amp=5e-3, kmax=2):
    """phi0 + d(beta) for a random band-limited beta; closed by construction."""
    from g2flow.g2algebra import PHI0
    from g2flow.lattice import exterior_derivative

    beta = band_limited_form(lat, 2, rng, n_modes=n_modes, amp=amp, kmax=kmax)
    return FormField(lat, 3, PHI0 + exterior_derivative(beta).data)

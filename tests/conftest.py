import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # tests import local oracles.py

from g2flow.checks import _band_limited as band_limited_form  # noqa: F401
from g2flow.checks import _closed_perturbed_phi as closed_perturbed_phi  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


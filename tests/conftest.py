import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# every hypothesis test draws the same examples on every run; each keeps its
# own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

sys.path.insert(0, str(Path(__file__).parent))  # golden_kapferer importable

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def tailorshop_text():
    return (DATA_DIR / "tailorshop_synthetic.dl").read_text()

import os
import sys

# one BLAS thread, set before numpy loads, as the CLI does: the bitwise contract
# assumes it, and a second BLAS thread contending with a busy core doubles the run time
if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before tests/conftest.py could pin BLAS to one thread")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from privcell.channel import Scenario


@pytest.fixture
def tiny():
    """Small scenario used where the physics does not matter much."""
    return Scenario(
        M=3, K=2, N_a=2, N_r=1, tau_p=2, tau_d=6,
        R_km=0.5, sigma2=1e-13, seed=1234,
    )


@pytest.fixture
def full_obs():
    """No switch: every antenna observed in every slot."""
    return Scenario(
        M=3, K=2, N_a=2, N_r=2, tau_p=2, tau_d=6,
        R_km=0.5, sigma2=1e-13, seed=1234,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(99)

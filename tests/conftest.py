"""Shared fixtures; the expensive batch runs are session-scoped."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from essential_lab import montecarlo as mc

ACCEPT_SEED = 42


@pytest.fixture(scope="session")
def unifg_100k():
    """Rotation-invariant experiment at acceptance scale."""
    return mc.run_experiment("unifG", 100_000, ACCEPT_SEED, workers=1)


@pytest.fixture(scope="session")
def psi_100k():
    """Correspondence experiment at acceptance scale."""
    return mc.run_experiment("psi", 100_000, ACCEPT_SEED, workers=1)


@pytest.fixture(scope="session")
def det_100k():
    """Determinant ensemble that criterion 04 sets against ``psi_100k``, on the next seed."""
    return mc.estimate_abs_det(100_000, ACCEPT_SEED + 1)

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
def det_1m():
    """Determinant ensemble that criterion 04 sets against ``psi_100k``, on the next seed.

    ``rng_for(ACCEPT_SEED, i)`` keys instance i of ``psi_100k``, so the
    determinant route draws from other streams.
    """
    return mc.estimate_abs_det(1_000_000, ACCEPT_SEED + 1)

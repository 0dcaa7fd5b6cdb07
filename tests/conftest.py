"""Helpers shared by the test modules."""

import numpy as np
import pytest

from sloclab.measures import SubspaceBasis


@pytest.fixture
def random_subspace():
    """Factory for a random k-dim subspace of R^n: QR of a Gaussian matrix."""
    def make(ambient_dim: int, dim: int, rng: np.random.Generator) -> SubspaceBasis:
        q, r = np.linalg.qr(rng.standard_normal((ambient_dim, dim)))
        return SubspaceBasis(q * np.sign(np.diag(r)))
    return make

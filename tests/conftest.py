"""Helpers shared by the test modules."""

import numpy as np
import pytest

from sloclab.measures import MeasureSpec, SubspaceBasis


class OutsideSpec(MeasureSpec):
    """A spec of no catalog family, as a subclass from outside the package would be."""

    family = "outside"
    dim = 2

    def measure_id(self):
        return "outside:2"


@pytest.fixture
def outside_spec():
    """A 2-dimensional `MeasureSpec` that no tilt or deficit route serves."""
    return OutsideSpec()


@pytest.fixture
def random_subspace():
    """Factory for a random k-dim subspace of R^n: QR of a Gaussian matrix."""
    def make(ambient_dim: int, dim: int, rng: np.random.Generator) -> SubspaceBasis:
        q, r = np.linalg.qr(rng.standard_normal((ambient_dim, dim)))
        return SubspaceBasis(q * np.sign(np.diag(r)))
    return make

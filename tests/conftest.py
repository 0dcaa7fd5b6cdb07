"""Helpers shared by the test modules."""

import pytest

from sloclab.measures import MeasureSpec


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


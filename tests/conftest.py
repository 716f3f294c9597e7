"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from hardyions import meter
from hardyions.protocol import intermediate_state


@pytest.fixture
def double_precision(monkeypatch):
    """The package with meter._LD, the one name that sets the extended precision, patched to float64."""
    monkeypatch.setattr(meter, "_LD", np.float64)
    intermediate_state.cache_clear()  # its states hold meters whose kernels were built in longdouble
    yield
    intermediate_state.cache_clear()

"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from hardyions import cli, meter, protocol
from hardyions.protocol import intermediate_state


@pytest.fixture
def double_precision(monkeypatch):
    """The package with meter._LD, the one name that sets the extended precision, patched to float64."""
    monkeypatch.setattr(meter, "_LD", np.float64)
    intermediate_state.cache_clear()  # its states hold meters whose kernels were built in longdouble
    yield
    intermediate_state.cache_clear()


@pytest.fixture
def cold_reports():
    """The parameter-free reports (ideal, strong), their CLI texts and every memoized prefix evaluated afresh on next use."""
    cli._render_parameter_free.cache_clear()
    protocol._ideal.cache_clear()
    protocol._strong_comparison.cache_clear()
    intermediate_state.cache_clear()

"""Property tests: a batch run of the weak Gaussian experiment is B scalar runs, bit for bit."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyions.meter import GaussianMeter
from hardyions.protocol import run_weak_gaussian
from hardyions.statecore import GG_INDEX, N_INTERNAL

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

REPORTED = ("postselection_probability", "pointer_mean", "pointer_variance", "closed_form_mean")


@PROPERTY_SETTINGS
@given(
    sigma=st.floats(0.05, 20.0),
    ratios=st.lists(st.floats(0.0, 6.0, exclude_min=True), min_size=1, max_size=50),
)
def test_batch_equals_scalar_runs_bit_for_bit(sigma, ratios):
    lengths = [aos * sigma for aos in ratios]
    assume(all(a > 0.0 for a in lengths))  # a zero displacement has the other branch layout
    batch = run_weak_gaussian(np.array(lengths), sigma)
    for k, a in enumerate(lengths):
        single = run_weak_gaussian(a, sigma)
        assert [getattr(batch, name)[k] for name in REPORTED] == [getattr(single, name) for name in REPORTED]


def test_batch_of_zero_displacements_merges_like_one_run():
    batch = run_weak_gaussian(np.zeros(3))
    single = run_weak_gaussian(0.0)
    assert batch.conditional_pointer.meter.dim == single.conditional_pointer.meter.dim == 1
    for name in REPORTED:
        assert getattr(batch, name) == 3 * [getattr(single, name)]


def test_mixed_branch_layout_rejected():
    # a = 0 lands the |gg> branch on the center it left, a > 0 does not: the sets cannot share amplitudes
    with pytest.raises(ValueError, match="same branches"):
        run_weak_gaussian(np.array([0.5, 0.0, 1.0]))
    # the same rule on a two-center meter: a shift of 0.4 merges -0.4 into 0, a shift of 0.5 does not
    amps = np.zeros((N_INTERNAL, 2), dtype=complex)
    amps[GG_INDEX, 1] = 1.0
    with pytest.raises(ValueError, match="same branches"):
        GaussianMeter(1.0, (0.0, -0.4)).couple(amps, GG_INDEX, np.array([0.4, 0.5]))

"""Property tests: a batch run of the weak Gaussian experiment is B scalar runs, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyions.meter import evaluate_gaussian, to_grid
from hardyions.protocol import run_weak_gaussian

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

REPORTED = ("postselection_probability", "pointer_mean", "pointer_variance", "closed_form_mean")


@PROPERTY_SETTINGS
@given(
    sigma=st.floats(0.05, 20.0),
    ratios=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=50),
)
def test_batch_equals_scalar_runs_bit_for_bit(sigma, ratios):
    lengths = [aos * sigma for aos in ratios]
    batch = run_weak_gaussian(np.array(lengths), sigma)
    for k, a in enumerate(lengths):
        single = run_weak_gaussian(a, sigma)
        assert [getattr(batch, name)[k] for name in REPORTED] == [getattr(single, name) for name in REPORTED]


def test_batch_of_zero_displacements_equals_one_run():
    batch = run_weak_gaussian(np.zeros(3))
    single = run_weak_gaussian(0.0)
    for name in REPORTED:
        assert getattr(batch, name) == 3 * [getattr(single, name)]


def test_batch_pointer_has_no_branch_list():
    pointer = run_weak_gaussian(np.array([0.5, 1.0])).conditional_pointer
    for read in (pointer.to_json_dict, lambda: to_grid(pointer), lambda: evaluate_gaussian(pointer, np.zeros(3))):
        with pytest.raises(ValueError, match="batch pointer"):
            read()

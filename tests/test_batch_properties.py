"""Property tests: a batch run of the weak Gaussian experiment is B scalar runs, bit for bit."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyions.meter import GaussianMeter, evaluate_gaussian, to_grid
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


def test_mixed_displacements_rejected():
    # a = 0 lands the |gg> branch on the center it left, a > 0 does not: the sets cannot share amplitudes
    with pytest.raises(ValueError, match="same branches"):
        run_weak_gaussian(np.array([0.5, 0.0, 1.0]))


def couple_second_branch(shifts):
    """Couple the |gg> branch at -0.4 of the two-center meter (0.0, -0.4), moved by each shift."""
    amps = np.zeros((N_INTERNAL, 2), dtype=complex)
    amps[GG_INDEX, 1] = 1.0
    return GaussianMeter(1.0, (0.0, -0.4)).couple(amps, GG_INDEX, np.array(shifts))


# a shift of 0.4 merges -0.4 into 0, a shift of 0.5 does not; every set must do what the first does
@pytest.mark.parametrize(
    "shifts", [[0.4, 0.5], [0.5, 0.4], [0.5, 0.5, 0.4]], ids=["first-merges", "second-merges", "last-merges"]
)
def test_mixed_branch_layout_rejected(shifts):
    with pytest.raises(ValueError, match="same branches"):
        couple_second_branch(shifts)


@PROPERTY_SETTINGS
@given(shifts=st.lists(st.sampled_from([0.0, 0.4, 0.5, -0.4]), min_size=1, max_size=6))
def test_layout_check_matches_a_per_set_index_scan(shifts):
    # the reference: each set's layout, each center's first equal center, taken with list.index
    joint = [[0.0, -0.4, -0.4 + shift] for shift in shifts]
    layouts = {tuple(map(row.index, row)) for row in joint}
    if len(layouts) > 1:
        with pytest.raises(ValueError, match="same branches"):
            couple_second_branch(shifts)
    else:
        (layout,) = layouts
        _, meter = couple_second_branch(shifts)
        assert meter.points.tolist() == [[d for j, d in enumerate(row) if layout[j] == j] for row in joint]


def test_merge_in_every_set_accepted():
    amps, meter = couple_second_branch([0.4, 0.4])
    assert meter.dim == 2
    assert meter.points.tolist() == [[0.0, -0.4]] * 2
    assert amps[GG_INDEX].tolist() == [1.0, 0.0]


def test_batch_pointer_has_no_branch_list():
    pointer = run_weak_gaussian(np.array([0.5, 1.0])).conditional_pointer
    for read in (pointer.to_json_dict, lambda: to_grid(pointer), lambda: evaluate_gaussian(pointer, np.zeros(3))):
        with pytest.raises(ValueError, match="batch pointer"):
            read()

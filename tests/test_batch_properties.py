"""Property tests: a batch run of the weak Gaussian experiment is B scalar runs, bit for bit,
and a, given in units of sigma, is run as entered: sigma scales only the reported lengths."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyions import cli
from hardyions.meter import evaluate_gaussian, to_grid
from hardyions.protocol import RunConfig, run_weak_gaussian
from hardyions.shots import prepare_experiment

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

SIGMAS = st.one_of(st.floats(0.05, 20.0), st.sampled_from([0.37, 3.1, 1e-100, 1e100]))

REPORTED = ("postselection_probability", "pointer_mean", "pointer_variance", "closed_form_mean")


@PROPERTY_SETTINGS
@given(
    sigma=st.floats(0.05, 20.0),
    ratios=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=50),
)
def test_batch_equals_scalar_runs_bit_for_bit(sigma, ratios):
    batch = run_weak_gaussian(np.array(ratios), sigma)
    for k, a in enumerate(ratios):
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


def cli_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@PROPERTY_SETTINGS
@given(
    sigma=SIGMAS,
    low=st.floats(0.01, 6.0),
    width=st.floats(0.01, 6.0),
    steps=st.integers(2, 20),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_scan_output_does_not_depend_on_sigma(sigma, low, width, steps, fmt):
    argv = ["--min", repr(low), "--max", repr(low + width), "--steps", str(steps), "--format", fmt]
    assert cli_output("scan", *argv, "--sigma", repr(sigma)) == cli_output("scan", *argv)


@PROPERTY_SETTINGS
@given(sigma=SIGMAS, ratio=st.floats(0.0, 6.0))
def test_weak_probability_does_not_depend_on_sigma(sigma, ratio):
    # the command hands the engine the entered a/sigma itself, not a/sigma * sigma / sigma
    argv = ["weak", "--a", repr(ratio), "--format", "json"]
    scaled, unit = (json.loads(cli_output(*argv, *extra)) for extra in (["--sigma", repr(sigma)], []))
    assert scaled["postselection_probability"] == unit["postselection_probability"]


@PROPERTY_SETTINGS
@given(sigma=SIGMAS, ratios=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=50))
def test_unitless_results_depend_only_on_a_over_sigma(sigma, ratios):
    probability = run_weak_gaussian(np.array(ratios), sigma).postselection_probability
    assert probability == run_weak_gaussian(np.array(ratios)).postselection_probability


@PROPERTY_SETTINGS
@given(sigma=SIGMAS, ratio=st.floats(0.0, 6.0))
def test_prepared_experiment_scales_only_its_positions(sigma, ratio):
    # the threshold and the CDF are those of the unit run, bit for bit; sigma scales only the positions
    scaled, unit = prepare_experiment(RunConfig(ratio, sigma)), prepare_experiment(RunConfig(ratio))
    assert scaled.accept_below == unit.accept_below
    assert scaled.cdf.tobytes() == unit.cdf.tobytes()
    assert scaled.xs.tobytes() == (unit.xs * sigma).tobytes()

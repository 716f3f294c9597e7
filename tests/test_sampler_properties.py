"""Property: the guide-table pointer lookup is np.interp(u, cdf, xs) bit for bit."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyions.protocol import RunConfig
from hardyions.shots import GUIDE_CELLS, SAMPLING_GRID_POINTS, PreparedExperiment, prepare_experiment

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

SIGN_CHANGE = math.sqrt(8.0 * math.log(2.0))  # a/sigma where the conditional mean changes sign
a_over_sigma = st.one_of(
    st.floats(0.0, 6.0),
    st.sampled_from([0.0, 2.35482, SIGN_CHANGE, math.nextafter(SIGN_CHANGE, 0.0), 6.0]),
)
sigmas = st.floats(0.05, 20.0)


def assert_matches_interp(prepared, u):
    expected = np.interp(u, prepared.cdf, prepared.xs)
    assert prepared.pointer_samples(u).tobytes() == expected.tobytes()


def breakpoint_keys(cdf):
    """Every breakpoint a key can hit (keys lie in [0, 1)), the double just below each, and both ends."""
    breakpoints = cdf[cdf < 1.0]
    return np.concatenate([breakpoints, np.nextafter(breakpoints, 0.0), [0.0, np.nextafter(1.0, 0.0)]])


@PROPERTY_SETTINGS
@given(
    aos=a_over_sigma,
    sigma=sigmas,
    seed=st.integers(0, 2**32 - 1),
    # np.interp computes each slope inline for fewer keys than grid points, and precomputes them otherwise
    few=st.integers(1, SAMPLING_GRID_POINTS - 1),
    many=st.integers(SAMPLING_GRID_POINTS, 4 * SAMPLING_GRID_POINTS),
    picked=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
)
def test_guide_lookup_is_interp_bit_for_bit(aos, sigma, seed, few, many, picked):
    prepared = prepare_experiment(RunConfig(a=aos, sigma=sigma))
    cdf = prepared.cdf
    rng = np.random.default_rng(seed)
    for n in (few, many):
        assert_matches_interp(prepared, rng.random(n))
    assert_matches_interp(prepared, np.array(picked))
    edges = breakpoint_keys(cdf)
    assert_matches_interp(prepared, edges)
    # the top cell holds several breakpoints, so some of these keys took the binary search
    assert prepared.wide[-1]
    assert prepared.wide[(edges * GUIDE_CELLS).astype(np.intp)].sum() > 1


def test_repeated_cdf_values_take_the_binary_search():
    prepared = prepare_experiment(RunConfig(a=0.3))
    cdf = prepared.cdf
    top = np.flatnonzero(cdf == 1.0)
    assert len(top) > 1  # the last steps add less than half an ulp of 1.0, so 1.0 repeats
    below_top = cdf[top[0] - 3 : top[0]]
    u = np.concatenate([below_top, np.nextafter(below_top, 0.0), [np.nextafter(1.0, 0.0)]])
    assert prepared.wide[(u * GUIDE_CELLS).astype(np.intp)].all()
    assert_matches_interp(prepared, u)


@PROPERTY_SETTINGS
@given(
    # zero weights repeat CDF values inside the table; tiny ones crowd breakpoints into one cell
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-200, 1.0), st.floats(1e-6, 1e-4)), min_size=1, max_size=60),
    # any increasing positions, -0.0 among them, where a hit breakpoint must keep its sign
    positions=st.sets(st.floats(-1e3, 1e3), min_size=61, max_size=61),
    seed=st.integers(0, 2**32 - 1),
)
def test_guide_lookup_is_interp_on_any_table(weights, positions, seed):
    cdf = np.concatenate([[0.0], np.cumsum(weights)])
    assume(cdf[-1] > 0.0)
    cdf /= cdf[-1]
    xs = np.array(sorted(positions)[: len(cdf)])
    prepared = PreparedExperiment(RunConfig(), 0.0, cdf, xs)
    assert_matches_interp(prepared, breakpoint_keys(cdf))
    assert_matches_interp(prepared, np.random.default_rng(seed).random(200))


def test_hit_breakpoint_keeps_its_position():
    # np.interp returns xs[j] itself where a key equals cdf[j]: slope * 0 + xs[j] would turn -0.0 into 0.0
    prepared = PreparedExperiment(RunConfig(), 0.0, np.array([0.0, 0.5, 1.0]), np.array([-1.0, -0.0, 1.0]))
    assert prepared.pointer_samples(np.array([0.5])).tobytes() == np.array([-0.0]).tobytes()


def test_keys_at_and_below_every_cell_boundary():
    # a breakpoint on every cell boundary: a key's cell must be exact, or the key just below a
    # boundary would be looked up in the cell above it
    cdf = np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
    xs = np.cumsum(np.random.default_rng(3).random(GUIDE_CELLS + 1))
    assert_matches_interp(PreparedExperiment(RunConfig(), 0.0, cdf, xs), breakpoint_keys(cdf))

"""Properties of the pointer sampler's alias table, on the physics tables and on arbitrary ones.

At every point of every table: each cell's two pieces sum to exactly 1; each
CDF interval's mass, its own piece plus the pieces of the cells that alias it,
matches the CDF's; and every sample lies in its interval. offset + frac * scale
rounds monotonically in frac, so the two ends of a piece bound all its samples.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hardyions.protocol import RunConfig
from hardyions.shots import PreparedExperiment, prepare_experiment

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
MASS_TOLERANCE = 4e-15
ONE_BELOW = math.nextafter(1.0, 0.0)

SIGN_CHANGE = math.sqrt(8.0 * math.log(2.0))  # a/sigma where the conditional mean changes sign
a_over_sigma = st.one_of(
    st.floats(0.0, 6.0),
    st.sampled_from([0.0, 2.35482, SIGN_CHANGE, math.nextafter(SIGN_CHANGE, 0.0), 6.0]),
)
sigmas = st.floats(0.05, 20.0)


def padded(prepared):
    """The CDF's interval masses and positions, padded with zero-mass intervals to the table's cells."""
    cells, n = len(prepared.prob), len(prepared.cdf) - 1
    masses = np.concatenate([np.diff(prepared.cdf), np.zeros(cells - n)])
    return masses, np.concatenate([prepared.xs, np.full(cells - n, prepared.xs[-1])])


def key_intervals(prepared, u):
    """The CDF interval each key draws from: its cell's own below prob, else the cell's alias."""
    cells = len(prepared.prob)
    cell = np.floor(u * cells).astype(np.intp)
    frac = u * cells - cell
    return np.where(frac < prepared.prob[cell], cell, prepared.alias[cell])


def boundary_keys(cells):
    """Keys 0 and nextafter(1, 0), each cell boundary and the double just below it."""
    bounds = np.arange(1, cells) / cells
    return np.concatenate([[0.0, ONE_BELOW], bounds, np.nextafter(bounds, 0.0)])


def assert_alias_contract(prepared, u):
    prob, alias, offsets, scales = prepared.prob, prepared.alias, prepared.offsets, prepared.scales
    cells = len(prob)
    assert cells & (cells - 1) == 0 and cells >= len(prepared.cdf) - 1  # a power of two, so keys split exactly
    masses, xs = padded(prepared)

    # each cell's two pieces, fracs [0, prob) for its own interval and [prob, 1) for its alias, sum to exactly 1
    assert np.all((0.0 <= prob) & (prob <= 1.0))
    assert np.all(prob + (1.0 - prob) == 1.0)

    # each interval's mass; a light (K mass < 1) keeps its own mass exactly, and no cell aliases it
    shares = prob / cells + np.bincount(alias, (1.0 - prob) / cells, minlength=cells)
    assert np.abs(shares - masses).max() <= MASS_TOLERANCE
    lights = masses * cells < 1.0
    assert np.array_equal(prob[lights], masses[lights] * cells)
    assert not lights[alias[prob < 1.0]].any()

    # every piece that can be drawn maps its lowest and highest frac into its interval, with a scale >= 0
    interval = np.stack([np.arange(cells), alias], axis=1).ravel()
    low = np.stack([np.zeros(cells), prob], axis=1).ravel()
    high = np.stack([np.nextafter(prob, 0.0), np.full(cells, ONE_BELOW)], axis=1).ravel()
    drawn = np.stack([prob > 0.0, prob < 1.0], axis=1).ravel()
    interval, low, high = interval[drawn], low[drawn], high[drawn]
    offset, scale = offsets[drawn], scales[drawn]
    assert np.all(scale >= 0.0)
    assert np.all(offset + low * scale >= xs[interval])
    assert np.all(offset + high * scale <= xs[interval + 1])

    # and so do the keys
    keys = np.concatenate([boundary_keys(cells), u])
    samples = prepared.pointer_samples(keys)
    j = key_intervals(prepared, keys)
    assert np.all((xs[j] <= samples) & (samples <= xs[j + 1]))
    assert np.all(masses[j] > 0.0)  # no key draws from an interval of zero mass


@PROPERTY_SETTINGS
@given(aos=a_over_sigma, sigma=sigmas, seed=st.integers(0, 2**32 - 1))
def test_alias_table_on_physics_tables(aos, sigma, seed):
    prepared = prepare_experiment(RunConfig(a=aos, sigma=sigma))
    assert len(prepared.prob) == len(prepared.cdf)  # 4095 intervals and one of zero mass
    assert_alias_contract(prepared, np.random.default_rng(seed).random(5000))


@PROPERTY_SETTINGS
@given(
    # zero weights repeat CDF values inside the table; weights down to 1e-200 leave cells nearly empty
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-200, 1.0), st.floats(1e-6, 1e-4)), min_size=1, max_size=60),
    positions=st.sets(st.floats(-1e3, 1e3), min_size=61, max_size=61),
    seed=st.integers(0, 2**32 - 1),
)
@example(weights=[1.0], positions=set(range(61)), seed=0)  # a single interval
@example(weights=[0.0, 0.0, 1e-200, 1.0, 0.0], positions=set(range(61)), seed=0)  # the mass in one interval
@example(weights=[0.0] * 9 + [1.0], positions={float(k) for k in range(-30, 31)}, seed=0)
def test_alias_table_on_any_table(weights, positions, seed):
    cdf = np.concatenate([[0.0], np.cumsum(weights)])
    assume(cdf[-1] > 0.0)
    cdf /= cdf[-1]
    xs = np.array(sorted(positions)[: len(cdf)])
    prepared = PreparedExperiment(RunConfig(), 0.0, cdf, xs)
    assert_alias_contract(prepared, np.random.default_rng(seed).random(200))


def test_repeated_cdf_values_are_never_drawn():
    # the last steps of the CDF add less than half an ulp of 1.0, so 1.0 repeats: those intervals have no
    # mass, and no key in their cells, nor in any other, draws from them
    prepared = prepare_experiment(RunConfig(a=0.3))
    top = np.flatnonzero(prepared.cdf == 1.0)
    assert len(top) > 1
    empty = top[:-1]
    assert np.all(prepared.prob[empty] == 0.0)
    assert not np.isin(prepared.alias[prepared.prob < 1.0], empty).any()
    cells = len(prepared.prob)
    u = np.concatenate([empty / cells, np.nextafter((empty + 1) / cells, 0.0)])
    assert not np.isin(key_intervals(prepared, u), empty).any()
    assert_alias_contract(prepared, u)


def test_keys_at_and_below_every_cell_boundary():
    # a breakpoint on every cell boundary: every cell is its own interval, so a key's cell must be exact,
    # or the key just below a boundary would be drawn from the interval above it
    cells = 1 << 12
    cdf = np.arange(cells + 1) / cells
    xs = np.cumsum(np.random.default_rng(3).random(cells + 1))
    prepared = PreparedExperiment(RunConfig(), 0.0, cdf, xs)
    assert np.all(prepared.prob == 1.0)
    keys = boundary_keys(cells)
    np.testing.assert_array_equal(key_intervals(prepared, keys), np.floor(keys * cells))
    assert_alias_contract(prepared, keys)

"""Property tests: a Gaussian pointer read out of a state is a view on the state's meter."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyions.errors import InvariantError
from hardyions.meter import GaussianMeter, GaussianPointer, gaussian_moments, gaussian_norm_sq
from hardyions.statecore import BASIS_LABELS, N_INTERNAL, SystemState, pointer_component

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def populated_states(draw):
    """A 9 x M Gaussian-metered state (1-4 distinct centers) with some exact-zero amplitudes,
    and a row with at least one nonzero amplitude."""
    sigma = draw(st.floats(0.05, 20.0))
    m = draw(st.integers(1, 4))
    offsets = draw(st.lists(st.floats(-6.0, 6.0), min_size=m, max_size=m, unique=True))
    n = N_INTERNAL * m
    modulus = st.floats(0.01, 3.0)
    moduli = np.array(draw(st.lists(st.just(0.0) | modulus, min_size=n, max_size=n))).reshape(N_INTERNAL, m)
    phases = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n))).reshape(N_INTERNAL, m)
    label = draw(st.sampled_from(BASIS_LABELS))
    row = BASIS_LABELS.index(label)
    if not moduli[row].any():
        moduli[row, draw(st.integers(0, m - 1))] = draw(modulus)
    meter = GaussianMeter(sigma, tuple(sigma * d for d in offsets))
    return SystemState(moduli * np.exp(1j * phases), meter), label


def moments_or_error(pointer):
    try:
        return gaussian_moments(pointer)
    except (ValueError, InvariantError) as exc:
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(populated_states())
def test_pointer_of_a_populated_row_shares_the_state_meter(case):
    state, label = case
    pointer = pointer_component(state, label)
    assert pointer.meter is state.meter
    assert pointer.sigma == state.meter.sigma
    assert not pointer.coefficients.flags.writeable


@PROPERTY_SETTINGS
@given(populated_states())
def test_pointer_norm_matches_the_row_norm(case):
    # one contraction computes both, so they agree bit for bit
    state, label = case
    pointer = pointer_component(state, label)
    row = state.meter.row_norms_sq(state.amplitudes)[BASIS_LABELS.index(label)]
    assert gaussian_norm_sq(pointer) == row


@PROPERTY_SETTINGS
@given(populated_states())
def test_view_moments_equal_those_of_a_built_pointer(case):
    state, label = case
    row = state.amplitudes[BASIS_LABELS.index(label)]
    branches = [(complex(c), d) for c, d in zip(row, state.meter.centers)]
    built = GaussianPointer(state.meter.sigma, branches)
    assert moments_or_error(pointer_component(state, label)) == moments_or_error(built)


@PROPERTY_SETTINGS
@given(populated_states())
def test_zero_branches_change_no_bit_of_the_readout(case):
    # the view keeps the branches with coefficient 0; a pointer without them has the same norm and moments
    state, label = case
    row = state.amplitudes[BASIS_LABELS.index(label)]
    nonzero = GaussianPointer(state.meter.sigma, [(c, d) for c, d in zip(row, state.meter.centers) if c != 0])
    view = pointer_component(state, label)
    assert gaussian_norm_sq(view) == gaussian_norm_sq(nonzero)
    assert moments_or_error(view) == moments_or_error(nonzero)

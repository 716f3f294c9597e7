"""Property tests: the meters' norms, and a Gaussian pointer read out of a state as a view on its meter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyions.errors import InvariantError, PostSelectionError
from hardyions.meter import (
    _LD,
    GaussianMeter,
    GaussianPointer,
    _gram_forms,
    _overlap_norms,
    gauss_kernel,
    gaussian_moments,
    gaussian_norm_sq,
    gram_matrix,
)
from hardyions.statecore import (
    BASIS_LABELS,
    N_INTERNAL,
    NORM_FLOOR,
    NoMeter,
    QubitMeter,
    SystemState,
    pointer_component,
    project_internal,
)

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
    branches = [(complex(c), d) for c, d in zip(row, state.meter.points.tolist())]
    built = GaussianPointer(state.meter.sigma, branches)
    assert moments_or_error(pointer_component(state, label)) == moments_or_error(built)


@PROPERTY_SETTINGS
@given(populated_states())
def test_zero_branches_change_no_bit_of_the_readout(case):
    # the view keeps the branches with coefficient 0; a pointer without them has the same norm and moments
    state, label = case
    row = state.amplitudes[BASIS_LABELS.index(label)]
    nonzero = GaussianPointer(state.meter.sigma, [(c, d) for c, d in zip(row, state.meter.points.tolist()) if c != 0])
    view = pointer_component(state, label)
    assert gaussian_norm_sq(view) == gaussian_norm_sq(nonzero)
    assert moments_or_error(view) == moments_or_error(nonzero)


@st.composite
def metered_states(draw):
    """A Gaussian-metered state with some exact-zero amplitudes: one (9, M) state on one center
    set, on a batch of B sets, a batch of G amplitude sets (G, 9, M), or both with B = G."""
    sigma = draw(st.floats(0.05, 20.0))
    m = draw(st.integers(1, 4))
    sets, groups = draw(st.sampled_from([(0, 0), (3, 0), (0, 3), (3, 3)]))
    offsets = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=max(sets, 1) * m, max_size=max(sets, 1) * m)))
    shape = (groups, N_INTERNAL, m) if groups else (N_INTERNAL, m)
    centers = sigma * offsets.reshape(sets, m) if sets else sigma * offsets
    return SystemState(draw_amplitudes(draw, shape), GaussianMeter(sigma, centers))


@st.composite
def euclidean_states(draw):
    """A NoMeter or QubitMeter state with some exact-zero amplitudes: one (9, M) state or a batch (3, 9, M)."""
    meter = draw(st.sampled_from([NoMeter(), QubitMeter()]))
    shape = (*draw(st.sampled_from([(), (3,)])), N_INTERNAL, meter.dim)
    return SystemState(draw_amplitudes(draw, shape), meter)


def draw_amplitudes(draw, shape):
    """Complex amplitudes of the given shape: moduli 0 or in [0.01, 3], any phase."""
    n = int(np.prod(shape))
    moduli = np.array(draw(st.lists(st.just(0.0) | st.floats(0.01, 3.0), min_size=n, max_size=n))).reshape(shape)
    phases = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n))).reshape(shape)
    return moduli * np.exp(1j * phases)


@PROPERTY_SETTINGS
@given(metered_states() | euclidean_states())
def test_one_outcome_probability_is_that_row_of_the_nine(state):
    # project_internal forms the one row alone, with the bits of that row of the nine; a Euclidean
    # norm is the nine rows summed in order
    rows = state.meter.row_norms_sq(state.amplitudes)
    for idx, label in enumerate(BASIS_LABELS):
        if np.count_nonzero(rows[..., idx] < NORM_FLOOR):
            with pytest.raises(PostSelectionError):
                project_internal(state, label)
        else:
            assert np.asarray(project_internal(state, label)[0]).tobytes() == rows[..., idx].tobytes()
    if not isinstance(state.meter, GaussianMeter):
        assert state.meter.norm_sq(state.amplitudes).tobytes() == np.add.accumulate(rows.T)[-1].tobytes()


@PROPERTY_SETTINGS
@given(metered_states())
def test_overlap_norm_matches_the_row_forms_summed_in_order(state):
    # both in the kernel's precision, summing the same 9 M^2 terms in two orders: each sum is off
    # by at most about (9 + M^2) of its ulps times the terms' magnitudes, the form of |a|; a
    # double-precision S would be off by some 2000 (eps(double) / eps(longdouble) on x86)
    a, kernel = state.amplitudes, state.meter.gram
    in_order = np.add.accumulate(_gram_forms(a, kernel, a).real, axis=-1)[..., -1]
    overlaps = _overlap_norms(a, kernel)
    assert overlaps.shape == in_order.shape
    magnitude = _gram_forms(abs(a), kernel, abs(a)).real.sum(axis=-1)
    bound = (N_INTERNAL + state.meter.dim**2) * np.finfo(_LD).eps * magnitude
    assert (abs(overlaps - in_order) <= bound).all()
    assert state.norm_sq.tobytes() == np.maximum(overlaps.astype(float), 0.0).tobytes()


# centers whose differences are signed zeros, huge (overlap 0) or overflow to +-inf, besides ordinary ones
CENTERS = st.sampled_from([0.0, -0.0, 1e300, -1e300, 1.5e308, -1.5e308]) | st.floats(-6.0, 6.0)


@PROPERTY_SETTINGS
@given(sigma=st.floats(1e-3, 1e3), m=st.integers(1, 4), sets=st.sampled_from([(), (3,)]), data=st.data())
def test_gram_matrix_is_the_full_difference_kernel(sigma, m, sets, data):
    # one evaluation per pair i < j, mirrored, on a unit diagonal: every entry of the M x M evaluation
    shape = (*sets, m)
    centers = np.array(data.draw(st.lists(CENTERS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
    centers = centers.reshape(shape)
    kernel = gram_matrix(sigma, centers)  # warns of no overflow (error::RuntimeWarning)
    with np.errstate(over="ignore"):  # 1.5e308 - (-1.5e308) is inf in the reference's differences
        full = gauss_kernel(centers[..., :, None] - centers[..., None, :], sigma)
    assert (kernel.shape, kernel.dtype) == (full.shape, full.dtype)
    assert np.array_equal(kernel, full)  # not tobytes: the bytes that pad an x87 longdouble are undefined


import math
import warnings

import numpy as np
import pytest

from hardyions.errors import InvariantError
from hardyions.meter import (
    GaussianMeter,
    GaussianPointer,
    QubitPointer,
    cross_gram,
    evaluate_gaussian,
    gaussian_mean_x,
    gaussian_moments,
    gaussian_norm_sq,
    gaussian_second_moment,
    grid_moments,
    to_grid,
)
from hardyions.protocol import weak_gaussian_experiment
from hardyions.pulses import partial_ccnot
from hardyions.statecore import GG_INDEX, N_INTERNAL, QubitMeter, SystemState, pointer_component

HALF_OVERLAP_SEPARATION = math.sqrt(8.0 * math.log(2.0))


def single(center, sigma=1.0, coeff=1.0):
    return GaussianPointer(sigma, ((coeff, center),))


def conditional_shape(a, sigma=1.0):
    # the post-selected pointer: phi(x + a) - 2 phi(x), unnormalized
    return GaussianPointer(sigma, ((1.0, -a), (-2.0, 0.0)))


def quadrature_moments(pointer, pad=10.0, n=8192):
    # independent oracle: direct trapezoid integration of the sampled density
    lo = min(d for _, d in pointer.branches) - pad * pointer.sigma
    hi = max(d for _, d in pointer.branches) + pad * pointer.sigma
    xs = np.linspace(lo, hi, n)
    density = np.abs(evaluate_gaussian(pointer, xs)) ** 2
    norm = np.trapezoid(density, xs)
    mean = np.trapezoid(xs * density, xs) / norm
    second = np.trapezoid(xs * xs * density, xs) / norm
    return float(norm), float(mean), float(second)


class TestOverlap:
    def test_identical_gaussians(self):
        assert cross_gram(1.0, (0.0,), (0.0,))[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert gaussian_norm_sq(single(0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_half_overlap_separation(self):
        a = HALF_OVERLAP_SEPARATION
        assert cross_gram(1.0, (0.0,), (-a,))[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_half_overlap_against_quadrature(self):
        a = HALF_OVERLAP_SEPARATION
        xs = np.linspace(-12.0, 12.0, 8192)
        product = np.conj(evaluate_gaussian(single(0.0), xs)) * evaluate_gaussian(single(-a), xs)
        assert np.trapezoid(product, xs).real == pytest.approx(0.5, abs=1e-9)

    def test_conditional_shape_norm(self):
        a = 0.7
        expected = 5.0 - 4.0 * math.exp(-a * a / 8.0)
        assert gaussian_norm_sq(conditional_shape(a)) == pytest.approx(expected, rel=1e-14)


class TestGaussianMoments:
    def test_single_branch_mean_is_center(self):
        assert gaussian_mean_x(single(-1.3)) == -1.3
        assert gaussian_mean_x(single(0.25, coeff=0.5 - 0.5j)) == 0.25

    def test_small_displacement_mean_is_plus_a(self):
        a = 0.01
        mean = gaussian_mean_x(conditional_shape(a))
        assert abs(mean - a) <= 1e-4 * a

    def test_mean_vanishes_at_sign_change(self):
        a = HALF_OVERLAP_SEPARATION
        assert abs(gaussian_mean_x(conditional_shape(a))) < 1e-12

    def test_single_branch_second_moment(self):
        assert gaussian_second_moment(single(0.0, sigma=0.8)) == pytest.approx(0.64, rel=1e-14)
        assert gaussian_second_moment(single(2.0, sigma=0.8)) == pytest.approx(
            0.64 + 4.0, rel=1e-14
        )

    def test_second_moment_against_quadrature(self):
        pointer = conditional_shape(0.9)
        _, _, second = quadrature_moments(pointer)
        assert gaussian_second_moment(pointer) == pytest.approx(second, rel=1e-6)

    def test_degenerate_norm_rejected(self):
        zero = GaussianPointer(1.0, ((1.0, 0.0), (-1.0, 0.0)))
        with pytest.raises(ValueError, match="degenerate"):
            gaussian_mean_x(zero)

    def test_non_real_moments_raise(self):
        # a Hermitian S and a symmetric kernel give real moments; with a kernel that is not symmetric,
        # the complex coefficients' Im S no longer cancels, and the readout refuses the moments
        pointer = GaussianPointer(1.0, ((1.0, 0.0), (1j, 1.0)))
        vars(pointer.meter)["gram"] = np.array([[1.0, 0.9], [0.1, 1.0]], dtype=np.longdouble)
        with pytest.raises(InvariantError, match="non-real"):
            gaussian_moments(pointer)

    def test_translation_covariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            nb = rng.integers(1, 6)
            branches = tuple(
                (complex(rng.normal(), rng.normal()), rng.uniform(-3, 3)) for _ in range(nb)
            )
            p = GaussianPointer(1.0, branches)
            if gaussian_norm_sq(p) < 1e-3:
                continue
            t = rng.uniform(-2, 2)
            shifted = gaussian_mean_x(GaussianPointer(1.0, tuple((c, d + t) for c, d in branches)))
            assert shifted - gaussian_mean_x(p) == pytest.approx(t, abs=1e-12)

    def test_gram_positivity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            nb = rng.integers(1, 6)
            branches = tuple(
                (complex(rng.normal(), rng.normal()), rng.uniform(-3, 3)) for _ in range(nb)
            )
            p = GaussianPointer(1.0, branches)
            quad = gaussian_norm_sq(p)
            assert quad >= -1e-12
            if np.linalg.norm(p.coefficients) > 1e-6:
                assert quad > 0.0

    def test_batch_kernel_in_c_order(self):
        # the coupled meter keeps its centers, and its kernel, in C order
        final = weak_gaussian_experiment(np.linspace(0.01, 5.0, 50)).run()[0]
        assert final.meter.points.flags.c_contiguous
        assert final.meter.gram.flags.c_contiguous


class TestGrid:
    def test_single_branch_grid_mean(self):
        grid = to_grid(single(0.0))
        mean, var = grid_moments(grid)
        assert abs(mean) < 1e-8
        assert var == pytest.approx(1.0, rel=1e-6)

    def test_samples_on_the_padded_window_renormalized(self):
        # (xs, values): n uniform positions over the centers padded by six sigma, and unit trapezoid norm
        xs, values = to_grid(conditional_shape(0.5), n=1001)
        assert xs.tobytes() == np.linspace(-0.5 - 6.0, 6.0, 1001).tobytes()
        assert values.shape == xs.shape and values.dtype == complex
        assert np.trapezoid(np.abs(values) ** 2, xs) == pytest.approx(1.0, abs=1e-12)

    def test_displaced_branch(self):
        a = 0.8
        mean, var = grid_moments(to_grid(single(-a)))
        assert mean == pytest.approx(-a, abs=1e-8)
        assert var == pytest.approx(1.0, rel=1e-6)

    def test_grid_mean_matches_analytic(self):
        pointer = conditional_shape(0.5)
        mean, _ = grid_moments(to_grid(pointer))
        assert mean == pytest.approx(gaussian_mean_x(pointer), rel=1e-6)

    def test_conditional_mean_against_closed_form(self):
        a = 0.5
        g = math.exp(-a * a / 8.0)
        expected = -a * (1.0 - 2.0 * g) / (5.0 - 4.0 * g)
        mean, _ = grid_moments(to_grid(conditional_shape(a)))
        assert mean == pytest.approx(expected, rel=1e-6)

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            to_grid(single(0.0), xmin=-2.0, xmax=2.0)

    def test_invalid_grid_rejected(self):
        # each as a ValueError, with numpy's warnings raised as errors
        cases = [
            (single(0.0), {"xmin": 7.0, "xmax": -7.0}, "too small"),  # empty
            (single(0.0), {"xmin": 7.0, "xmax": 7.0}, "too small"),  # empty
            (single(0.0), {"xmin": -math.inf}, "finite window"),
            (single(0.0), {"xmax": math.inf}, "finite window"),
            (single(0.0), {"xmin": math.nan}, "finite window"),
            (single(0.0), {"xmax": math.nan}, "finite window"),
            (single(0.0), {"n": 1}, "two grid points"),
            (single(0.0), {"n": 0}, "two grid points"),
            (single(0.0, sigma=1e-10, coeff=1e305), {}, "cannot normalize"),  # c (2 pi sigma^2)^(-1/4) = inf
            (single(0.0, sigma=1e-10, coeff=1e300), {}, "cannot normalize"),  # finite samples whose squares overflow
            (single(0.0, sigma=1e-170), {}, "cannot normalize"),  # sigma^2 underflows: the samples are 0 / 0
        ]
        for pointer, kwargs, message in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    to_grid(pointer, **kwargs)


class TestOracleEquivalence:
    def test_random_pointers_match_grid(self):
        # 100 randomized branch sets, <= 5 branches within 3 sigma
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            nb = rng.integers(1, 6)
            branches = tuple(
                (complex(rng.normal(), rng.normal()), rng.uniform(-3, 3)) for _ in range(nb)
            )
            pointer = GaussianPointer(1.0, branches)
            if gaussian_norm_sq(pointer) < 1e-3:
                continue
            grid = to_grid(pointer, n=4096)
            mean, var = grid_moments(grid)
            analytic_mean = gaussian_mean_x(pointer)
            analytic_second = gaussian_second_moment(pointer)
            assert abs(mean - analytic_mean) <= 1e-6 * max(abs(analytic_mean), 1e-9)
            assert abs(var + mean * mean - analytic_second) <= 1e-6 * analytic_second
            checked += 1


def ccnot_rotate(p, theta):
    # the qubit meter attached to |gg> after the partial C2-NOT by theta
    amps = np.zeros((N_INTERNAL, 2), dtype=complex)
    amps[GG_INDEX] = [p.amp_g, p.amp_e]
    state = partial_ccnot(theta).apply(SystemState(amps, QubitMeter()))
    return pointer_component(state, "gg")


def fiducial_pointer():
    return QubitPointer(*QubitMeter().fiducial())


class TestQubit:
    def test_zero_angle_is_identity(self):
        p = fiducial_pointer()
        rotated = ccnot_rotate(p, 0.0)
        assert rotated.amp_g == p.amp_g
        assert rotated.amp_e == p.amp_e

    def test_pi_flips_ground(self):
        p = ccnot_rotate(QubitPointer(1.0, 0.0), math.pi)
        assert abs(p.amp_g) < 1e-15
        assert abs(abs(p.amp_e) - 1.0) < 1e-15

    def test_excited_population_shift(self):
        # rotating (|g>+|e>)/sqrt2 by theta gives P_e = (1 + sin theta) / 2
        for theta in (0.01, 0.1, 0.5):
            p = ccnot_rotate(fiducial_pointer(), theta)
            assert p.excited_population == pytest.approx(
                0.5 * (1.0 + math.sin(theta)), abs=1e-14
            )

    def test_rotation_is_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            amp /= np.linalg.norm(amp)
            p = QubitPointer(amp[0], amp[1])
            theta = rng.uniform(-3, 3)
            q = ccnot_rotate(p, theta)
            norm_sq = abs(q.amp_g) ** 2 + abs(q.amp_e) ** 2
            assert abs(norm_sq - 1.0) < 1e-14
            back = ccnot_rotate(q, -theta)
            assert back.amp_g == pytest.approx(p.amp_g, abs=1e-14)
            assert back.amp_e == pytest.approx(p.amp_e, abs=1e-14)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            QubitPointer(1.0, 1.0)


class TestValidationAndSerialization:
    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianPointer(0.0, ((1.0, 0.0),))
        with pytest.raises(ValueError):
            GaussianPointer(-1.0, ((1.0, 0.0),))

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError):
            GaussianPointer(1.0, ())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GaussianPointer(1.0, ((math.inf, 0.0),))

    def test_meter_identity(self):
        # a meter is keyed on sigma and the bytes of its read-only points, taken once at construction
        meter = GaussianMeter(1, [0.0, -0.5])
        same = GaussianMeter(1.0, np.array([0.0, -0.5]))
        assert meter == same
        assert hash(meter) == hash(same)
        assert meter != GaussianMeter(1.0, [[0.0, -0.5]])
        assert meter != GaussianMeter(2.0, [0.0, -0.5])
        assert not meter.points.flags.writeable

    def test_json_round_trip(self):
        p = GaussianPointer(0.7, ((1.0 + 2.0j, -0.5), (-2.0, 0.0)))
        data = p.to_json_dict()
        assert data == {"sigma": 0.7, "branches": [[1.0, 2.0, -0.5], [-2.0, 0.0, 0.0]]}
        branches = [(complex(re, im), d) for re, im, d in data["branches"]]
        q = GaussianPointer(data["sigma"], branches)
        assert q.branches == p.branches
        assert q.sigma == p.sigma

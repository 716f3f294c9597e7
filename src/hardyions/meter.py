"""Meters of the interferometer and the pointers they read out.

Each meter class owns its basis (dim, fiducial), its metric (row_norms_sq
of the nine internal outcomes, norm_sq of the whole), its readout (pointer)
and, for the meters a pulse couples to, that coupling (couple returns the
new amplitudes and meter). A meter measures amplitudes, never a state. This
module alone knows the Gaussian branch representation: the Gram kernel, the
contractions over it (each row's quadratic form; the norm, and a pointer's
moments, from the M x M branch overlaps), the light-shift displacement and
the readout. A GaussianMeter, keyed on sigma and its points, holds its
centers only as the read-only points array: one set, shape (M,), or a batch
of sets, shape (B, M), with one sigma; kernels, forms and moments carry the
batch axis, and one set runs the same lines. A GaussianPointer is a view on
a GaussianMeter and one coefficient per center; read from a state, it shares
the state's meter and cached kernel. The grid oracle (to_grid) samples a
pointer as the arrays (xs, values), an independent numerical check, and a
two-level pointer reads out the third-ion scheme.

The single-branch wavefunction is phi_d(x) = (2 pi sigma^2)^(-1/4)
exp(-(x - d)^2 / (4 sigma^2)), so a branch has position variance sigma^2.
Displaced branches are not orthogonal: <phi_i|phi_j> =
exp(-(d_i - d_j)^2 / (8 sigma^2)), and every inner product runs through
that Gram kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantError

NORM_FLOOR = 1e-15

GRID_POINTS_DEFAULT = 4096
GRID_PADDING_SIGMAS = 6.0

# Post-selected pointer means sit on near-complete cancellations between
# Gram terms, so the kernel is built in extended precision (80-bit on x86
# Linux; degrades gracefully where longdouble == double), and every form and
# moment over it is promoted to it. This name alone sets that precision.
_LD = np.longdouble


def check_sigma(sigma: float) -> float:
    """sigma as a float; ValueError unless it is a positive finite length."""
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be a positive finite length, got {sigma}")
    return float(sigma)


def gauss_kernel(delta, sigma: float):
    """Overlap exp(-delta^2 / (8 sigma^2)) of two width-sigma Gaussians separated by delta."""
    # delta and sigma scaled exactly by the power of two that brings sigma into [0.5, 1), so that
    # 8 sigma^2 cannot underflow where the kernel's precision is a double
    width, exponent = math.frexp(sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.ldexp(np.asarray(delta, dtype=_LD), -exponent)
        d_sq = d * d  # inf beyond the precision's range, where exp(-inf) = 0 is the true overlap
    return np.exp(-d_sq / (_LD(8.0) * _LD(width) * _LD(width)))


def _gram_forms(bra: np.ndarray, kernel: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """conj(bra[i]) . kernel . ket[i] for each row i, in the kernel's precision; leading axes broadcast."""
    return np.einsum("...im,...mn,...in->...i", np.conj(bra), kernel, ket)


def _overlap_norms(amplitudes: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The rows' forms summed, as sum_mn Re S[..., m, n] kernel[..., m, n], in the kernel's precision.

    S[..., m, n] = sum_i conj(a_im) a_in are the branch overlaps (Hermitian; the kernel is real):
    M^2 terms per kernel where the rows take 9 M^2, and amplitudes shared by a batch of kernels form S once.
    """
    amps = amplitudes.astype(np.result_type(kernel, amplitudes))
    return np.einsum("...mn,...mn->...", (amps.conj().mT @ amps).real, kernel)


def gram_matrix(sigma: float, centers) -> np.ndarray:
    """Gram matrix G[..., i, j] = <phi_{d_i}|phi_{d_j}> of each set of equal-width branches."""
    d = np.asarray(centers, dtype=float)
    return gauss_kernel(d[..., :, None] - d[..., None, :], sigma)


def cross_gram(sigma: float, centers_bra, centers_ket) -> np.ndarray:
    """Overlaps between two branch sets sharing the same width (kept where bench/spans.py wraps it)."""
    db = np.asarray(centers_bra, dtype=float)
    dk = np.asarray(centers_ket, dtype=float)
    return gauss_kernel(db[:, None] - dk[None, :], sigma)


# --- meter spaces -----------------------------------------------------------


class _EuclideanMetric:
    """Metric of an orthonormal meter basis: sums of |amplitude|^2."""

    def row_norms_sq(self, amplitudes: np.ndarray) -> np.ndarray:
        return np.einsum("...im,...im->...i", np.conj(amplitudes), amplitudes).real

    def norm_sq(self, amplitudes: np.ndarray):
        return np.add.accumulate(self.row_norms_sq(amplitudes).T)[-1]  # the row norms summed in order


@dataclass(frozen=True)
class NoMeter(_EuclideanMetric):
    """Placeholder meter for purely internal dynamics (M = 1)."""

    @property
    def dim(self) -> int:
        return 1

    def fiducial(self) -> np.ndarray:
        return np.ones(1, dtype=complex)

    def pointer(self, row: np.ndarray, label: str):
        raise ValueError("state has no meter attached")


class GaussianMeter:
    """Meter space spanned by width-sigma Gaussians at the given centers.

    points holds the centers as a read-only array: one set, shape (M,) with
    M = dim, or a batch of B sets, shape (B, M). Meters are equal when sigma
    and the shape and bytes of points are, so centers 0.0 and -0.0 differ.
    """

    def __init__(self, sigma: float, centers=(0.0,)) -> None:
        # a batch given in Fortran order (say, transposed) is copied to C order: the Gram
        # contractions over a kernel in that layout run 1.5x slower
        points = np.array(centers, dtype=float, order="C")
        if points.ndim not in (1, 2) or not points.size:
            raise ValueError("need at least one branch center, in one set or a batch of sets")
        if not all(map(math.isfinite, points.ravel().tolist())):
            raise ValueError("non-finite branch center")
        points.flags.writeable = False  # the key below is taken once
        self.sigma, self.points, self.dim = check_sigma(sigma), points, points.shape[-1]
        self._key = (self.sigma, points.shape, points.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussianMeter) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def fiducial(self) -> np.ndarray:
        amps = np.zeros(self.dim, dtype=complex)
        amps[0] = 1.0
        return amps

    @cached_property
    def gram(self) -> np.ndarray:
        """The Gram kernel of the centers, shape (..., M, M), built once per meter (read-only)."""
        kernel = gram_matrix(self.sigma, self.points)
        kernel.flags.writeable = False
        return kernel

    def row_norms_sq(self, amplitudes: np.ndarray) -> np.ndarray:
        """Gram-kernel quadratic form of each internal row, shape (..., 9); rounding below 0 reads 0."""
        return np.maximum(_gram_forms(amplitudes, self.gram, amplitudes).real.astype(float), 0.0)

    def norm_sq(self, amplitudes: np.ndarray):
        """The norm from the branch overlaps (_overlap_norms); rounding below 0 reads 0."""
        return np.maximum(_overlap_norms(amplitudes, self.gram).astype(float), 0.0)

    def pointer(self, row: np.ndarray, label: str) -> GaussianPointer:
        """The branches of one component as a GaussianPointer: a view on this meter that shares its kernel."""
        if not row.any():
            raise ValueError(f"component {label} carries no meter amplitude")
        return GaussianPointer._view(self, row)

    def couple(self, amplitudes: np.ndarray, target: int, shift):
        """Displace the branches attached to one internal row by shift; the new (amplitudes, meter).

        A finite set of branch centers is not closed under translation, so
        this coupling has no finite square matrix; it acts by moving centers:
        the displaced branches are appended after the old centers, where the
        row keeps coefficient 0, even where one lands on an old center. It is
        exactly norm-preserving, because the Gram kernel depends only on
        center differences (coincident centers included). A batch shift moves
        each center set by its own amount, and the sets share the amplitudes.
        """
        dim = self.dim
        moved = amplitudes[target].nonzero()[0]
        dest = self.points[..., moved] + np.asarray(shift)[..., None]
        joint = np.empty(dest.shape[:-1] + (dim + len(moved),))  # the centers, then the destinations
        joint[..., :dim], joint[..., dim:] = self.points, dest
        amps = np.concatenate((amplitudes, np.zeros((len(amplitudes), len(moved)))), axis=1)
        amps[target, dim:], amps[target, :dim] = amplitudes[target, moved], 0.0
        return amps, GaussianMeter(self.sigma, joint)


@dataclass(frozen=True)
class QubitMeter(_EuclideanMetric):
    """Third-ion meter with internal states (g, e); fiducial (|g> + |e>) / sqrt(2)."""

    @property
    def dim(self) -> int:
        return 2

    def fiducial(self) -> np.ndarray:
        r = 1.0 / math.sqrt(2.0)
        return np.array([r, r], dtype=complex)

    def pointer(self, row: np.ndarray, label: str) -> QubitPointer:
        return QubitPointer(row[0], row[1])

    def couple(self, amplitudes: np.ndarray, target: int, rotation: np.ndarray):
        """Rotate the meter attached to one internal row by a 2 x 2 unitary; the new (amplitudes, meter)."""
        amps = amplitudes.copy()
        amps[target] = rotation @ amps[target]
        return amps, self


MeterSpace = NoMeter | GaussianMeter | QubitMeter


# --- Gaussian pointer algebra -----------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class GaussianPointer:
    """Superposition sum_i c_i phi_{d_i}(x) of displaced ground-state Gaussians.

    A view on the GaussianMeter that holds sigma, the centers d_i and their
    Gram kernel, with one coefficient c_i per center (read-only; one row per
    center set on a batched meter, where branches and the grid raise ValueError).
    GaussianPointer(sigma, branches) builds the meter from (coefficient,
    center) pairs. The representation is exact: no truncation is involved.
    """

    meter: GaussianMeter
    coefficients: np.ndarray

    def __init__(self, sigma: float, branches) -> None:
        branches = tuple(branches)
        self._bind(GaussianMeter(sigma, tuple(d for _, d in branches)), [c for c, _ in branches])

    @classmethod
    def _view(cls, meter: GaussianMeter, coefficients) -> GaussianPointer:
        pointer = cls.__new__(cls)
        pointer._bind(meter, coefficients)
        return pointer

    def _bind(self, meter: GaussianMeter, coefficients) -> None:
        coefficients = np.array(coefficients, dtype=complex)
        if not np.isfinite(coefficients).all():
            raise ValueError(f"non-finite branch coefficient in {coefficients}")
        coefficients.flags.writeable = False
        object.__setattr__(self, "meter", meter)
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def sigma(self) -> float:
        return self.meter.sigma

    @cached_property
    def branches(self) -> tuple[tuple[complex, float], ...]:
        if self.meter.points.ndim > 1:
            raise ValueError("a batch pointer has no single branch list; read its moments instead")
        return tuple(zip(self.coefficients.tolist(), self.meter.points.tolist()))

    def to_json_dict(self) -> dict:
        return {"sigma": self.sigma, "branches": [[c.real, c.imag, d] for c, d in self.branches]}


def gaussian_norm_sq(p: GaussianPointer):
    """<p|p>: a float, or a list over a batch pointer."""
    return p.meter.row_norms_sq(p.coefficients[..., None, :])[..., 0].tolist()


def gaussian_moments(p: GaussianPointer, unit: float = 1.0):
    """(<x>, <x^2>, variance) of the normalized pointer, lengths times unit (lists on a batch); ValueError on overflow.

    |psi(x)|^2 is the signed mixture sum_mn w_mn N(x; mid_mn, sigma^2), mid_mn = (d_m + d_n) / 2, w = S o G and
    S = conj(c)^T c: norm, <x> and <x^2> sum Re w, Re w mid and Re w (sigma^2 + mid^2), and they, their quotients
    and the variance are formed in the kernel's precision and round once. Im w feeds the non-real check.
    """
    gram, non_real = p.meter.gram, False
    c = p.coefficients.astype(np.result_type(gram, p.coefficients))
    overlaps = np.conj(c)[..., :, None] * c[..., None, :]
    weights, half = overlaps.real * gram, p.meter.points.astype(_LD) / 2
    with np.errstate(all="ignore"):  # a vanishing norm and overflowing moments are caught below
        mid, width = (half[..., :, None] + half[..., None, :]) * _LD(unit), _LD(p.sigma) * _LD(unit)
        spread, den = width * width + mid * mid, np.einsum("...mn->...", weights)
        mean, second = (np.einsum("...mn,...mn->...", weights, x) / den for x in (mid, spread))
        moments = np.asarray((mean, second, second - mean * mean), dtype=float)  # the one rounding
        if overlaps.imag.any():  # Im w is 0 where the coefficients are real
            imag = (np.einsum("...mn,...mn->...", overlaps.imag * gram, x) / den for x in (mid, spread))
            non_real = np.maximum(*map(abs, imag)) > 1e-12 * np.maximum(1.0, abs(moments[:2]).max(axis=0))
    # count_nonzero is "any" for one pointer (numpy scalars) and a batch alike
    if np.count_nonzero(den < NORM_FLOOR):
        raise ValueError("degenerate pointer state (vanishing norm)")
    if np.count_nonzero(~np.isfinite(moments)):
        raise ValueError("pointer moments overflow a double")
    if np.count_nonzero(non_real):  # Im w's share of <x> or <x^2> above 1e-12 max(1, |<x>|, |<x^2>|)
        raise InvariantError("position moments came out non-real")
    return tuple(moments.tolist())


def gaussian_mean_x(p: GaussianPointer) -> float:
    """Exact position mean sum_ij conj(c_i) c_j G_ij (d_i + d_j) / 2, normalized."""
    return gaussian_moments(p)[0]


def gaussian_second_moment(p: GaussianPointer) -> float:
    """Exact <x^2>: sum_ij conj(c_i) c_j G_ij (sigma^2 + ((d_i + d_j) / 2)^2), normalized."""
    return gaussian_moments(p)[1]


def evaluate_gaussian(p: GaussianPointer, xs: np.ndarray) -> np.ndarray:
    """Pointwise values sum_i c_i (2 pi sigma^2)^(-1/4) exp(-(x - d_i)^2 / (4 sigma^2))."""
    xs = np.asarray(xs, dtype=float)
    amp = (2.0 * math.pi) ** -0.25 / math.sqrt(p.sigma)  # (2 pi sigma^2) ** -0.25 with no sigma^2 to underflow
    values = np.zeros(xs.shape, dtype=complex)
    for c, d in p.branches:
        values += c * amp * np.exp(-((xs - d) ** 2) / (4.0 * p.sigma * p.sigma))
    return values


def to_grid(
    p: GaussianPointer,
    xmin: float | None = None,
    xmax: float | None = None,
    n: int = GRID_POINTS_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """The pointer sampled at n uniform positions xs and renormalized: (xs, values).

    The window must cover every branch center by at least six sigma on
    each side; the default window is exactly that. ValueError on a
    non-finite or empty window, n < 2, and non-finite samples or norm.
    """
    centers = [d for _, d in p.branches]
    lo, hi, pad = min(centers), max(centers), GRID_PADDING_SIGMAS * p.sigma
    xmin, xmax = lo - pad if xmin is None else xmin, hi + pad if xmax is None else xmax
    if not (math.isfinite(xmin) and math.isfinite(xmax) and n >= 2):
        raise ValueError(f"need a finite window and at least two grid points, got [{xmin}, {xmax}] and {n}")
    if xmin > lo - pad or xmax < hi + pad:
        raise ValueError(
            f"window [{xmin}, {xmax}] too small; need to cover centers "
            f"[{lo}, {hi}] padded by {GRID_PADDING_SIGMAS} sigma"
        )
    xs = np.linspace(xmin, xmax, n)
    with np.errstate(all="ignore"):  # a non-finite sample makes the norm non-finite, caught below
        values = evaluate_gaussian(p, xs)
        norm_sq = float(np.trapezoid(np.abs(values) ** 2, xs))
    if not NORM_FLOOR <= norm_sq < math.inf:
        raise ValueError(f"cannot normalize grid samples of norm^2 {norm_sq}")
    return xs, values / math.sqrt(norm_sq)


def grid_moments(grid: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
    """Trapezoid-rule (<x>, <x^2> - <x>^2) of a normalized grid state (xs, values)."""
    xs, values = grid
    density = np.abs(values) ** 2
    norm = np.trapezoid(density, xs)
    mean = float(np.trapezoid(xs * density, xs) / norm)
    second = float(np.trapezoid(xs * xs * density, xs) / norm)
    return mean, second - mean * mean


@dataclass(frozen=True)
class QubitPointer:
    """Two-level meter state amp_g |g> + amp_e |e> of the third ion."""

    amp_g: complex
    amp_e: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp_g", complex(self.amp_g))
        object.__setattr__(self, "amp_e", complex(self.amp_e))
        norm_sq = abs(self.amp_g) ** 2 + abs(self.amp_e) ** 2
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"qubit pointer must be normalized, |amp|^2 = {norm_sq}")

    @property
    def excited_population(self) -> float:
        return abs(self.amp_e) ** 2


def qubit_rotation_matrix(theta: float) -> np.ndarray:
    """Real rotation |g> -> cos(t/2)|g> + sin(t/2)|e>, |e> -> cos(t/2)|e> - sin(t/2)|g>.

    Positive theta increases the excited population of (|g> + |e>) / sqrt(2)
    by sin(theta) / 2.
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


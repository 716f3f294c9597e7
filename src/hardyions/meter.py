"""Meters of the interferometer and the pointers they read out.

Each meter class owns its basis (dim, fiducial), its metric (row_norms_sq,
the norm of each of the nine internal outcomes), its readout (pointer) and,
for the meters a pulse couples to, that coupling (couple returns the new
amplitudes and meter). This module alone knows the Gaussian branch
representation: the Gram kernel, the one contraction that computes every
quadratic form over it (outcome tables, pointer norms, overlaps and
moments), the light-shift displacement and the readout. A GaussianPointer
is a view on a GaussianMeter and one coefficient per center, so a pointer
read out of a state shares that state's meter and its cached kernel. A
sampled position grid serves as an independent numerical oracle, and a
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
# Linux; degrades gracefully where longdouble == double) and every quadratic
# form, taken through _gram_forms, is promoted to it. This name alone sets
# that precision.
_LD = np.longdouble


def gauss_kernel(delta, sigma: float):
    """Overlap exp(-delta^2 / (8 sigma^2)) of two width-sigma Gaussians separated by delta."""
    d = np.asarray(delta, dtype=_LD)
    return np.exp(-(d * d) / (_LD(8.0) * _LD(sigma) * _LD(sigma)))


def _gram_forms(bra: np.ndarray, kernel: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """conj(bra[i]) . kernel . ket[i] for each row i, in the kernel's precision."""
    return np.einsum("im,mn,in->i", np.conj(bra), kernel, ket)


def gram_matrix(sigma: float, centers) -> np.ndarray:
    """Gram matrix G[i, j] = <phi_{d_i}|phi_{d_j}> for equal-width branches."""
    d = np.asarray(centers, dtype=float)
    return gauss_kernel(d[:, None] - d[None, :], sigma)


def cross_gram(sigma: float, centers_bra, centers_ket) -> np.ndarray:
    """Overlaps between two branch sets sharing the same width."""
    db = np.asarray(centers_bra, dtype=float)
    dk = np.asarray(centers_ket, dtype=float)
    return gauss_kernel(db[:, None] - dk[None, :], sigma)


# --- meter spaces -----------------------------------------------------------


class _EuclideanMetric:
    """Metric of an orthonormal meter basis: sums of |amplitude|^2."""

    def row_norms_sq(self, amplitudes: np.ndarray) -> np.ndarray:
        return np.einsum("im,im->i", np.conj(amplitudes), amplitudes).real


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


@dataclass(frozen=True)
class GaussianMeter:
    """Meter space spanned by width-sigma Gaussians at the listed centers."""

    sigma: float
    centers: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be a positive finite length, got {self.sigma}")
        centers = tuple(float(d) for d in self.centers)
        if not centers:
            raise ValueError("need at least one branch center")
        if not all(math.isfinite(d) for d in centers):
            raise ValueError("non-finite branch center")
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "centers", centers)

    @property
    def dim(self) -> int:
        return len(self.centers)

    def fiducial(self) -> np.ndarray:
        amps = np.zeros(self.dim, dtype=complex)
        amps[0] = 1.0
        return amps

    @cached_property
    def gram(self) -> np.ndarray:
        """The Gram kernel of the centers, built once per meter (read-only)."""
        kernel = gram_matrix(self.sigma, self.centers)
        kernel.flags.writeable = False
        return kernel

    def row_norms_sq(self, amplitudes: np.ndarray) -> np.ndarray:
        """Gram-kernel quadratic form of each internal row."""
        return _gram_forms(amplitudes, self.gram, amplitudes).real.astype(float)

    def pointer(self, row: np.ndarray, label: str) -> GaussianPointer:
        """The branches of one component as a GaussianPointer; exact-zero branches are dropped.

        With no branch dropped, the pointer is a view on this meter and shares its kernel.
        """
        branches = [(c, d) for c, d in zip(row, self.centers) if c != 0.0]
        if not branches:
            raise ValueError(f"component {label} carries no meter amplitude")
        if len(branches) == self.dim:
            return GaussianPointer._view(self, row)
        return GaussianPointer(self.sigma, branches)

    def couple(self, amplitudes: np.ndarray, target: int, shift: float):
        """Displace the branches attached to one internal row by shift; the new (amplitudes, meter).

        A finite set of branch centers is not closed under translation, so
        this coupling has no finite square matrix; it acts by moving centers.
        It is nevertheless exactly norm-preserving, because the Gram kernel
        depends only on center differences.
        """
        centers = list(self.centers)
        old_dim = len(centers)
        moves = []
        for col, amp in enumerate(amplitudes[target]):
            if amp == 0.0:
                continue
            dest = centers[col] + shift
            try:
                j = centers.index(dest)
            except ValueError:
                centers.append(dest)
                j = len(centers) - 1
            moves.append((j, amp))
        amps = np.zeros((len(amplitudes), len(centers)), dtype=complex)
        amps[:, :old_dim] = amplitudes
        amps[target, :] = 0.0
        for j, amp in moves:
            amps[target, j] += amp
        return amps, GaussianMeter(self.sigma, tuple(centers))


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
        """Rotate the meter attached to one internal row by a 2 x 2 unitary.

        Returns the new (amplitudes, meter).
        """
        amps = amplitudes.copy()
        amps[target] = rotation @ amps[target]
        return amps, self


MeterSpace = NoMeter | GaussianMeter | QubitMeter


# --- Gaussian pointer algebra -----------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class GaussianPointer:
    """Superposition sum_i c_i phi_{d_i}(x) of displaced ground-state Gaussians.

    A view on the GaussianMeter that holds sigma, the centers d_i and their
    Gram kernel, with one coefficient c_i per center (read-only).
    GaussianPointer(sigma, branches) builds the meter from (coefficient,
    center) pairs. The representation is exact: no truncation is involved
    anywhere in the algebra below.
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
    def centers(self) -> np.ndarray:
        centers = np.array(self.meter.centers)
        centers.flags.writeable = False
        return centers

    @cached_property
    def branches(self) -> tuple[tuple[complex, float], ...]:
        return tuple(zip(self.coefficients.tolist(), self.meter.centers))

    def normalized(self) -> GaussianPointer:
        norm_sq = gaussian_norm_sq(self)
        if norm_sq < NORM_FLOOR:
            raise ValueError("cannot normalize a degenerate pointer state")
        return GaussianPointer._view(self.meter, self.coefficients * (1.0 / math.sqrt(norm_sq)))

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "branches": [[c.real, c.imag, d] for c, d in self.branches],
        }


def gaussian_overlap(p: GaussianPointer, q: GaussianPointer) -> complex:
    """Inner product <p|q> = sum_ij conj(c_i) c'_j exp(-(d_i - d'_j)^2 / (8 sigma^2))."""
    if p.sigma != q.sigma:
        raise ValueError(
            f"mixed-width overlap is not supported (sigma {p.sigma} vs {q.sigma})"
        )
    kernel = cross_gram(p.sigma, p.centers, q.centers)
    return complex(_gram_forms(p.coefficients[None], kernel, q.coefficients[None])[0])


def gaussian_norm_sq(p: GaussianPointer) -> float:
    return float(p.meter.row_norms_sq(p.coefficients[None])[0])


def gaussian_moments(p: GaussianPointer) -> tuple[float, float]:
    """Exact (<x>, <x^2>) of the normalized pointer from three Gram-kernel forms; ValueError on overflow."""
    c = p.coefficients[None]
    gram = p.meter.gram
    den = complex(_gram_forms(c, gram, c)[0])
    if den.real < NORM_FLOOR:
        raise ValueError("degenerate pointer state (vanishing norm)")
    mid = (p.centers[:, None] / 2.0 + p.centers[None, :] / 2.0).astype(_LD)
    mean = complex(_gram_forms(c, gram * mid, c)[0]) / den
    second = complex(_gram_forms(c, gram * (_LD(p.sigma) * _LD(p.sigma) + mid * mid), c)[0]) / den
    if not (math.isfinite(mean.real) and math.isfinite(second.real - mean.real * mean.real)):
        raise ValueError("pointer moments overflow a double")
    scale = max(1.0, abs(mean.real), abs(second.real))
    if abs(mean.imag) > 1e-12 * scale or abs(second.imag) > 1e-12 * scale:
        raise InvariantError("position moments came out non-real")
    return mean.real, second.real


def gaussian_mean_x(p: GaussianPointer) -> float:
    """Exact position mean sum_ij conj(c_i) c_j G_ij (d_i + d_j) / 2, normalized."""
    return gaussian_moments(p)[0]


def gaussian_second_moment(p: GaussianPointer) -> float:
    """Exact <x^2>: sum_ij conj(c_i) c_j G_ij (sigma^2 + ((d_i + d_j) / 2)^2), normalized."""
    return gaussian_moments(p)[1]


@dataclass(frozen=True, eq=False)
class GridPointer:
    """Wavefunction sampled on a uniform grid; the numerical oracle for GaussianPointer."""

    xmin: float
    xmax: float
    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.xmax > self.xmin:
            raise ValueError(f"need xmax > xmin, got [{self.xmin}, {self.xmax}]")
        if self.n < 2:
            raise ValueError("need at least two grid points")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.n,):
            raise ValueError(f"expected {self.n} samples, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite grid samples")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.n)

    def norm_sq(self) -> float:
        return float(np.trapezoid(np.abs(self.values) ** 2, self.xs))

    def normalized(self) -> "GridPointer":
        norm_sq = self.norm_sq()
        if norm_sq < NORM_FLOOR:
            raise ValueError("cannot normalize a degenerate grid state")
        return GridPointer(self.xmin, self.xmax, self.n, self.values / math.sqrt(norm_sq))


def evaluate_gaussian(p: GaussianPointer, xs: np.ndarray) -> np.ndarray:
    """Pointwise values sum_i c_i (2 pi sigma^2)^(-1/4) exp(-(x - d_i)^2 / (4 sigma^2))."""
    xs = np.asarray(xs, dtype=float)
    amp = (2.0 * math.pi * p.sigma * p.sigma) ** -0.25
    values = np.zeros(xs.shape, dtype=complex)
    for c, d in p.branches:
        values += c * amp * np.exp(-((xs - d) ** 2) / (4.0 * p.sigma * p.sigma))
    return values


def to_grid(
    p: GaussianPointer,
    xmin: float | None = None,
    xmax: float | None = None,
    n: int = GRID_POINTS_DEFAULT,
) -> GridPointer:
    """Sample the pointer on a uniform grid and renormalize.

    The window must cover every branch center by at least six sigma on
    each side; the default window is exactly that.
    """
    lo = float(min(d for _, d in p.branches))
    hi = float(max(d for _, d in p.branches))
    if xmin is None:
        xmin = lo - GRID_PADDING_SIGMAS * p.sigma
    if xmax is None:
        xmax = hi + GRID_PADDING_SIGMAS * p.sigma
    if xmin > lo - GRID_PADDING_SIGMAS * p.sigma or xmax < hi + GRID_PADDING_SIGMAS * p.sigma:
        raise ValueError(
            f"window [{xmin}, {xmax}] too small; need to cover centers "
            f"[{lo}, {hi}] padded by {GRID_PADDING_SIGMAS} sigma"
        )
    xs = np.linspace(xmin, xmax, n)
    return GridPointer(xmin, xmax, n, evaluate_gaussian(p, xs)).normalized()


def grid_moments(p: GridPointer) -> tuple[float, float]:
    """Trapezoid-rule (<x>, <x^2> - <x>^2) of a normalized grid state."""
    xs = p.xs
    density = np.abs(p.values) ** 2
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


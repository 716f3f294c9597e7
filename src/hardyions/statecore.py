"""Composite Hilbert-space bookkeeping for two three-level ions plus a meter.

Basis order per ion is (g, e, f), fixed. The two-ion internal index is
ion-1 major: index = 3 * idx(ion1) + idx(ion2), so the nine internal
labels run gg, ge, gf, eg, ee, ef, fg, fe, ff. Amplitudes are stored as a
(9, M) complex array with the meter branch as the minor axis; M = 1 when
no meter is attached.

Displaced Gaussian meter branches are non-orthogonal, so norms of
gaussian-metered states run through the Gram kernel from the meter module
rather than a plain Euclidean sum. Each meter computes both the norm of a
whole state and the nine per-outcome norms of its rows, so outcome
probabilities are read off without building a projected state. Meters and
states are immutable, so each GaussianMeter builds its Gram kernel once (the
pointer moments reuse it), each state computes its norm once, and protocol
evolves the parameter-free opening pulses once per meter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import meter as meter_mod
from .errors import InvariantError, PostSelectionError
from .meter import GaussianPointer, QubitPointer

if TYPE_CHECKING:
    from .pulses import PulseOp

LEVELS = ("g", "e", "f")
N_INTERNAL = 9
BASIS_LABELS = tuple(a + b for a in LEVELS for b in LEVELS)

# |gg> is both the outcome every experiment post-selects and the internal
# state the meter couplings are conditioned on.
GG_INDEX = BASIS_LABELS.index("gg")

NORM_TOL = 1e-12
POSTSELECTION_FLOOR = 1e-15


# --- meter spaces -----------------------------------------------------------
#
# Each meter class owns its basis (dim, fiducial), its metric (norm_sq of a
# whole state, row_norms_sq of the nine internal outcomes), its readout
# (pointer) and, for the meters a pulse couples to, that coupling.


class _EuclideanMetric:
    """Metric of an orthonormal meter basis: sums of |amplitude|^2."""

    def norm_sq(self, amplitudes: np.ndarray) -> float:
        return float(np.vdot(amplitudes, amplitudes).real)

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
        kernel = meter_mod.gram_matrix(self.sigma, self.centers)
        kernel.flags.writeable = False
        return kernel

    def norm_sq(self, amplitudes: np.ndarray) -> float:
        """Gram-kernel quadratic form of the whole state."""
        return float(np.einsum("im,mn,in->", np.conj(amplitudes), self.gram, amplitudes).real)

    def row_norms_sq(self, amplitudes: np.ndarray) -> np.ndarray:
        """Gram-kernel quadratic form of each internal row."""
        forms = np.einsum("im,mn,in->i", np.conj(amplitudes), self.gram, amplitudes)
        return forms.real.astype(float)

    def pointer(self, row: np.ndarray, label: str) -> GaussianPointer:
        """The branches of one component as a GaussianPointer; exact-zero branches are dropped."""
        branches = tuple((complex(c), d) for c, d in zip(row, self.centers) if c != 0.0)
        if not branches:
            raise ValueError(f"component {label} carries no meter amplitude")
        return GaussianPointer(self.sigma, branches)

    def couple(self, amplitudes: np.ndarray, target: int, shift: float) -> "SystemState":
        """Displace the branches attached to one internal state by shift.

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
        amps = np.zeros((N_INTERNAL, len(centers)), dtype=complex)
        amps[:, :old_dim] = amplitudes
        amps[target, :] = 0.0
        for j, amp in moves:
            amps[target, j] += amp
        return SystemState(amps, GaussianMeter(self.sigma, tuple(centers)))


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

    def couple(self, amplitudes: np.ndarray, target: int, rotation: np.ndarray) -> "SystemState":
        """Apply a 2 x 2 meter unitary to the meter attached to one internal state."""
        amps = amplitudes.copy()
        amps[target] = rotation @ amps[target]
        return SystemState(amps, self)


MeterSpace = NoMeter | GaussianMeter | QubitMeter


# --- system states ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SystemState:
    """Immutable amplitude vector over internal basis x meter branches."""

    amplitudes: np.ndarray
    meter: MeterSpace = field(default_factory=NoMeter)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex, order="C")  # always a private copy
        expected = (N_INTERNAL, self.meter.dim)
        if amps.shape != expected:
            raise ValueError(f"expected amplitudes of shape {expected}, got {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("non-finite amplitudes")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_sq(self) -> float:
        """Squared norm in the meter's metric, computed on first use and kept with the state."""
        if "_norm_sq" not in self.__dict__:
            self.__dict__["_norm_sq"] = self.meter.norm_sq(self.amplitudes)
        return self.__dict__["_norm_sq"]

    @property
    def norm(self) -> float:
        return math.sqrt(max(self.norm_sq, 0.0))

    def normalized(self) -> "SystemState":
        norm = self.norm
        if norm * norm < POSTSELECTION_FLOOR:
            raise ValueError("cannot normalize a state with vanishing norm")
        return SystemState(self.amplitudes / norm, self.meter)


def init_ground(meter: MeterSpace | None = None) -> SystemState:
    """Both ions in |g>, the meter (if any) in its fiducial state."""
    if meter is None:
        meter = NoMeter()
    amps = np.zeros((N_INTERNAL, meter.dim), dtype=complex)
    amps[GG_INDEX] = meter.fiducial()
    return SystemState(amps, meter)


def apply_unitary(state: SystemState, op: "PulseOp") -> SystemState:
    """Apply a pulse, checking that the norm is preserved to 1e-12."""
    out = op.apply(state)
    drift = abs(out.norm - state.norm)
    if drift > NORM_TOL * max(1.0, state.norm):
        raise InvariantError(f"{op.label} changed the norm by {drift:.3e}")
    return out


def project_internal(state: SystemState, target: str) -> tuple[float, SystemState]:
    """Project onto one internal basis state, named by its label ('gg' ... 'ff').

    Returns the outcome probability (meter metric included) and the
    renormalized conditional state. Raises PostSelectionError when the
    probability is below 1e-15.
    """
    idx = BASIS_LABELS.index(target)
    probability = internal_probabilities(state)[target]
    if probability < POSTSELECTION_FLOOR:
        raise PostSelectionError(f"post-selection impossible: P({target}) = {probability:.3e}")
    amps = np.zeros_like(state.amplitudes)
    amps[idx] = state.amplitudes[idx] / math.sqrt(probability)
    return probability, SystemState(amps, state.meter)


def internal_probabilities(state: SystemState) -> dict[str, float]:
    """Probability of each of the nine internal detection outcomes."""
    rows = state.meter.row_norms_sq(state.amplitudes).tolist()
    return {label: max(p, 0.0) for label, p in zip(BASIS_LABELS, rows)}


def pointer_component(state: SystemState, target: str):
    """The meter state attached to one internal component, named by its label.

    The meter reads it out: a GaussianPointer (exact-zero branches dropped)
    or a QubitPointer.
    """
    row = state.amplitudes[BASIS_LABELS.index(target)]
    return state.meter.pointer(row, target)


def state_to_json_dict(state: SystemState) -> dict:
    """Amplitude dump {label: [re, im]}, branch index suffixed as '#k' when M > 1."""
    many = state.meter.dim > 1
    out = {}
    for idx, label in enumerate(BASIS_LABELS):
        for k in range(state.meter.dim):
            key = f"{label}#{k}" if many else label
            amp = state.amplitudes[idx, k]
            out[key] = [float(amp.real), float(amp.imag)]
    return out

"""Composite Hilbert-space bookkeeping for two three-level ions plus a meter.

Basis order per ion is (g, e, f), fixed. The two-ion internal index is
ion-1 major: index = 3 * idx(ion1) + idx(ion2), so the nine internal
labels run gg, ge, gf, eg, ee, ef, fg, fe, ff. Amplitudes are stored as a
(9, M) complex array with the meter branch as the minor axis; M = 1 when
no meter is attached.

Displaced Gaussian meter branches are non-orthogonal, so norms and
overlaps of gaussian-metered states run through the Gram kernel from the
meter module rather than a plain Euclidean sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import meter as meter_mod
from .errors import InvariantError, PostSelectionError
from .meter import GaussianPointer, GridPointer, QubitPointer

if TYPE_CHECKING:
    from .pulses import PulseOp

LEVELS = ("g", "e", "f")
LEVEL_INDEX = {level: i for i, level in enumerate(LEVELS)}
N_INTERNAL = 9
BASIS_LABELS = tuple(a + b for a in LEVELS for b in LEVELS)

NORM_TOL = 1e-12
POSTSELECTION_FLOOR = 1e-15


@dataclass(frozen=True)
class IonBasisIndex:
    """Internal product basis state, e.g. IonBasisIndex('g', 'e') for |ge>."""

    ion1: str
    ion2: str

    def __post_init__(self) -> None:
        for ion in (self.ion1, self.ion2):
            if ion not in LEVELS:
                raise ValueError(f"unknown level {ion!r}, expected one of {LEVELS}")

    def to_int(self) -> int:
        return 3 * LEVEL_INDEX[self.ion1] + LEVEL_INDEX[self.ion2]

    @classmethod
    def from_int(cls, index: int) -> "IonBasisIndex":
        if not 0 <= index < N_INTERNAL:
            raise ValueError(f"internal index {index} out of range 0..8")
        return cls(LEVELS[index // 3], LEVELS[index % 3])

    @classmethod
    def from_label(cls, label: str) -> "IonBasisIndex":
        if len(label) != 2:
            raise ValueError(f"expected a two-letter label like 'gg', got {label!r}")
        return cls(label[0], label[1])

    @property
    def label(self) -> str:
        return self.ion1 + self.ion2


def internal_index(target) -> int:
    """Coerce an IonBasisIndex, label string, or integer to the 0..8 index."""
    if isinstance(target, IonBasisIndex):
        return target.to_int()
    if isinstance(target, str):
        return IonBasisIndex.from_label(target).to_int()
    return IonBasisIndex.from_int(int(target)).to_int()


# --- meter spaces -----------------------------------------------------------


@dataclass(frozen=True)
class NoMeter:
    """Placeholder meter for purely internal dynamics (M = 1)."""

    kind: str = field(default="none", init=False)

    @property
    def dim(self) -> int:
        return 1

    def fiducial(self) -> np.ndarray:
        return np.ones(1, dtype=complex)

    def overlap(self, bra: np.ndarray, ket: np.ndarray) -> complex:
        return complex(np.vdot(bra, ket))


@dataclass(frozen=True)
class GaussianMeter:
    """Meter space spanned by width-sigma Gaussians at the listed centers."""

    sigma: float
    centers: tuple[float, ...] = (0.0,)
    kind: str = field(default="gaussian", init=False)

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be a positive finite length, got {self.sigma}")
        centers = tuple(float(d) for d in self.centers)
        if not centers:
            raise ValueError("need at least one branch center")
        if not all(math.isfinite(d) for d in centers):
            raise ValueError("non-finite branch center")
        object.__setattr__(self, "centers", centers)

    @property
    def dim(self) -> int:
        return len(self.centers)

    def fiducial(self) -> np.ndarray:
        amps = np.zeros(self.dim, dtype=complex)
        amps[0] = 1.0
        return amps

    def overlap(self, bra: np.ndarray, ket: np.ndarray) -> complex:
        gram = meter_mod.gram_matrix(self.sigma, self.centers)
        return complex(np.einsum("im,mn,in->", np.conj(bra), gram, ket))


@dataclass(frozen=True)
class GridMeter:
    """Meter space sampled on a uniform position grid (trapezoid metric)."""

    sigma: float
    xmin: float
    xmax: float
    n: int

    kind: str = field(default="grid", init=False)

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be a positive finite length, got {self.sigma}")
        if not self.xmax > self.xmin:
            raise ValueError(f"need xmax > xmin, got [{self.xmin}, {self.xmax}]")
        if self.n < 2:
            raise ValueError("need at least two grid points")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.n)

    @property
    def weights(self) -> np.ndarray:
        dx = (self.xmax - self.xmin) / (self.n - 1)
        w = np.full(self.n, dx)
        w[0] = w[-1] = dx / 2.0
        return w

    def fiducial(self) -> np.ndarray:
        ground = GaussianPointer(self.sigma, ((1.0, 0.0),))
        values = meter_mod.evaluate_gaussian(ground, self.xs)
        norm_sq = float(np.sum(self.weights * np.abs(values) ** 2))
        return values / math.sqrt(norm_sq)

    def overlap(self, bra: np.ndarray, ket: np.ndarray) -> complex:
        return complex(np.einsum("im,m,im->", np.conj(bra), self.weights, ket))


@dataclass(frozen=True)
class QubitMeter:
    """Third-ion meter with internal states (g, e); fiducial (|g> + |e>) / sqrt(2)."""

    kind: str = field(default="qubit", init=False)

    @property
    def dim(self) -> int:
        return 2

    def fiducial(self) -> np.ndarray:
        r = 1.0 / math.sqrt(2.0)
        return np.array([r, r], dtype=complex)

    def overlap(self, bra: np.ndarray, ket: np.ndarray) -> complex:
        return complex(np.vdot(bra, ket))


MeterSpace = NoMeter | GaussianMeter | GridMeter | QubitMeter


# --- system states ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SystemState:
    """Immutable amplitude vector over internal basis x meter branches."""

    amplitudes: np.ndarray
    meter: MeterSpace = field(default_factory=NoMeter)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        expected = (N_INTERNAL, self.meter.dim)
        if amps.shape != expected:
            raise ValueError(f"expected amplitudes of shape {expected}, got {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitudes")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_sq(self) -> float:
        return self.meter.overlap(self.amplitudes, self.amplitudes).real

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
    amps[0] = meter.fiducial()
    return SystemState(amps, meter)


def apply_unitary(state: SystemState, op: "PulseOp") -> SystemState:
    """Apply a pulse, checking that the norm is preserved to 1e-12."""
    out = op.apply(state)
    if not np.all(np.isfinite(out.amplitudes)):
        raise InvariantError(f"{op.label} produced non-finite amplitudes")
    drift = abs(out.norm - state.norm)
    if drift > NORM_TOL * max(1.0, state.norm):
        raise InvariantError(f"{op.label} changed the norm by {drift:.3e}")
    return out


def project_internal(state: SystemState, target) -> tuple[float, SystemState]:
    """Project onto one internal basis state.

    Returns the outcome probability (meter metric included) and the
    renormalized conditional state. Raises PostSelectionError when the
    probability is below 1e-15.
    """
    idx = internal_index(target)
    amps = np.zeros_like(state.amplitudes)
    amps[idx] = state.amplitudes[idx]
    projected = SystemState(amps, state.meter)
    probability = max(projected.norm_sq, 0.0)
    if probability < POSTSELECTION_FLOOR:
        raise PostSelectionError(
            f"post-selection impossible: P({BASIS_LABELS[idx]}) = {probability:.3e}"
        )
    return probability, projected.normalized()


def internal_probabilities(state: SystemState) -> dict[str, float]:
    """Probability of each of the nine internal detection outcomes."""
    table = {}
    for idx, label in enumerate(BASIS_LABELS):
        amps = np.zeros_like(state.amplitudes)
        amps[idx] = state.amplitudes[idx]
        table[label] = max(SystemState(amps, state.meter).norm_sq, 0.0)
    return table


def state_overlap(bra: SystemState, ket: SystemState) -> complex:
    """Inner product <bra|ket>; gaussian meters may differ in their center lists."""
    if bra.meter.kind != ket.meter.kind:
        raise ValueError(f"meter kinds differ: {bra.meter.kind} vs {ket.meter.kind}")
    if bra.meter.kind == "gaussian":
        if bra.meter.sigma != ket.meter.sigma:
            raise ValueError("gaussian meters must share sigma")
        kernel = meter_mod.cross_gram(bra.meter.sigma, bra.meter.centers, ket.meter.centers)
        return complex(np.einsum("im,mn,in->", np.conj(bra.amplitudes), kernel, ket.amplitudes))
    if bra.meter != ket.meter:
        raise ValueError("states live on different meter spaces")
    return bra.meter.overlap(bra.amplitudes, ket.amplitudes)


def pointer_component(state: SystemState, target):
    """The meter state attached to one internal component.

    Returns a GaussianPointer, GridPointer, or QubitPointer according to
    the meter kind; exact-zero gaussian branches are dropped.
    """
    idx = internal_index(target)
    row = state.amplitudes[idx]
    m = state.meter
    if m.kind == "gaussian":
        branches = tuple(
            (complex(c), d) for c, d in zip(row, m.centers) if c != 0.0
        )
        if not branches:
            raise ValueError(f"component {BASIS_LABELS[idx]} carries no meter amplitude")
        return GaussianPointer(m.sigma, branches)
    if m.kind == "qubit":
        return QubitPointer(row[0], row[1])
    if m.kind == "grid":
        return GridPointer(m.xmin, m.xmax, m.n, row)
    raise ValueError("state has no meter attached")


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

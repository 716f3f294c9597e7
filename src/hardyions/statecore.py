"""Composite Hilbert-space bookkeeping for two three-level ions plus a meter.

Basis order per ion is (g, e, f), fixed. The two-ion internal index is
ion-1 major: index = 3 * idx(ion1) + idx(ion2), so the nine internal
labels run gg, ge, gf, eg, ee, ef, fg, fe, ff. Amplitudes are stored as a
(9, M) complex array with the meter branch as the minor axis; M = 1 when
no meter is attached.

The meter classes (NoMeter, GaussianMeter, QubitMeter) live in the meter
module and are re-exported here. A state asks its meter for one metric,
the nine per-outcome row norms: outcome probabilities are read off them
without building a projected state, and the whole state's norm_sq is their
sum. A Gaussian meter's Gram kernel never appears in this module. States are
immutable, so each computes its norm once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvariantError, PostSelectionError
from .meter import NORM_FLOOR, GaussianMeter, MeterSpace, NoMeter, QubitMeter  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    from .pulses import PulseOp

LEVELS = ("g", "e", "f")
N_INTERNAL = 9
BASIS_LABELS = tuple(a + b for a in LEVELS for b in LEVELS)

# |gg> is both the outcome every experiment post-selects and the internal
# state the meter couplings are conditioned on.
GG_INDEX = BASIS_LABELS.index("gg")

NORM_TOL = 1e-12


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
        """Sum of the meter's row norms, computed on first use and kept with the state."""
        if "_norm_sq" not in self.__dict__:
            self.__dict__["_norm_sq"] = sum(self.meter.row_norms_sq(self.amplitudes).tolist())
        return self.__dict__["_norm_sq"]

    @property
    def norm(self) -> float:
        return math.sqrt(max(self.norm_sq, 0.0))

    def normalized(self) -> "SystemState":
        norm = self.norm
        if norm * norm < NORM_FLOOR:
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
    probability is below NORM_FLOOR.
    """
    idx = BASIS_LABELS.index(target)
    probability = internal_probabilities(state)[target]
    if probability < NORM_FLOOR:
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

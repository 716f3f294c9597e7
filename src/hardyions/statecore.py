"""Composite Hilbert-space bookkeeping for two three-level ions plus a meter.

Basis order per ion is (g, e, f), fixed. The two-ion internal index is
ion-1 major: index = 3 * idx(ion1) + idx(ion2), so the nine internal
labels run gg, ge, gf, eg, ee, ef, fg, fe, ff. Amplitudes are stored as a
(9, M) complex array with the meter branch as the minor axis; M = 1 when
no meter is attached. A leading batch axis, (B, 9, M), holds the groups of
a projection (project_rows) or a batched Gaussian meter's center sets, which
may also share the amplitudes; the engine functions here broadcast over it,
and a state without one runs the same lines.

The meter classes (NoMeter, GaussianMeter, QubitMeter) live in the meter
module and are re-exported here. A meter measures amplitudes: the norm
(the pulses' norm check; a state keeps only its norm, which the next pulse
reads again), one outcome's row alone (post-selection, which returns that
row renormalized) and the nine rows (the outcome table). A Gaussian meter's
Gram kernel never appears here.
"""

from __future__ import annotations

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
        if amps.shape[-2:] != expected or amps.ndim > 3:
            raise ValueError(f"expected amplitudes of shape {expected}, or a batch of them, got {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("non-finite amplitudes")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def row_norms(self) -> np.ndarray:
        """The meter's norm of each internal row, shape (..., 9)."""
        return self.meter.row_norms_sq(self.amplitudes)

    @property
    def norm_sq(self):
        """The meter's norm of the state: a float, or an array over a batch."""
        return self.meter.norm_sq(self.amplitudes)

    @property
    def norm(self):
        if "_norm" not in self.__dict__:  # kept: the next pulse's check reads it again as its input's norm
            self.__dict__["_norm"] = np.sqrt(self.norm_sq)
        return self.__dict__["_norm"]

    def normalized(self) -> "SystemState":
        norm = np.asarray(self.norm)[..., None, None]
        if (norm * norm < NORM_FLOOR).any():
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
    """Apply a pulse, checking that the norm (of every element of a batch) is preserved to 1e-12."""
    out = op.apply(state)
    before = state.norm
    drift = abs(out.norm - before)
    if np.count_nonzero((drift > NORM_TOL) & (drift > NORM_TOL * before)):  # drift > NORM_TOL * max(1, before)
        worst = np.argmax(drift / np.maximum(before, 1.0))
        at = f" in batch element {worst}" if np.ndim(drift) else ""
        raise InvariantError(f"{op.label} changed the norm by {np.ravel(drift)[worst]:.3e}{at}")
    return out


def project_internal(state: SystemState, target: str):
    """Project onto one internal basis state, named by its label ('gg' ... 'ff').

    Returns the outcome probability (meter metric included; a list over a batch) and that
    outcome's row of meter amplitudes, renormalized: shape (..., M), the one row the
    conditional state holds. PostSelectionError when the probability is below NORM_FLOOR.
    """
    row = state.amplitudes[..., BASIS_LABELS.index(target), :]
    probability = state.meter.row_norms_sq(row[..., None, :])[..., 0]  # that row alone
    if np.count_nonzero(probability < NORM_FLOOR):
        raise PostSelectionError(f"post-selection impossible: P({target}) = {np.min(probability):.3e}")
    return probability.tolist(), row / np.sqrt(probability)[..., None]


def project_rows(state: SystemState, groups) -> SystemState:
    """Project an unbatched state onto G groups of rows: (G, 9, M), not renormalized, rows copied into zeros."""
    amps = np.zeros((len(groups), *state.amplitudes.shape), dtype=complex)
    for k, rows in enumerate(groups):  # rows: an internal index or a list of them
        amps[k, rows] = state.amplitudes[rows]
    return SystemState(amps, state.meter)


def internal_probabilities(state: SystemState) -> dict[str, float]:
    """Probability of each of the nine internal detection outcomes (lists over a batch)."""
    return dict(zip(BASIS_LABELS, state.row_norms.T.tolist()))


def pointer_component(state: SystemState, target: str):
    """The meter's readout of the component of one internal label ('gg' ... 'ff').

    A GaussianPointer is a view on the state's meter; a QubitPointer holds the two amplitudes.
    """
    row = state.amplitudes[..., BASIS_LABELS.index(target), :]
    return state.meter.pointer(row, target)


def state_to_json_dict(state: SystemState) -> dict:
    """Amplitude dump {label: [re, im]}, branch index suffixed as '#k' when M > 1."""
    if state.amplitudes.ndim == 3:
        raise ValueError(f"an amplitude dump holds one state, got a batch of {len(state.amplitudes)}")
    many = state.meter.dim > 1
    out = {}
    for idx, label in enumerate(BASIS_LABELS):
        for k in range(state.meter.dim):
            key = f"{label}#{k}" if many else label
            amp = state.amplitudes[idx, k]
            out[key] = [float(amp.real), float(amp.imag)]
    return out

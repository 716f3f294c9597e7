"""Constructors for the laser pulses of the interferometer protocol.

Every constructor returns a PulseOp acting on the composite internal x
meter space. Internal pulses are plain 9 x 9 unitaries (identity on the
meter); a coupling pulse acts on the meter attached to |gg> and is carried
out by the meter class: the light shift is an exact displacement of the
Gaussian meter branches, and the partial C2-NOT rotates a qubit meter. A
strong projective measurement is an instrument (probabilities plus
collapsed states), not a PulseOp, and is therefore exempt from the
unitarity check by type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .meter import NORM_FLOOR, GaussianMeter, QubitMeter, qubit_rotation_matrix
from .statecore import BASIS_LABELS, GG_INDEX, N_INTERNAL, SystemState

UNITARITY_TOL = 1e-12

_EE = BASIS_LABELS.index("ee")
_FF = BASIS_LABELS.index("ff")


def _unitarity_defect(matrix: np.ndarray) -> float:
    dim = matrix.shape[0]
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim))))


@dataclass(frozen=True, eq=False)
class InternalPulseOp:
    """A unitary on the internal space, identity on the meter."""

    label: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.shape != (N_INTERNAL, N_INTERNAL):
            raise ValueError(f"expected a 9x9 matrix, got {matrix.shape}")
        defect = _unitarity_defect(matrix)
        if defect > UNITARITY_TOL:
            raise InvariantError(f"{self.label} is not unitary (defect {defect:.3e})")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def apply(self, state: SystemState) -> SystemState:
        return SystemState(self.matrix @ state.amplitudes, state.meter)

    def unitarity_defect(self) -> float:
        return _unitarity_defect(self.matrix)


@dataclass(frozen=True, eq=False)
class CouplingPulseOp:
    """A meter operation on the branches attached to |gg>, identity elsewhere.

    The meter class carries out the action (GaussianMeter.couple or
    QubitMeter.couple). defect is the unitarity defect of that action,
    checked once, when the pulse is built.
    """

    label: str
    meter_type: type
    action: np.ndarray | float  # a rotation, or a displacement (one per center set of a batch)
    defect: float

    def __post_init__(self) -> None:
        if self.defect > UNITARITY_TOL:
            raise InvariantError(
                f"{self.label} meter block is not unitary (defect {self.defect:.3e})"
            )

    def apply(self, state: SystemState) -> SystemState:
        if type(state.meter) is not self.meter_type:
            raise ValueError(
                f"{self.label} requires a {self.meter_type.__name__}, "
                f"got {type(state.meter).__name__}"
            )
        return SystemState(*state.meter.couple(state.amplitudes, GG_INDEX, self.action))

    def unitarity_defect(self) -> float:
        return self.defect


PulseOp = InternalPulseOp | CouplingPulseOp


def beamsplitter(ion: int) -> InternalPulseOp:
    """Resonant g-e pulse on one ion: |g> -> (|g>+|e>)/sqrt2, |e> -> (|e>-|g>)/sqrt2.

    |f> is untouched. The same convention serves as first and second
    beamsplitter of the interferometer.
    """
    if ion not in (1, 2):
        raise ValueError(f"ion must be 1 or 2, got {ion}")
    r = 1.0 / math.sqrt(2.0)
    mix = np.array([[r, -r, 0.0], [r, r, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    eye = np.eye(3, dtype=complex)
    matrix = np.kron(mix, eye) if ion == 1 else np.kron(eye, mix)
    return InternalPulseOp(f"beamsplitter(ion={ion})", matrix)


def annihilation_pulse() -> InternalPulseOp:
    """Two-photon pulse emptying |ee>: |ee> -> |ff>, |ff> -> -|ee>, rest untouched.

    The action on |ff> is a unitary completion; no |ff> population exists
    when the pulse fires in the protocol.
    """
    matrix = np.eye(N_INTERNAL, dtype=complex)
    matrix[_EE, _EE] = 0.0
    matrix[_FF, _FF] = 0.0
    matrix[_FF, _EE] = 1.0
    matrix[_EE, _FF] = -1.0
    return InternalPulseOp("annihilation_pulse", matrix)


def light_shift_meter(a) -> CouplingPulseOp:
    """Conditional light shift: displace the |gg> meter branches by -a.

    The adiabatic turn-on and wavepacket rescaling of the physical pulse
    are compressed into the single displacement parameter a. An array of
    a displaces each center set of a batch by its own amount.
    """
    a = np.asarray(a, dtype=float)
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise ValueError(f"displacement must be finite, got {a.tolist()}")
    # exact by construction: every pairwise center difference is conserved
    return CouplingPulseOp(f"light_shift(a={a.tolist()})", GaussianMeter, -a, 0.0)


def partial_ccnot(theta: float) -> CouplingPulseOp:
    """Rotate the qubit meter by theta when both system ions are in |g>.

    theta = pi would be the full doubly-controlled NOT; small theta makes
    the measurement weak.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    rotation = qubit_rotation_matrix(theta)
    rotation.flags.writeable = False
    return CouplingPulseOp(
        f"partial_ccnot(theta={theta})", QubitMeter, rotation, _unitarity_defect(rotation)
    )


@dataclass(frozen=True)
class MeasurementOutcome:
    label: str
    probability: float
    state: SystemState | None


class MeasurementInstrument:
    """Projective measurement onto groups of internal basis states.

    groups is a list of (label, [internal labels]) pairs; every one of the
    nine internal labels must fall in exactly one group.
    """

    def __init__(self, groups: list[tuple[str, list[str]]]):
        groups = [(label, list(group)) for label, group in groups]
        if sorted(i for _, group in groups for i in group) != sorted(BASIS_LABELS):
            raise ValueError("projector set does not sum to the identity")
        self.groups = [(label, [BASIS_LABELS.index(i) for i in group]) for label, group in groups]

    def measure(self, state: SystemState) -> list[MeasurementOutcome]:
        """Outcome probabilities and collapsed states for every group."""
        row_norms = state.row_norms
        outcomes = []
        for label, rows in self.groups:
            amps = np.zeros_like(state.amplitudes)
            amps[rows] = state.amplitudes[rows]
            probability = float(row_norms[rows].sum())  # row norms are never negative
            collapsed = None if probability < NORM_FLOOR else SystemState(amps / math.sqrt(probability), state.meter)
            outcomes.append(MeasurementOutcome(label, probability, collapsed))
        return outcomes


def strong_measurement(groups=None) -> MeasurementInstrument:
    """Projective instrument over (label, [internal labels]) groups; default |gg> versus the rest."""
    if groups is None:
        groups = [("gg", ["gg"]), ("rest", [label for label in BASIS_LABELS if label != "gg"])]
    return MeasurementInstrument(groups)

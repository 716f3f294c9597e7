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
from .meter import qubit_rotation_matrix
from .statecore import (
    BASIS_LABELS,
    GG_INDEX,
    GaussianMeter,
    N_INTERNAL,
    QubitMeter,
    SystemState,
)

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
    action: np.ndarray | float
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
        return state.meter.couple(state.amplitudes, GG_INDEX, self.action)

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


def light_shift_meter(a: float) -> CouplingPulseOp:
    """Conditional light shift: displace the |gg> meter branches by -a.

    The adiabatic turn-on and wavepacket rescaling of the physical pulse
    are compressed into the single displacement parameter a.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"displacement must be finite, got {a}")
    # exact by construction: every pairwise center difference is conserved
    return CouplingPulseOp(f"light_shift(a={a})", GaussianMeter, -a, 0.0)


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


def projector_onto(labels) -> np.ndarray:
    """Diagonal projector onto a set of internal basis labels."""
    if isinstance(labels, str):
        labels = [labels]
    matrix = np.zeros((N_INTERNAL, N_INTERNAL), dtype=complex)
    for label in labels:
        idx = BASIS_LABELS.index(label)
        matrix[idx, idx] = 1.0
    return matrix


@dataclass(frozen=True)
class MeasurementOutcome:
    label: str
    probability: float
    state: SystemState | None


class MeasurementInstrument:
    """Projective measurement over a complete orthogonal internal projector set."""

    def __init__(self, projectors: list[tuple[str, np.ndarray]]):
        checked = []
        total = np.zeros((N_INTERNAL, N_INTERNAL), dtype=complex)
        for label, matrix in projectors:
            matrix = np.asarray(matrix, dtype=complex)
            if matrix.shape != (N_INTERNAL, N_INTERNAL):
                raise ValueError(f"projector {label} must be 9x9, got {matrix.shape}")
            if np.max(np.abs(matrix - matrix.conj().T)) > UNITARITY_TOL:
                raise ValueError(f"projector {label} is not hermitian")
            if np.max(np.abs(matrix @ matrix - matrix)) > UNITARITY_TOL:
                raise ValueError(f"projector {label} is not idempotent")
            total += matrix
            checked.append((label, matrix))
        if np.max(np.abs(total - np.eye(N_INTERNAL))) > UNITARITY_TOL:
            raise ValueError("projector set does not sum to the identity")
        for i, (label_i, p_i) in enumerate(checked):
            for label_j, p_j in checked[i + 1 :]:
                if np.max(np.abs(p_i @ p_j)) > UNITARITY_TOL:
                    raise ValueError(f"projectors {label_i} and {label_j} are not orthogonal")
        self.projectors = checked

    def measure(self, state: SystemState) -> list[MeasurementOutcome]:
        """Outcome probabilities and collapsed states for every projector."""
        outcomes = []
        for label, matrix in self.projectors:
            amps = matrix @ state.amplitudes
            branch = SystemState(amps, state.meter)
            probability = max(branch.norm_sq, 0.0)
            collapsed = branch.normalized() if probability > 1e-15 else None
            outcomes.append(MeasurementOutcome(label, probability, collapsed))
        return outcomes


def strong_measurement(projectors=None) -> MeasurementInstrument:
    """Projective instrument; default distinguishes |gg> from everything else.

    projectors may be given as (label, 9x9 matrix) or (label, iterable of
    internal labels) pairs.
    """
    if projectors is None:
        gg = projector_onto("gg")
        projectors = [("gg", gg), ("rest", np.eye(N_INTERNAL, dtype=complex) - gg)]
    normalized = []
    for label, proj in projectors:
        if not isinstance(proj, np.ndarray):
            proj = projector_onto(proj)
        normalized.append((label, proj))
    return MeasurementInstrument(normalized)

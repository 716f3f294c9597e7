"""Constructors for the laser pulses of the interferometer protocol.

Every constructor returns a PulseOp acting on the composite internal x
meter space. Internal pulses are plain 9 x 9 unitaries (identity on the
meter); the light shift is an exact displacement of the Gaussian meter
branches attached to |gg>, and the partial C2-NOT rotates a qubit meter
conditioned on |gg>. A strong projective measurement is an instrument
(probabilities plus collapsed states), not a PulseOp, and is therefore
exempt from the unitarity check by type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .meter import qubit_rotation_matrix
from .statecore import (
    BASIS_LABELS,
    GaussianMeter,
    N_INTERNAL,
    SystemState,
    internal_index,
)

UNITARITY_TOL = 1e-12

_GG = 0
_EE = internal_index("ee")
_FF = internal_index("ff")


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

    def composite_matrix(self, meter_dim: int = 1) -> np.ndarray:
        return np.kron(self.matrix, np.eye(meter_dim, dtype=complex))

    def unitarity_defect(self) -> float:
        return _unitarity_defect(self.matrix)


@dataclass(frozen=True, eq=False)
class MeterConditionalPulseOp:
    """A meter unitary applied when the internal state is the given target."""

    label: str
    target: int
    meter_matrix: np.ndarray
    meter_kind: str = "qubit"

    def __post_init__(self) -> None:
        matrix = np.asarray(self.meter_matrix, dtype=complex)
        defect = _unitarity_defect(matrix)
        if defect > UNITARITY_TOL:
            raise InvariantError(f"{self.label} meter block is not unitary (defect {defect:.3e})")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "meter_matrix", matrix)

    def apply(self, state: SystemState) -> SystemState:
        if state.meter.kind != self.meter_kind:
            raise ValueError(
                f"{self.label} requires a {self.meter_kind} meter, got {state.meter.kind}"
            )
        amps = state.amplitudes.copy()
        amps[self.target] = self.meter_matrix @ amps[self.target]
        return SystemState(amps, state.meter)

    def composite_matrix(self) -> np.ndarray:
        meter_dim = self.meter_matrix.shape[0]
        blocks = [np.eye(meter_dim, dtype=complex)] * N_INTERNAL
        blocks[self.target] = self.meter_matrix
        full = np.zeros((N_INTERNAL * meter_dim,) * 2, dtype=complex)
        for i, block in enumerate(blocks):
            full[i * meter_dim : (i + 1) * meter_dim, i * meter_dim : (i + 1) * meter_dim] = block
        return full

    def unitarity_defect(self) -> float:
        return _unitarity_defect(self.composite_matrix())


@dataclass(frozen=True, eq=False)
class MeterDisplacementPulseOp:
    """Exact displacement of the Gaussian branches attached to one internal state.

    A finite set of branch centers is not closed under translation, so
    this operator has no finite square matrix; it acts by moving centers.
    It is nevertheless exactly norm-preserving, because the Gram kernel
    depends only on center differences.
    """

    label: str
    target: int
    displacement: float

    def apply(self, state: SystemState) -> SystemState:
        if state.meter.kind != "gaussian":
            raise ValueError(f"{self.label} requires a gaussian meter, got {state.meter.kind}")
        centers = list(state.meter.centers)
        old_dim = len(centers)
        row = state.amplitudes[self.target]
        moves = []
        for col, amp in enumerate(row):
            if amp == 0.0:
                continue
            dest = centers[col] + self.displacement
            try:
                j = centers.index(dest)
            except ValueError:
                centers.append(dest)
                j = len(centers) - 1
            moves.append((col, j, amp))
        amps = np.zeros((N_INTERNAL, len(centers)), dtype=complex)
        amps[:, :old_dim] = state.amplitudes
        amps[self.target, :] = 0.0
        for _, j, amp in moves:
            amps[self.target, j] += amp
        return SystemState(amps, GaussianMeter(state.meter.sigma, tuple(centers)))

    def unitarity_defect(self) -> float:
        # exact by construction: every pairwise center difference is conserved
        return 0.0


PulseOp = InternalPulseOp | MeterConditionalPulseOp | MeterDisplacementPulseOp


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


def light_shift_meter(a: float) -> MeterDisplacementPulseOp:
    """Conditional light shift: displace the |gg> meter branches by -a.

    The adiabatic turn-on and wavepacket rescaling of the physical pulse
    are compressed into the single displacement parameter a.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"displacement must be finite, got {a}")
    return MeterDisplacementPulseOp(f"light_shift(a={a})", _GG, -a)


def partial_ccnot(theta: float) -> MeterConditionalPulseOp:
    """Rotate the qubit meter by theta when both system ions are in |g>.

    theta = pi would be the full doubly-controlled NOT; small theta makes
    the measurement weak.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    return MeterConditionalPulseOp(
        f"partial_ccnot(theta={theta})", _GG, qubit_rotation_matrix(theta)
    )


def projector_onto(labels) -> np.ndarray:
    """Diagonal projector onto a set of internal basis labels."""
    if isinstance(labels, str):
        labels = [labels]
    matrix = np.zeros((N_INTERNAL, N_INTERNAL), dtype=complex)
    for label in labels:
        idx = internal_index(label)
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


_PULSE_REGISTRY = {
    "beamsplitter": beamsplitter,
    "annihilation": annihilation_pulse,
    "light_shift": light_shift_meter,
    "partial_ccnot": partial_ccnot,
}


def pulse_from_config(entry: dict) -> PulseOp:
    """Build a pulse from a run-config entry {"pulse": name, "params": {...}}."""
    name = entry.get("pulse")
    if name not in _PULSE_REGISTRY:
        raise ValueError(f"unknown pulse {name!r}, expected one of {sorted(_PULSE_REGISTRY)}")
    params = entry.get("params", {})
    return _PULSE_REGISTRY[name](**params)


def sequence_from_config(entries) -> list[PulseOp]:
    return [pulse_from_config(entry) for entry in entries]

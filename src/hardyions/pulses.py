"""Constructors for the laser pulses of the interferometer protocol.

Every constructor returns a PulseOp acting on the composite internal x
meter space. Internal pulses are plain 9 x 9 unitaries (identity on the
meter); a coupling pulse acts on the meter attached to |gg> and is carried
out by the meter class: the light shift is an exact displacement of the
Gaussian meter branches, and the partial C2-NOT rotates a qubit meter. The
strong measurement of |gg> against the rest is not a PulseOp but data: its
two groups of internal rows, which run_strong_comparison hands to project_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .meter import GaussianMeter, QubitMeter, qubit_rotation_matrix
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
            raise InvariantError(f"{self.label} meter block is not unitary (defect {self.defect:.3e})")

    def apply(self, state: SystemState) -> SystemState:
        if type(state.meter) is not self.meter_type:
            raise ValueError(f"{self.label} requires a {self.meter_type.__name__}, got {type(state.meter).__name__}")
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
    matrix[_EE, _EE] = matrix[_FF, _FF] = 0.0
    matrix[_FF, _EE], matrix[_EE, _FF] = 1.0, -1.0
    return InternalPulseOp("annihilation_pulse", matrix)


def light_shift_meter(a) -> CouplingPulseOp:
    """Conditional light shift: displace the |gg> meter branches by -a.

    The adiabatic turn-on and wavepacket rescaling of the physical pulse
    are compressed into the single displacement parameter a. An array of
    a displaces each center set of a batch by its own amount.
    """
    a = np.asarray(a, dtype=float)
    if not a.size:
        raise ValueError("need at least one displacement")
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise ValueError(f"displacement must be finite, got {a.tolist()}")
    # a batch is labelled by its size and end values: formatting every one costs more than the pulse
    shown = a.tolist() if a.ndim == 0 else "[{} values: {!r} .. {!r}]".format(a.size, *a.flat[[0, -1]].tolist())
    # exact by construction: every pairwise center difference is conserved
    return CouplingPulseOp(f"light_shift(a={shown})", GaussianMeter, -a, 0.0)


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


def strong_measurement() -> tuple[tuple[str, list[int]], ...]:
    """The projective measurement of |gg> against the rest: (label, internal rows) per outcome."""
    return ("gg", [GG_INDEX]), ("rest", [i for i in range(N_INTERNAL) if i != GG_INDEX])

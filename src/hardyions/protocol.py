"""Experiments on the two-ion interferometer, declared as data and run by one engine.

Every experiment is the same interferometer: first beamsplitters and the
annihilation pulse (PREPARE), then the experiment's coupling, then the
second beamsplitters (RECOMBINE), and post-selection of both ions in |gg>.
An Experiment is therefore a meter and its coupling, the pulses between
PREPARE and RECOMBINE: none for the ideal run, a light shift or a
third-ion rotation for the weak measurements. evolve folds apply_unitary
over a sequence. PREPARE takes no parameter, so the state it leaves is
evolved once per meter and kept (intermediate_state); every run evolves on
from that state, and so does each intermediate measurement (the weak values'
projectors, the strong branches): one batch of projections, one evolve.
The ideal run and the strong comparison take no parameter at all, so each
is evaluated once per process, on first use; every call returns fresh
copies of its tables. Every entry takes the light shift a in units of
sigma and runs it on the one unit Gaussian meter; sigma scales only
reported lengths. An array of a is one batch run on the same lines: the
amplitudes evolve once and only the meter's centers carry the batch.
Without a coupling, post-selecting |gg> succeeds with probability 1/16.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from . import meter as meter_mod
from .errors import InvariantError, PostSelectionError
from .meter import NORM_FLOOR, GaussianPointer, check_sigma, gaussian_moments

# Kept bound here, where the benchmark's tracer (bench/spans.py) wraps them.
from .meter import gaussian_mean_x, gaussian_second_moment  # noqa: F401
from .pulses import (
    PulseOp,
    annihilation_pulse,
    beamsplitter,
    light_shift_meter,
    partial_ccnot,
    strong_measurement,
)
from .statecore import (
    BASIS_LABELS,
    GG_INDEX,
    GaussianMeter,
    MeterSpace,
    NoMeter,
    QubitMeter,
    SystemState,
    apply_unitary,
    init_ground,
    internal_probabilities,
    pointer_component,
    project_internal,
    project_rows,
    state_to_json_dict,
)

INTERMEDIATE_PROJECTOR_LABELS = ("gg", "ge", "eg", "ff")

# The pulses without parameters, built once: those before the meter
# coupling (first beamsplitters, annihilation) and after it (second
# beamsplitters).
BEAMSPLITTERS = (beamsplitter(1), beamsplitter(2))
PREPARE = (*BEAMSPLITTERS, annihilation_pulse())
RECOMBINE = BEAMSPLITTERS
# The one meter of every weak Gaussian run, which keys intermediate_state.
UNIT_METER = GaussianMeter(1.0)


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one experiment run: the light shift a in units of sigma, and sigma.

    sigma scales only the lengths that leave the engine: the pointer samples.
    """

    a: float = 0.05
    sigma: float = 1.0
    shots: int = 100_000
    seed: int = 1

    def __post_init__(self) -> None:
        for key in ("shots", "seed"):  # a numpy integer is kept as an int, so reports stay JSON scalars
            if not isinstance(value := getattr(self, key), (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        if check_sigma(self.sigma) * self.sigma < sys.float_info.min:  # below it, squared samples underflow
            raise ValueError(f"sigma^2 underflows a double, got sigma = {self.sigma}")
        check_a(self.a)
        if self.shots < 1:
            raise ValueError(f"need at least one shot, got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class WeakValueReport:
    """Post-selected weak values plus the conditional pointer statistics (lists over a batch)."""

    postselection_probability: float | list[float]
    weak_values: dict[str, complex]
    pointer_mean: float | list[float]
    closed_form_mean: float | list[float]
    pointer_variance: float | list[float]
    conditional_pointer: GaussianPointer | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        total = sum(self.weak_values.values())
        if abs(total - 1.0) > 1e-12:
            raise InvariantError(f"weak values must sum to 1, got {total}")
        if not all(0.0 < p <= 1.0 for p in np.asarray(self.postselection_probability).ravel().tolist()):
            raise InvariantError(f"post-selection probability out of (0, 1]: {self.postselection_probability}")

    def to_json_dict(self) -> dict:
        return {
            "postselection_probability": self.postselection_probability,
            "weak_values": {k: [v.real, v.imag] for k, v in self.weak_values.items()},
            "pointer_mean": self.pointer_mean,
            "closed_form_mean": self.closed_form_mean,
            "pointer_variance": self.pointer_variance,
        }


@dataclass(frozen=True)
class IdealResult:
    state: SystemState
    probabilities: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "amplitudes": state_to_json_dict(self.state),
            "probabilities": self.probabilities,
            "sum_of_squares": sum(self.probabilities.values()),
        }


@dataclass(frozen=True)
class ThirdIonReport:
    """Post-selected meter populations for the third-ion experiment."""

    theta: float
    excited_population: float
    reference_shift: float  # delta_p = sin(theta) / 2
    deviation: float  # |(1/2 - P_e) - delta_p|
    relative_deviation: float | None  # deviation / delta_p, None at theta = 0
    postselection_probability: float

    def to_json_dict(self) -> dict:
        return dict(vars(self))  # every field is a JSON scalar, in declaration order


@dataclass(frozen=True)
class StrongBranch:
    label: str
    probability: float
    probabilities: dict[str, float]


@dataclass(frozen=True)
class StrongComparisonReport:
    """Final outcome tables with and without an inserted projective measurement."""

    undisturbed: dict[str, float]
    disturbed: dict[str, float]
    branches: tuple[StrongBranch, ...]

    def to_json_dict(self) -> dict:
        return {**vars(self), "branches": [dict(vars(b)) for b in self.branches]}


def evolve(state: SystemState, sequence) -> SystemState:
    """Apply the pulses of a sequence in order, each through apply_unitary."""
    for op in sequence:
        state = apply_unitary(state, op)
    return state


@dataclass(frozen=True)
class Experiment:
    """One experiment as data: a meter and its coupling.

    meter is attached in its fiducial state to |gg>; coupling is the tuple
    of pulses between PREPARE and RECOMBINE. Every experiment post-selects
    |gg>.
    """

    meter: MeterSpace
    coupling: tuple[PulseOp, ...]

    @property
    def sequence(self) -> tuple[PulseOp, ...]:
        return (*PREPARE, *self.coupling, *RECOMBINE)

    def final_state(self) -> SystemState:
        """The memoized intermediate state, evolved through the coupling and RECOMBINE."""
        return evolve(intermediate_state(self.meter), (*self.coupling, *RECOMBINE))

    def run(self):
        """Final state, post-selection probability and the conditional meter pointer."""
        final = self.final_state()
        probability, conditional = project_internal(final, "gg")
        return final, probability, pointer_component(conditional, "gg")


IDEAL = Experiment(NoMeter(), ())


def check_a(a) -> np.ndarray:
    """a, or each a of an array, as doubles; raises unless it lies in [0, inf)."""
    a = np.asarray(a, dtype=float)
    if bad := [x for x in a.ravel().tolist() if not 0.0 <= x < math.inf]:
        raise ValueError(f"a must be a non-negative finite number of sigmas, got {bad[0]}")
    return a


def weak_gaussian_experiment(a) -> Experiment:
    """The unit Gaussian meter, its |gg> branch displaced by -a, a in units of sigma (each a of an array: a batch)."""
    return Experiment(UNIT_METER, (light_shift_meter(a),))


def third_ion_experiment(theta: float) -> Experiment:
    """Third-ion qubit meter, rotated by theta when the system is in |gg>."""
    return Experiment(QubitMeter(), (partial_ccnot(theta),))


@lru_cache(maxsize=64)  # meters hash by value and states are immutable, so one evolution serves every run
def intermediate_state(meter: MeterSpace) -> SystemState:
    """The state between the annihilation pulse and the second beamsplitters."""
    return evolve(init_ground(meter), PREPARE)


@cache
def _ideal() -> IdealResult:
    state = IDEAL.final_state()
    return IdealResult(state, internal_probabilities(state))


def run_ideal() -> IdealResult:
    """The bare interferometer without any meter coupling.

    It takes no parameter, so it is evaluated once per process; each call
    returns the shared immutable state with a fresh copy of the table.
    """
    ideal = _ideal()
    return IdealResult(ideal.state, dict(ideal.probabilities))


def weak_values_postselected() -> dict[str, complex]:
    """Weak values of the intermediate projectors, post-selected on |gg>.

    Transition amplitudes <gg|U P|psi> / <gg|U|psi>, psi the intermediate state:
    one evolve carries the batch of the four P|psi> (project_rows) through U = RECOMBINE.
    The occupied intermediate components are gg, ge, eg, ff; their weak values come out
    (-1, +1, +1, 0) and sum to one. They depend on no parameter, so they
    are computed once, at import; each call returns a fresh copy.
    """
    return dict(_WEAK_VALUES)


def _evolved_weak_values() -> dict[str, complex]:
    denominator = IDEAL.final_state().amplitudes[GG_INDEX, 0]
    if abs(denominator) ** 2 < NORM_FLOOR:
        raise PostSelectionError("post-selection amplitude vanishes")
    rows = tuple(map(BASIS_LABELS.index, INTERMEDIATE_PROJECTOR_LABELS))
    final = evolve(project_rows(intermediate_state(NoMeter()), rows), RECOMBINE)
    return dict(zip(INTERMEDIATE_PROJECTOR_LABELS, (final.amplitudes[:, GG_INDEX, 0] / denominator).tolist()))


_WEAK_VALUES = _evolved_weak_values()


def closed_form_mean(a, sigma: float = 1.0):
    """Conditional pointer mean -a (1 - 2 g) / (5 - 4 g), g = exp(-a^2 / 8 sigma^2).

    Positive (equal to +a) for small a, zero at a^2 = 8 ln(2) sigma^2,
    negative beyond. A float, or a list for an array of a.
    """
    a = np.asarray(a, dtype=float)
    g = meter_mod.gauss_kernel(a, check_sigma(sigma))  # the quotient inherits the kernel's precision
    return np.asarray(-a * (1.0 - 2.0 * g) / (5.0 - 4.0 * g), dtype=float).tolist()


def run_weak_gaussian(a, sigma: float = 1.0) -> WeakValueReport:
    """Weak measurement of the |gg> population via the light-shift meter, at a light shift a in units of sigma.

    Post-selects |gg> and reports the conditional pointer, which is
    proportional to phi(x + a) - 2 phi(x) in units of sigma: coefficients
    (1, -2) on centers (-a, 0) up to normalization. The engine runs at a
    itself; sigma scales the reported mean and variance, and the closed
    form is taken at the length a * sigma. An array of a is one batch run:
    the amplitudes evolve once, each a moves its own center set, and every
    report field but the weak values is a list.
    """
    check_sigma(sigma)
    a = check_a(a)
    _, probability, pointer = weak_gaussian_experiment(a).run()
    mean, _, variance = gaussian_moments(pointer, sigma)  # raises where a sigma overflows, before it is formed
    return WeakValueReport(
        postselection_probability=probability,
        weak_values=weak_values_postselected(),
        pointer_mean=mean,
        closed_form_mean=closed_form_mean(a * sigma, sigma),
        pointer_variance=variance,
        conditional_pointer=pointer,
    )


def weak_limit_check(a: float) -> float:
    """L2 distance between the normalized conditional pointer and -phi(x - a), a in units of sigma.

    For a much smaller than 1, phi(x + a) - 2 phi(x) is -phi(x - a) to
    first order, so the distance, which has no unit, scales as a^2.
    """
    g = float(meter_mod.gauss_kernel(a, 1.0))
    norm = 1.0 / math.sqrt(5.0 - 4.0 * g)
    difference = GaussianPointer(1.0, ((norm, -a), (-2.0 * norm, 0.0), (1.0, a)))
    return math.sqrt(meter_mod.gaussian_norm_sq(difference))  # row norms are never negative


def third_ion_excited_population(theta: float) -> float:
    """Conditional excited population (c+s-2)^2 / ((c+s-2)^2 + (c-s-2)^2).

    c = cos(theta/2), s = sin(theta/2); the same amplitude bookkeeping as
    the Gaussian meter, carried out on the two-level pointer.
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    plus = (c + s - 2.0) ** 2
    minus = (c - s - 2.0) ** 2
    return plus / (plus + minus)


def run_third_ion(theta: float) -> ThirdIonReport:
    """Weak measurement with a third-ion qubit meter and a partial C2-NOT.

    After post-selecting |gg>, the meter's excited population drops below
    1/2 by approximately delta_p = sin(theta) / 2, the amount by which a
    genuine |gg> occupation would have raised it.
    """
    if not -math.pi < theta < math.pi:
        raise ValueError(f"theta must lie in (-pi, pi), got {theta}")
    _, probability, pointer = third_ion_experiment(theta).run()
    excited = pointer.excited_population
    delta_p = math.sin(theta) / 2.0
    deviation = abs((0.5 - excited) - delta_p)
    relative = deviation / abs(delta_p) if delta_p != 0.0 else None
    return ThirdIonReport(
        theta=theta,
        excited_population=excited,
        reference_shift=delta_p,
        deviation=deviation,
        relative_deviation=relative,
        postselection_probability=probability,
    )


@cache
def _strong_comparison() -> StrongComparisonReport:
    undisturbed = run_ideal().probabilities
    labels, groups = zip(*strong_measurement())
    projected = project_rows(intermediate_state(NoMeter()), groups)
    probabilities = projected.norm_sq
    tables = evolve(projected.normalized(), RECOMBINE).row_norms
    disturbed = (probabilities[:, None] * tables).sum(axis=0)  # summed in the order the branches are listed
    branch_tables = (dict(zip(BASIS_LABELS, table)) for table in tables.tolist())
    branches = tuple(map(StrongBranch, labels, probabilities.tolist(), branch_tables))
    return StrongComparisonReport(undisturbed, dict(zip(BASIS_LABELS, disturbed.tolist())), branches)


def run_strong_comparison() -> StrongComparisonReport:
    """Final outcome tables with and without the projective |gg> measurement inserted.

    The measurement (strong_measurement: |gg> against the rest) fires between the
    annihilation pulse and the second beamsplitters: the memoized intermediate state is
    projected onto each branch's rows as one batch (project_rows), whose norms are the branch
    probabilities, and the collapsed branches take one evolve through RECOMBINE. The disturbed
    table sums the branch tables weighted by branch probability, in branch order. It takes no
    parameter, so it is evaluated once per process; each call returns fresh copies of the tables.
    """
    report = _strong_comparison()
    return StrongComparisonReport(
        dict(report.undisturbed),
        dict(report.disturbed),
        tuple(StrongBranch(b.label, b.probability, dict(b.probabilities)) for b in report.branches),
    )

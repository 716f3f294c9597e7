import math

import numpy as np
import pytest

from hardyions.errors import InvariantError
from hardyions.pulses import (
    InternalPulseOp,
    annihilation_pulse,
    beamsplitter,
    light_shift_meter,
    partial_ccnot,
    projector_onto,
    strong_measurement,
)
from hardyions.statecore import (
    BASIS_LABELS,
    GaussianMeter,
    N_INTERNAL,
    QubitMeter,
    SystemState,
    apply_unitary,
    init_ground,
    pointer_component,
    state_overlap,
)

UNITARITY_TOL = 1e-12


def basis_state(label, meter=None):
    state = init_ground(meter)
    amps = np.zeros_like(state.amplitudes)
    amps[BASIS_LABELS.index(label)] = state.amplitudes[0]
    return SystemState(amps, state.meter)


def random_state(rng, meter=None):
    state = init_ground(meter)
    amps = rng.normal(size=state.amplitudes.shape) + 1j * rng.normal(
        size=state.amplitudes.shape
    )
    return SystemState(amps, state.meter).normalized()


def amplitude(state, label, branch=0):
    return state.amplitudes[BASIS_LABELS.index(label), branch]


class TestBeamsplitter:
    def test_both_ions_on_ground(self):
        state = apply_unitary(apply_unitary(init_ground(), beamsplitter(1)), beamsplitter(2))
        for label in ("gg", "ge", "eg", "ee"):
            assert amplitude(state, label) == pytest.approx(0.5, abs=1e-12)
        for label in ("gf", "ef", "fg", "fe", "ff"):
            assert amplitude(state, label) == 0.0

    def test_f_untouched(self):
        for label in ("fg", "fe", "ff"):
            state = apply_unitary(basis_state(label), beamsplitter(1))
            assert amplitude(state, label) == pytest.approx(1.0, abs=1e-15)

    def test_applied_twice_rotates_g_to_e(self):
        # the 2x2 block squares to [[0, -1], [1, 0]]
        twice = beamsplitter(1).matrix @ beamsplitter(1).matrix
        state = twice @ init_ground().amplitudes
        assert state[BASIS_LABELS.index("eg"), 0] == pytest.approx(1.0, abs=1e-12)
        assert abs(state[0, 0]) < 1e-12

    def test_ions_commute(self):
        rng = np.random.default_rng(10)
        state = random_state(rng)
        oneway = apply_unitary(apply_unitary(state, beamsplitter(1)), beamsplitter(2))
        otherway = apply_unitary(apply_unitary(state, beamsplitter(2)), beamsplitter(1))
        np.testing.assert_allclose(oneway.amplitudes, otherway.amplitudes, atol=1e-12)

    def test_invalid_ion_rejected(self):
        with pytest.raises(ValueError):
            beamsplitter(3)


class TestAnnihilationPulse:
    def test_empties_ee_component(self):
        state = apply_unitary(apply_unitary(init_ground(), beamsplitter(1)), beamsplitter(2))
        state = apply_unitary(state, annihilation_pulse())
        for label in ("gg", "ge", "eg", "ff"):
            assert amplitude(state, label) == pytest.approx(0.5, abs=1e-12)
        assert amplitude(state, "ee") == 0.0

    def test_gg_untouched(self):
        state = apply_unitary(init_ground(), annihilation_pulse())
        assert amplitude(state, "gg") == 1.0

    def test_applied_twice_negates_ee(self):
        state = basis_state("ee")
        state = apply_unitary(state, annihilation_pulse())
        assert amplitude(state, "ff") == 1.0
        state = apply_unitary(state, annihilation_pulse())
        assert amplitude(state, "ee") == -1.0


class TestLightShift:
    def intermediate(self, sigma=1.0):
        state = init_ground(GaussianMeter(sigma))
        for op in (beamsplitter(1), beamsplitter(2), annihilation_pulse()):
            state = apply_unitary(state, op)
        return state

    def test_displaces_only_gg(self):
        a = 0.3
        state = apply_unitary(self.intermediate(), light_shift_meter(a))
        assert state.meter.centers == (0.0, -a)
        assert amplitude(state, "gg", 0) == 0.0
        assert amplitude(state, "gg", 1) == pytest.approx(0.5, abs=1e-12)
        for label in ("ge", "eg", "ff"):
            assert amplitude(state, label, 0) == pytest.approx(0.5, abs=1e-12)
            assert amplitude(state, label, 1) == 0.0

    def test_zero_shift_is_identity(self):
        state = self.intermediate()
        out = apply_unitary(state, light_shift_meter(0.0))
        assert out.meter == state.meter
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_shift_then_unshift(self):
        state = self.intermediate()
        shifted = apply_unitary(state, light_shift_meter(0.4))
        back = apply_unitary(shifted, light_shift_meter(-0.4))
        assert abs(state_overlap(back, state) - 1.0) < 1e-12

    def test_requires_gaussian_meter(self):
        with pytest.raises(ValueError, match="GaussianMeter"):
            light_shift_meter(0.1).apply(init_ground())
        with pytest.raises(ValueError, match="GaussianMeter"):
            light_shift_meter(0.1).apply(init_ground(QubitMeter()))

    def test_commutes_with_internal_unitary_fixing_gg(self):
        # the annihilation pulse does not mix gg with anything
        rng = np.random.default_rng(12)
        state = random_state(rng, GaussianMeter(1.0, (0.0, 0.6)))
        shift = light_shift_meter(0.25)
        ann = annihilation_pulse()
        oneway = apply_unitary(apply_unitary(state, shift), ann)
        otherway = apply_unitary(apply_unitary(state, ann), shift)
        assert abs(state_overlap(oneway, otherway) - 1.0) < 1e-12

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = random_state(rng, GaussianMeter(0.8, (0.0, -0.5, 0.3)))
            out = light_shift_meter(rng.uniform(-1, 1)).apply(state)
            assert abs(out.norm - 1.0) < 1e-12


class TestPartialCcnot:
    def test_zero_angle_is_identity(self):
        state = init_ground(QubitMeter())
        out = apply_unitary(state, partial_ccnot(0.0))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_rotates_meter_on_gg(self):
        theta = 0.08
        state = apply_unitary(init_ground(QubitMeter()), partial_ccnot(theta))
        pointer = pointer_component(state, "gg")
        expected = 0.5 * (1.0 + math.sin(theta))
        assert pointer.excited_population == pytest.approx(expected, abs=1e-14)
        assert pointer.excited_population - 0.5 == pytest.approx(
            math.sin(theta) / 2.0, abs=1e-14
        )

    def test_other_internal_states_untouched(self):
        state = basis_state("ge", QubitMeter())
        out = apply_unitary(state, partial_ccnot(0.4))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_requires_qubit_meter(self):
        with pytest.raises(ValueError, match="QubitMeter"):
            partial_ccnot(0.1).apply(init_ground())


class TestUnitarity:
    @pytest.mark.parametrize(
        "op",
        [
            beamsplitter(1),
            beamsplitter(2),
            annihilation_pulse(),
            partial_ccnot(0.7),
            partial_ccnot(-2.0),
            light_shift_meter(0.3),
        ],
        ids=lambda op: op.label,
    )
    def test_defect_below_tolerance(self, op):
        assert op.unitarity_defect() < UNITARITY_TOL

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(InvariantError, match="unitary"):
            InternalPulseOp("broken", np.ones((N_INTERNAL, N_INTERNAL)))


class TestFullSequence:
    def test_reproduces_final_amplitudes(self):
        state = init_ground()
        for op in (
            beamsplitter(1),
            beamsplitter(2),
            annihilation_pulse(),
            beamsplitter(1),
            beamsplitter(2),
        ):
            state = apply_unitary(state, op)
        expected = {"ff": 0.5, "ee": 0.75, "ge": 0.25, "eg": 0.25, "gg": -0.25}
        for label in BASIS_LABELS:
            assert amplitude(state, label) == pytest.approx(
                expected.get(label, 0.0), abs=1e-12
            )


class TestStrongMeasurement:
    def intermediate(self):
        state = init_ground()
        for op in (beamsplitter(1), beamsplitter(2), annihilation_pulse()):
            state = apply_unitary(state, op)
        return state

    def test_outcome_probabilities(self):
        outcomes = strong_measurement().measure(self.intermediate())
        table = {o.label: o.probability for o in outcomes}
        assert table["gg"] == pytest.approx(0.25, abs=1e-12)
        assert table["rest"] == pytest.approx(0.75, abs=1e-12)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_collapsed_states_are_normalized(self):
        for outcome in strong_measurement().measure(self.intermediate()):
            assert outcome.state is not None
            assert abs(outcome.state.norm - 1.0) < 1e-12

    def test_measurement_disturbs_the_final_state(self):
        ideal = init_ground()
        for op in (
            beamsplitter(1),
            beamsplitter(2),
            annihilation_pulse(),
            beamsplitter(1),
            beamsplitter(2),
        ):
            ideal = apply_unitary(ideal, op)
        for outcome in strong_measurement().measure(self.intermediate()):
            finished = apply_unitary(
                apply_unitary(outcome.state, beamsplitter(1)), beamsplitter(2)
            )
            assert abs(abs(state_overlap(finished, ideal)) - 1.0) > 1e-3

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            strong_measurement([("gg", projector_onto("gg"))])

    def test_non_orthogonal_set_rejected(self):
        full = np.eye(N_INTERNAL, dtype=complex)
        with pytest.raises(ValueError):
            strong_measurement([("a", full), ("b", projector_onto("gg"))])

    def test_label_based_projectors(self):
        instrument = strong_measurement(
            [("gg", ["gg"]), ("rest", [l for l in BASIS_LABELS if l != "gg"])]
        )
        outcomes = instrument.measure(self.intermediate())
        assert outcomes[0].probability == pytest.approx(0.25, abs=1e-12)


import math

import numpy as np
import pytest

from hardyions.errors import InvariantError
from hardyions.meter import qubit_rotation_matrix
from hardyions.protocol import UNIT_METER, intermediate_state
from hardyions.pulses import (
    InternalPulseOp,
    annihilation_pulse,
    beamsplitter,
    light_shift_meter,
    partial_ccnot,
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
    project_rows,
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
        assert state.meter.points.tolist() == [0.0, -a]
        assert amplitude(state, "gg", 0) == 0.0
        assert amplitude(state, "gg", 1) == pytest.approx(0.5, abs=1e-12)
        for label in ("ge", "eg", "ff"):
            assert amplitude(state, label, 0) == pytest.approx(0.5, abs=1e-12)
            assert amplitude(state, label, 1) == 0.0

    def test_zero_shift_is_identity(self):
        # the |gg> branch is appended on the center it left: a second center, the same state
        state = self.intermediate()
        out = apply_unitary(state, light_shift_meter(0.0))
        assert out.meter.points.tolist() == [0.0, 0.0]
        np.testing.assert_array_equal(out.row_norms, state.row_norms)

    def test_shift_then_unshift(self):
        # the |gg> branch returns to the original center as a third one; the norms come back bit for bit
        state = self.intermediate()
        shifted = apply_unitary(state, light_shift_meter(0.4))
        back = apply_unitary(shifted, light_shift_meter(-0.4))
        assert back.meter.points.tolist() == [0.0, -0.4, 0.0]
        np.testing.assert_array_equal(back.row_norms, state.row_norms)

    def test_requires_gaussian_meter(self):
        with pytest.raises(ValueError, match="GaussianMeter"):
            light_shift_meter(0.1).apply(init_ground())
        with pytest.raises(ValueError, match="GaussianMeter"):
            light_shift_meter(0.1).apply(init_ground(QubitMeter()))

    def test_labels(self):
        assert light_shift_meter(1.7).label == "light_shift(a=1.7)"
        batch = light_shift_meter(np.linspace(0.01, 5.0, 200))
        assert batch.label == "light_shift(a=[200 values: 0.01 .. 5.0])"
        with pytest.raises(ValueError, match="at least one displacement"):
            light_shift_meter([])

    def test_commutes_with_internal_unitary_fixing_gg(self):
        # the annihilation pulse does not mix gg with anything
        rng = np.random.default_rng(12)
        state = random_state(rng, GaussianMeter(1.0, (0.0, 0.6)))
        shift = light_shift_meter(0.25)
        ann = annihilation_pulse()
        oneway = apply_unitary(apply_unitary(state, shift), ann)
        otherway = apply_unitary(apply_unitary(state, ann), shift)
        assert oneway.meter == otherway.meter
        np.testing.assert_allclose(oneway.amplitudes, otherway.amplitudes, atol=1e-12)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = random_state(rng, GaussianMeter(0.8, (0.0, -0.5, 0.3)))
            out = light_shift_meter(rng.uniform(-1, 1)).apply(state)
            assert abs(out.norm - 1.0) < 1e-12

    def test_batched_amplitudes_rejected(self):
        projected = project_rows(intermediate_state(UNIT_METER), ([0], [1, 3]))
        with pytest.raises(ValueError, match=r"^light_shift\(a=0.5\) acts on one state, got a batch of 2$"):
            apply_unitary(projected, light_shift_meter(0.5))


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

    def test_batched_amplitudes_rejected(self):
        batch = SystemState(np.ones((3, N_INTERNAL, 2)), QubitMeter())
        with pytest.raises(ValueError, match=r"acts on one state, got a batch of 3$"):
            apply_unitary(batch, partial_ccnot(0.3))


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

    def test_defect_equals_the_numpy_function_form(self):
        # the ndarray-method form changes no bit of the defect, on unitaries (QR factors) and off them
        from hardyions.pulses import _unitarity_defect

        def function_form(m):
            return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))

        rng = np.random.default_rng(29)
        rotation = qubit_rotation_matrix(0.3)
        assert _unitarity_defect(rotation) == function_form(rotation) == 1.1102230246251565e-16
        for dim in (2, 3, N_INTERNAL):
            for _ in range(20):
                z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                unitary = np.linalg.qr(z)[0]
                for m in (unitary, z, unitary * (1.0 + 1e-9)):
                    assert _unitarity_defect(m) == function_form(m)


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
        row_norms = self.intermediate().row_norms
        table = {label: float(row_norms[rows].sum()) for label, rows in strong_measurement()}
        assert table["gg"] == pytest.approx(0.25, abs=1e-12)
        assert table["rest"] == pytest.approx(0.75, abs=1e-12)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

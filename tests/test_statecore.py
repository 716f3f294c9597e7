import json
import math

import numpy as np
import pytest

from hardyions.errors import InvariantError, PostSelectionError
from hardyions.pulses import InternalPulseOp, beamsplitter
from hardyions.statecore import (
    BASIS_LABELS,
    GaussianMeter,
    N_INTERNAL,
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


def random_state(rng, meter=None):
    meter = meter or NoMeter()
    amps = rng.normal(size=(N_INTERNAL, meter.dim)) + 1j * rng.normal(size=(N_INTERNAL, meter.dim))
    state = SystemState(amps, meter)
    return state.normalized()


class TestBasisIndexing:
    def test_round_trip_all_nine(self):
        # project_internal finds every label at its own index: the one populated row, and only there
        for k, label in enumerate(BASIS_LABELS):
            amps = np.zeros((N_INTERNAL, 2), dtype=complex)
            amps[k] = [0.6, 0.8j]
            state = SystemState(amps, QubitMeter())
            probability, row = project_internal(state, label)
            assert probability == 1.0
            assert row.shape == (2,) and row.tobytes() == amps[k].tobytes()
            for other in BASIS_LABELS:
                if other != label:
                    with pytest.raises(PostSelectionError):
                        project_internal(state, other)

    def test_label_order(self):
        assert BASIS_LABELS == ("gg", "ge", "gf", "eg", "ee", "ef", "fg", "fe", "ff")
        amps = np.zeros((N_INTERNAL, 2), dtype=complex)
        amps[1] = [1.0, 0.0]
        amps[3] = [0.0, 1.0]
        state = SystemState(amps, QubitMeter())
        # ion-1 major: |ge> sits at index 1, |eg> at index 3
        assert pointer_component(state, "ge").excited_population == 0.0
        assert pointer_component(state, "eg").excited_population == 1.0

    def test_invalid_level_rejected(self):
        state = init_ground(QubitMeter())
        with pytest.raises(ValueError):
            project_internal(state, "gx")
        with pytest.raises(ValueError):
            project_internal(state, 9)
        with pytest.raises(ValueError):
            pointer_component(state, "ggg")


class TestInitGround:
    def test_unit_amplitude_on_gg(self):
        state = init_ground()
        assert state.amplitudes[0, 0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_normalized(self):
        assert init_ground().norm == pytest.approx(1.0, abs=1e-15)
        assert init_ground(GaussianMeter(1.0)).norm == pytest.approx(1.0, abs=1e-15)
        assert init_ground(QubitMeter()).norm == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_projection_is_zero(self):
        state = init_ground()
        assert internal_probabilities(state)["ee"] == 0.0
        with pytest.raises(PostSelectionError):
            project_internal(state, "ee")

    def test_projection_onto_gg_is_certain(self):
        for meter in (NoMeter(), GaussianMeter(1.0), QubitMeter()):
            probability, row = project_internal(init_ground(meter), "gg")
            assert probability == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_allclose(row, meter.fiducial(), rtol=0.0, atol=1e-15)


class TestApplyUnitary:
    def test_identity(self):
        rng = np.random.default_rng(0)
        state = random_state(rng)
        identity = InternalPulseOp("identity", np.eye(N_INTERNAL))
        out = apply_unitary(state, identity)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_beamsplitter_then_inverse(self):
        rng = np.random.default_rng(1)
        state = random_state(rng)
        bs = beamsplitter(1)
        inverse = InternalPulseOp("inverse", bs.matrix.conj().T)
        out = apply_unitary(apply_unitary(state, bs), inverse)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_first_beamsplitter_pair(self):
        state = init_ground()
        state = apply_unitary(state, beamsplitter(1))
        state = apply_unitary(state, beamsplitter(2))
        expected = np.zeros(N_INTERNAL)
        for label in ("gg", "ge", "eg", "ee"):
            expected[BASIS_LABELS.index(label)] = 0.5
        np.testing.assert_allclose(state.amplitudes[:, 0], expected, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        for meter in (NoMeter(), GaussianMeter(0.9, (0.0, -0.3)), QubitMeter()):
            state = random_state(rng, meter)
            out = apply_unitary(state, beamsplitter(2))
            assert abs(out.norm - 1.0) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        meter = GaussianMeter(1.0, (0.0, -0.4))
        s1 = random_state(rng, meter)
        s2 = random_state(rng, meter)
        alpha, beta = 0.3 - 0.2j, -1.1 + 0.7j
        combined = SystemState(alpha * s1.amplitudes + beta * s2.amplitudes, meter)
        bs = beamsplitter(1)
        lhs = bs.apply(combined).amplitudes
        rhs = alpha * bs.apply(s1).amplitudes + beta * bs.apply(s2).amplitudes
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_non_finite_pulse_output_rejected(self):
        class Poisoning:
            label = "poisoning"

            def apply(self, state):
                return SystemState(math.nan * state.amplitudes, state.meter)

        with pytest.raises(ValueError, match="non-finite amplitudes"):
            apply_unitary(init_ground(), Poisoning())

    def test_norm_change_detected_with_cached_input_norm(self):
        class Doubling:
            label = "doubling"

            def apply(self, state):
                return SystemState(2.0 * state.amplitudes, state.meter)

        rng = np.random.default_rng(6)
        for meter in (NoMeter(), GaussianMeter(0.9, (0.0, -0.3)), QubitMeter()):
            state = random_state(rng, meter)
            assert state.norm == pytest.approx(1.0, abs=1e-12)  # the input's norm is now cached
            with pytest.raises(InvariantError, match="changed the norm"):
                apply_unitary(state, Doubling())

    def test_batch_drift_names_the_worst_element(self):
        # one unit amplitude on the center every set shares: each element has norm 1, and the
        # patched pulse stretches element k by scale[k]
        scale = np.array([1.0, 1.0 + 1e-6, 1.0 + 1e-3, 1.0 + 1e-9])

        class Stretching:
            label = "stretching"

            def apply(self, state):
                return SystemState(scale[:, None, None] * state.amplitudes, state.meter)

        amps = np.zeros((N_INTERNAL, 2), dtype=complex)
        amps[0, 0] = 1.0
        state = SystemState(amps, GaussianMeter(1.0, [(0.0, -d) for d in (0.3, 0.5, 0.7, 0.9)]))
        np.testing.assert_array_equal(state.norm, np.ones(4))
        with pytest.raises(InvariantError, match=r"stretching changed the norm by 1\.000e-03 in batch element 2$"):
            apply_unitary(state, Stretching())
        scale = np.array([1.0, 1.0 + 1e-15, 1.0, 1.0 - 1e-15])  # every drift within NORM_TOL
        assert apply_unitary(state, Stretching()).amplitudes.shape == (4, N_INTERNAL, 2)
        for k in range(4):  # the threshold sits between relative stretches of 5e-13 and 2e-12
            scale = np.ones(4)
            scale[k] = 1.0 + 2e-12
            with pytest.raises(InvariantError, match=rf"changed the norm by 2\.000e-12 in batch element {k}$"):
                apply_unitary(state, Stretching())
            scale[k] = 1.0 + 5e-13
            apply_unitary(state, Stretching())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SystemState(np.zeros((N_INTERNAL, 2)), NoMeter())

    def test_non_finite_rejected(self):
        amps = np.zeros((N_INTERNAL, 1), dtype=complex)
        amps[0, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            SystemState(amps, NoMeter())


class TestNormAndProjection:
    def test_gaussian_metric_norm(self):
        # same internal state on two displaced branches: the cross term counts
        sigma, d = 1.0, 0.8
        meter = GaussianMeter(sigma, (0.0, -d))
        amps = np.zeros((N_INTERNAL, 2), dtype=complex)
        amps[0] = [1.0, -2.0]
        state = SystemState(amps, meter)
        g = math.exp(-d * d / (8.0 * sigma * sigma))
        assert state.norm_sq == pytest.approx(5.0 - 4.0 * g, rel=1e-14)

    def test_completeness(self):
        rng = np.random.default_rng(4)
        for meter in (NoMeter(), GaussianMeter(1.0, (0.0, -0.5, 0.7)), QubitMeter()):
            state = random_state(rng, meter)
            table = internal_probabilities(state)
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= p <= 1.0 + 1e-12 for p in table.values())

    def test_row_norms_match_projected_states(self):
        # each row norm is the norm of the state projected onto that outcome
        rng = np.random.default_rng(8)
        for meter in (NoMeter(), GaussianMeter(0.8, (0.0, -0.5, 0.7, 1.9)), QubitMeter()):
            for _ in range(10):
                state = random_state(rng, meter)
                rows = meter.row_norms_sq(state.amplitudes)
                assert rows.shape == (N_INTERNAL,)
                for idx in range(N_INTERNAL):
                    projected = np.zeros_like(state.amplitudes)
                    projected[idx] = state.amplitudes[idx]
                    reference = SystemState(projected, meter).norm_sq
                    assert rows[idx] == pytest.approx(reference, rel=1e-14)
                assert rows.sum() == pytest.approx(state.norm_sq, rel=1e-13)

    def test_meter_reads_amplitudes_and_a_state_keeps_its_norm(self):
        # a meter measures amplitudes; a state reads its rows afresh and keeps its norm alone
        rng = np.random.default_rng(29)
        for meter in (NoMeter(), QubitMeter(), GaussianMeter(0.8, (0.0, -0.5, 0.7)), GaussianMeter(0.8, [[0.0, 1.0]] * 3)):
            for shape in ((N_INTERNAL, meter.dim), (3, N_INTERNAL, meter.dim)):
                state = SystemState(rng.normal(size=shape) + 1j * rng.normal(size=shape), meter)
                amps = state.amplitudes
                assert state.row_norms.tobytes() == meter.row_norms_sq(amps).tobytes()
                assert state.row_norms is not state.row_norms
                assert state.norm_sq.tobytes() == meter.norm_sq(amps).tobytes()
                assert state.norm is state.norm
                assert np.asarray(state.norm).tobytes() == np.sqrt(meter.norm_sq(amps)).tobytes()
                assert set(vars(state)) == {"amplitudes", "meter", "_norm"}

    def test_euclidean_metric_takes_a_batch_axis(self):
        # G different states stacked as (G, 9, M): each element's row norms, and each element of
        # the stacked state after a pulse, bit for bit as the element alone
        rng = np.random.default_rng(12)
        for meter in (NoMeter(), QubitMeter()):
            states = [random_state(rng, meter) for _ in range(5)]
            stacked = SystemState(np.stack([state.amplitudes for state in states]), meter)
            rows = meter.row_norms_sq(stacked.amplitudes)
            assert rows.shape == (5, N_INTERNAL)
            assert rows.tobytes() == np.stack([meter.row_norms_sq(state.amplitudes) for state in states]).tobytes()
            pulsed = apply_unitary(stacked, beamsplitter(1))
            assert pulsed.amplitudes.shape == (5, N_INTERNAL, meter.dim)
            for element, state in zip(pulsed.amplitudes, states):
                assert element.tobytes() == apply_unitary(state, beamsplitter(1)).amplitudes.tobytes()

    def test_project_rows_copies_each_group_into_zeros(self):
        # a row is copied, not multiplied by a mask, so a negative zero stays one and the other
        # rows hold positive zeros; a group is one index or a list of them
        amps = np.zeros((N_INTERNAL, 2), dtype=complex)
        amps[0] = [complex(-0.0, -0.0), 0.5]
        amps[4] = [0.5j, 0.0]
        state = SystemState(amps, QubitMeter())
        projected = project_rows(state, ([4, 0], 4, [1, 2]))
        assert projected.meter == state.meter and projected.amplitudes.shape == (3, N_INTERNAL, 2)
        expected = np.zeros((3, N_INTERNAL, 2), dtype=complex)
        expected[0, [0, 4]] = amps[[0, 4]]
        expected[1, 4] = amps[4]
        assert projected.amplitudes.tobytes() == expected.tobytes()
        assert projected.norm_sq.tolist() == [0.5, 0.25, 0.0]  # not renormalized

    def test_conditional_state_is_normalized(self):
        # the returned row is the conditional state's one row: unit norm under its meter's metric,
        # also on each center set of a batched meter
        rng = np.random.default_rng(5)
        ee = BASIS_LABELS.index("ee")
        batch = GaussianMeter(1.0, [(0.0, -0.5), (0.0, 0.7), (0.0, 2.5)])
        for meter in (NoMeter(), GaussianMeter(1.0, (0.0, -0.5)), QubitMeter(), batch):
            state = random_state(rng, meter)
            probability, row = project_internal(state, "ee")
            assert row.shape == np.shape(probability) + (meter.dim,)
            assert 0.0 < np.min(probability) and np.max(probability) < 1.0
            assert probability == internal_probabilities(state)["ee"]
            np.testing.assert_allclose(meter.norm_sq(row[..., None, :]), 1.0, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                row * np.sqrt(probability)[..., None],
                state.amplitudes[..., ee, :],
                rtol=1e-14,
            )

    def test_gram_kernel_built_once_per_meter(self, monkeypatch):
        from hardyions import meter as meter_mod

        builds = []
        gram_matrix = meter_mod.gram_matrix
        monkeypatch.setattr(
            meter_mod, "gram_matrix", lambda *args: builds.append(args) or gram_matrix(*args)
        )
        meter = GaussianMeter(1.0, (0.0, -0.5))
        rng = np.random.default_rng(7)
        for state in [random_state(rng, meter) for _ in range(3)]:
            SystemState(state.amplitudes, meter).norm_sq
            meter.row_norms_sq(state.amplitudes)
        [(sigma, centers)] = builds
        assert sigma == 1.0
        np.testing.assert_array_equal(centers, (0.0, -0.5))
        np.testing.assert_array_equal(meter.gram, gram_matrix(1.0, (0.0, -0.5)))
        assert not meter.gram.flags.writeable


class TestPointerComponent:
    def test_gaussian_component(self):
        meter = GaussianMeter(0.9, (0.0, -0.4))
        amps = np.zeros((N_INTERNAL, 2), dtype=complex)
        amps[0] = [0.5, 0.25]
        amps[4, 0] = 0.8
        state = SystemState(amps, meter)
        pointer = pointer_component(state, "gg")
        assert pointer.sigma == 0.9
        assert pointer.branches == ((0.5 + 0j, 0.0), (0.25 + 0j, -0.4))
        # a branch the component does not reach stays in the view, with coefficient 0
        ee = pointer_component(state, "ee")
        assert ee.meter is meter
        assert ee.branches == ((0.8 + 0j, 0.0), (0j, -0.4))

    def test_qubit_component(self):
        state = init_ground(QubitMeter())
        pointer = pointer_component(state, "gg")
        assert pointer.excited_population == pytest.approx(0.5, abs=1e-15)

    def test_empty_component_rejected(self):
        state = init_ground(GaussianMeter(1.0))
        with pytest.raises(ValueError, match="no meter amplitude"):
            pointer_component(state, "ee")

    def test_no_meter_rejected(self):
        with pytest.raises(ValueError, match="no meter"):
            pointer_component(init_ground(), "gg")


class TestSerialization:
    def test_single_branch_dump(self):
        dump = state_to_json_dict(init_ground())
        assert list(dump.keys()) == list(BASIS_LABELS)
        assert dump["gg"] == [1.0, 0.0]
        assert dump["ff"] == [0.0, 0.0]

    def test_multi_branch_dump_keys(self):
        state = init_ground(GaussianMeter(1.0, (0.0, -0.2)))
        dump = state_to_json_dict(state)
        assert list(dump.keys())[:4] == ["gg#0", "gg#1", "ge#0", "ge#1"]
        assert json.dumps(dump)  # JSON-serializable

    def test_batch_dump_rejected(self):
        batch = SystemState(np.ones((3, N_INTERNAL, 2)), QubitMeter())
        with pytest.raises(ValueError, match="^an amplitude dump holds one state, got a batch of 3$"):
            state_to_json_dict(batch)

    def test_amplitudes_are_immutable(self):
        state = init_ground()
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 0.0

import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest

from hardyions.errors import InvariantError
from hardyions.meter import (
    GaussianPointer,
    evaluate_gaussian,
    gauss_kernel,
    gaussian_mean_x,
    grid_moments,
    to_grid,
)
from hardyions.protocol import (
    IDEAL,
    PREPARE,
    RECOMBINE,
    Experiment,
    RunConfig,
    WeakValueReport,
    closed_form_mean,
    evolve,
    intermediate_state,
    run_ideal,
    run_strong_comparison,
    run_third_ion,
    run_weak_gaussian,
    third_ion_excited_population,
    third_ion_experiment,
    weak_gaussian_experiment,
    weak_limit_check,
    weak_values_postselected,
)
from hardyions.pulses import beamsplitter, light_shift_meter
from hardyions.shots import prepare_experiment, run_experiment_mc
from hardyions.statecore import (
    BASIS_LABELS,
    GaussianMeter,
    NoMeter,
    QubitMeter,
    SystemState,
    apply_unitary,
    init_ground,
    internal_probabilities,
)

SIGN_CHANGE = math.sqrt(8.0 * math.log(2.0))


class TestEngine:
    def test_evolve_folds_apply_unitary(self):
        state = init_ground()
        for op in IDEAL.sequence:
            state = apply_unitary(state, op)
        np.testing.assert_array_equal(evolve(init_ground(), IDEAL.sequence).amplitudes, state.amplitudes)
        np.testing.assert_array_equal(run_ideal().state.amplitudes, state.amplitudes)

    def test_experiments_share_the_constant_pulses(self):
        weak = weak_gaussian_experiment(0.1).sequence
        third = third_ion_experiment(0.1).sequence
        assert weak[:3] == third[:3] == IDEAL.sequence[:3]
        assert weak[4:] == third[4:] == IDEAL.sequence[3:]
        assert [op.label for op in IDEAL.sequence] == [
            "beamsplitter(ion=1)",
            "beamsplitter(ion=2)",
            "annihilation_pulse",
            "beamsplitter(ion=1)",
            "beamsplitter(ion=2)",
        ]

    @pytest.mark.parametrize(
        "run, most",
        [
            (run_ideal, 6),
            (run_strong_comparison, 10),
            (lambda: prepare_experiment(RunConfig(a=1.7)), 8),
        ],
        ids=["run_ideal", "run_strong_comparison", "prepare_experiment"],
    )
    def test_no_state_built_only_for_its_norm(self, monkeypatch, cold_reports, run, most):
        # cold: one state per pulse and per conditional state; the strong comparison's branches
        # are one batch of projections and one collapsed batch
        built = []
        post_init = SystemState.__post_init__
        monkeypatch.setattr(
            SystemState, "__post_init__", lambda state: built.append(1) or post_init(state)
        )
        run()
        assert len(built) <= most

    def test_cold_strong_comparison_applies_seven_pulses(self, monkeypatch, cold_reports):
        # the ideal run's five pulses, then one RECOMBINE for the batch of both branches
        from hardyions import protocol

        applied = []
        apply = protocol.apply_unitary
        monkeypatch.setattr(protocol, "apply_unitary", lambda state, op: applied.append(op.label) or apply(state, op))
        run_strong_comparison()
        assert applied == [op.label for op in (*IDEAL.sequence, *RECOMBINE)]

    @pytest.mark.parametrize("run", [run_ideal, run_strong_comparison])
    def test_warm_report_runs_nothing(self, monkeypatch, cold_reports, run):
        from hardyions import protocol

        run()
        built, applied = [], []
        post_init = SystemState.__post_init__
        monkeypatch.setattr(
            SystemState, "__post_init__", lambda state: built.append(1) or post_init(state)
        )
        apply = protocol.apply_unitary
        monkeypatch.setattr(protocol, "apply_unitary", lambda *args: applied.append(1) or apply(*args))
        run()
        assert built == [] and applied == []

    def test_import_evaluates_neither_report(self):
        # in a fresh interpreter: the reports are evaluated on first use, not at import
        from hardyions import protocol

        code = (
            "from hardyions import protocol; "
            "print(protocol._ideal.cache_info().currsize, protocol._strong_comparison.cache_info().currsize)"
        )
        src = str(Path(protocol.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={"PYTHONPATH": src}
        )
        assert done.stdout.split() == ["0", "0"]

    @pytest.mark.parametrize(
        "experiment",
        [
            IDEAL,
            weak_gaussian_experiment(0.7),
            Experiment(GaussianMeter(1.3), (light_shift_meter(0.7),)),  # a meter that is not the unit one
            Experiment(GaussianMeter(2.0), (light_shift_meter(0.7),)),
            third_ion_experiment(0.4),
        ],
        ids=["NoMeter", "Gaussian1", "Gaussian1.3", "Gaussian2", "QubitMeter"],
    )
    def test_memoized_prefix_is_a_fresh_evolve(self, experiment):
        intermediate_state.cache_clear()
        meter = experiment.meter
        fresh = evolve(init_ground(meter), PREPARE)
        memo = intermediate_state(meter)
        assert memo is intermediate_state(meter)
        assert memo.meter == fresh.meter == meter
        assert memo.amplitudes.tobytes() == fresh.amplitudes.tobytes()
        assert not memo.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            memo.amplitudes[0, 0] = 1.0
        # a run resumes from the memo and ends bit for bit where the whole sequence does
        final = experiment.final_state()
        whole = evolve(init_ground(meter), experiment.sequence)
        assert final.meter == whole.meter
        assert final.amplitudes.tobytes() == whole.amplitudes.tobytes()

    def test_memo_keeps_one_entry_per_meter(self):
        intermediate_state.cache_clear()
        states = [intermediate_state(GaussianMeter(sigma)) for sigma in (1.0, 1.3, 2.0)]
        assert [state.meter.sigma for state in states] == [1.0, 1.3, 2.0]
        assert len({id(state) for state in states}) == 3
        assert intermediate_state(NoMeter()) is not intermediate_state(QubitMeter())
        # equal meters share an entry: an integer width is the same length as its float
        assert intermediate_state(GaussianMeter(2)) is states[2]
        assert type(states[2].meter.sigma) is float

    def test_experiment_is_a_meter_and_its_coupling(self):
        assert [(f.name, f.default, f.default_factory) for f in fields(Experiment)] == [
            ("meter", MISSING, MISSING),
            ("coupling", MISSING, MISSING),
        ]
        assert IDEAL.coupling == ()
        weak = weak_gaussian_experiment(0.1)
        assert weak.sequence == (*PREPARE, *weak.coupling, *RECOMBINE)
        # the intermediate state has no default meter
        with pytest.raises(TypeError):
            intermediate_state()

    def test_weak_values_run_through_the_engine(self, monkeypatch):
        # warm, the ideal run's two recombining pulses give the denominator, and the four
        # projected intermediate states pass through the same two pulses as one batch
        from hardyions import protocol

        intermediate_state(NoMeter())
        calls = []
        apply = protocol.apply_unitary
        monkeypatch.setattr(
            protocol, "apply_unitary", lambda state, op: calls.append(op.label) or apply(state, op)
        )
        values = protocol._evolved_weak_values()
        assert calls == [op.label for op in RECOMBINE] * 2
        stored = weak_values_postselected()
        assert list(values) == list(stored) == ["gg", "ge", "eg", "ff"]
        assert np.array(list(values.values())).tobytes() == np.array(list(stored.values())).tobytes()
        # the signs of the zeros are those the CLI prints
        signs = [(math.copysign(1.0, v.real), math.copysign(1.0, v.imag)) for v in stored.values()]
        assert signs == [(-1.0, -1.0), (1.0, -1.0), (1.0, -1.0), (-1.0, -1.0)]

    def test_run_postselects_gg(self):
        final, probability, pointer = weak_gaussian_experiment(0.3).run()
        report = run_weak_gaussian(0.3)
        assert probability == report.postselection_probability
        assert pointer.branches == report.conditional_pointer.branches
        assert probability == pytest.approx(internal_probabilities(final)["gg"], rel=1e-14)


class TestIdealSequence:
    def test_outcome_probabilities(self):
        table = run_ideal().probabilities
        expected = {"gg": 1 / 16, "ge": 1 / 16, "eg": 1 / 16, "ee": 9 / 16, "ff": 4 / 16}
        for label in BASIS_LABELS:
            assert table[label] == pytest.approx(expected.get(label, 0.0), abs=1e-12)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_signs(self):
        amps = run_ideal().state.amplitudes[:, 0]
        assert amps[BASIS_LABELS.index("gg")] == pytest.approx(-0.25, abs=1e-12)
        assert amps[BASIS_LABELS.index("ee")] == pytest.approx(0.75, abs=1e-12)
        assert amps[BASIS_LABELS.index("ff")] == pytest.approx(0.5, abs=1e-12)


class TestWeakValues:
    def test_table(self):
        values = weak_values_postselected()
        assert values["gg"] == pytest.approx(-1.0, abs=1e-12)
        assert values["ge"] == pytest.approx(1.0, abs=1e-12)
        assert values["eg"] == pytest.approx(1.0, abs=1e-12)
        assert values["ff"] == 0.0

    def test_completeness(self):
        assert sum(weak_values_postselected().values()) == pytest.approx(1.0, abs=1e-12)

    def test_each_call_returns_a_copy(self):
        values = weak_values_postselected()
        values["gg"] = 7.0
        assert weak_values_postselected()["gg"] == pytest.approx(-1.0, abs=1e-12)

    def test_pointer_shift_linked_to_weak_value(self):
        # pointer mean = -a * Re(weak value of the gg projector) + O((a/sigma)^2)
        wv_gg = weak_values_postselected()["gg"].real
        ratios = []
        for aos in (0.0125, 0.025, 0.05):
            mean = run_weak_gaussian(aos).pointer_mean
            ratios.append(abs(mean - (-aos) * wv_gg) / aos)
        slope = np.polyfit(np.log([0.0125, 0.025, 0.05]), np.log(ratios), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestWeakGaussian:
    def test_small_displacement_moves_pointer_forward(self):
        a = 0.01
        report = run_weak_gaussian(a)
        assert abs(report.pointer_mean - a) <= 1e-4 * a

    def test_mean_vanishes_at_threshold(self):
        report = run_weak_gaussian(SIGN_CHANGE)
        assert abs(report.pointer_mean) < 1e-12

    def test_large_displacement_limit(self):
        a = 20.0
        report = run_weak_gaussian(a)
        assert report.pointer_mean == pytest.approx(-a / 5.0, rel=1e-9)

    def test_conditional_pointer_shape(self):
        a = 0.3
        pointer = run_weak_gaussian(a).conditional_pointer
        by_center = {d: c for c, d in pointer.branches}
        assert set(by_center) == {0.0, -a}
        assert by_center[0.0] / by_center[-a] == pytest.approx(-2.0, abs=1e-14)

    @pytest.mark.parametrize("aos", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_mean_matches_closed_form(self, aos):
        report = run_weak_gaussian(aos)
        assert report.pointer_mean == pytest.approx(report.closed_form_mean, rel=1e-12)

    def test_postselection_probability_limit(self):
        # the ideal 1/16 is recovered as the coupling is switched off
        report = run_weak_gaussian(1e-4)
        assert abs(report.postselection_probability - 1.0 / 16.0) < 1e-9

    def test_variance_matches_grid(self):
        report = run_weak_gaussian(0.8)
        _, grid_var = grid_moments(to_grid(report.conditional_pointer))
        assert report.pointer_variance == pytest.approx(grid_var, rel=1e-6)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant != 63, reason="a subnormal center's half is exact only in the x87 longdouble"
    )
    def test_subnormal_light_shift_mean_is_the_closed_form(self):
        # g = 1 below the smallest normal double, so the closed form is +a exactly; halving the
        # centers in double precision rounded -a / 2 (to -0.0 at a = 5e-324)
        shifts = [5e-324, 1e-323, 5.4e-323, 1.04e-322, 1e-320, 2.2250738585072014e-308]
        for a in shifts:
            report = run_weak_gaussian(a)
            assert report.pointer_mean == report.closed_form_mean == a
        batch = run_weak_gaussian(np.array(shifts))
        assert batch.pointer_mean == batch.closed_form_mean == shifts

    def test_midpoint_beyond_half_the_double_range_rejected(self):
        # branch centers 0 and -1.7e308: their sum overflows a double, their halves do not,
        # so the run fails on the overflowing moments, with no RuntimeWarning on the way
        with pytest.raises(ValueError, match="overflow a double"):
            run_weak_gaussian(1.7e308)

    def test_overflow_in_double_precision_rejected_without_warnings(self, double_precision):
        # where longdouble is a double, d * d and mid * mid overflow at a = 1e200: the overlap
        # exp(-inf) = 0 is exact, and the moment check reports the overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert gauss_kernel(1e200, 1.0) == 0.0
            with pytest.raises(ValueError, match="overflow a double"):
                run_weak_gaussian(1e200)
            with pytest.raises(ValueError, match="overflow a double"):
                prepare_experiment(RunConfig(a=1e200))

    def test_tiny_sigma_in_double_precision_without_warnings(self, double_precision):
        # where longdouble is a double, 8 sigma^2 underflows to 0 at sigma = 1e-170; the kernel
        # scales delta and sigma by one power of two first, so the closed form stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_weak_gaussian(0.05, 1e-170)
        assert math.isfinite(report.closed_form_mean)
        assert report.closed_form_mean == pytest.approx(run_weak_gaussian(0.05).closed_form_mean * 1e-170, rel=1e-14)

    def test_negative_displacement_rejected(self):
        with pytest.raises(ValueError):
            run_weak_gaussian(-0.1)

    def test_conditional_pointer_is_a_view_on_the_final_meter(self):
        final, _, pointer = weak_gaussian_experiment(1.7).run()
        assert pointer.meter is final.meter
        assert run_weak_gaussian(1.7).conditional_pointer.meter.points.tolist() == [0.0, -1.7]

    def test_invariants_computed_once(self, monkeypatch):
        # cold (the prefix's state and the one unit meter's kernel dropped): every pulse of the
        # sequence is norm-checked, the prefix's one-center meter builds its kernel and the
        # coupled meter builds its own; warm, for any a at the same sigma: only
        # the pulses after the prefix run, and the coupled meter's kernel serves the norms, the
        # outcome table and the moments; the weak values cost nothing
        from hardyions import meter, protocol

        counts = {"kernel": 0, "apply": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(meter, "gram_matrix", counted(meter.gram_matrix, "kernel"))
        monkeypatch.setattr(meter, "cross_gram", counted(meter.cross_gram, "kernel"))
        monkeypatch.setattr(protocol, "apply_unitary", counted(protocol.apply_unitary, "apply"))
        assert len(weak_gaussian_experiment(1.7).sequence) == 6
        intermediate_state.cache_clear()
        vars(weak_gaussian_experiment(1.7).meter).pop("gram", None)
        run_weak_gaussian(1.7)
        assert counts == {"kernel": 2, "apply": 6}
        counts.update(kernel=0, apply=0)
        run_weak_gaussian(0.9)
        assert counts == {"kernel": 1, "apply": 3}

    def test_one_engine_run_per_batch(self, monkeypatch, capsys):
        # warm, 200 displacements cost the engine what one does: one kernel build (a stack of 200
        # kernels) and the three pulses after the prefix; scan --steps 200 makes one such call
        from hardyions import cli, meter, protocol

        counts = {"kernel": 0, "apply": 0, "run": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(meter, "gram_matrix", counted(meter.gram_matrix, "kernel"))
        monkeypatch.setattr(meter, "cross_gram", counted(meter.cross_gram, "kernel"))
        monkeypatch.setattr(protocol, "apply_unitary", counted(protocol.apply_unitary, "apply"))
        monkeypatch.setattr(cli, "run_weak_gaussian", counted(cli.run_weak_gaussian, "run"))
        run_weak_gaussian(0.9)
        counts.update(kernel=0, apply=0)
        report = run_weak_gaussian(np.linspace(0.01, 5.0, 200))
        assert counts == {"kernel": 1, "apply": 3, "run": 0}
        assert len(report.pointer_mean) == 200
        assert report.conditional_pointer.meter.gram.shape == (200, 2, 2)
        assert cli.main(["scan", "--steps", "200"]) == 0
        assert counts["run"] == 1
        assert len(capsys.readouterr().out.splitlines()) == 201

    def test_row_forms_per_warm_run(self, monkeypatch):
        # warm, the three norm checks read the branch overlaps and post-selection forms the |gg>
        # row alone, on a batch of 200 displacements and on one
        rows = []
        row_norms_sq = GaussianMeter.row_norms_sq

        def counted(meter, amplitudes):
            rows.append(amplitudes.shape[-2])
            return row_norms_sq(meter, amplitudes)

        monkeypatch.setattr(GaussianMeter, "row_norms_sq", counted)
        for a, expected in ((np.linspace(0.01, 5.0, 200), [1]), (0.9, [1])):
            run_weak_gaussian(a)
            rows.clear()
            run_weak_gaussian(a)
            assert rows == expected


class TestUnitsOfSigma:
    """The weak Gaussian experiment runs on the unit meter; sigma enters where a length is reported."""

    def test_every_sigma_evolves_one_meter(self):
        intermediate_state.cache_clear()
        assert weak_gaussian_experiment(0.5).meter == GaussianMeter(1.0)
        for sigma in (5e-324, 1e-170, 0.37, 1.0, 3.1, 1e100):
            assert run_weak_gaussian(0.5, sigma).conditional_pointer.meter.points.tolist() == [0.0, -0.5]
        prepare_experiment(RunConfig(a=0.5, sigma=0.37))
        assert intermediate_state.cache_info().currsize == 1

    def test_one_meter_object(self):
        # the unit meter is built once, so no weak run builds or hashes a meter of its own
        assert weak_gaussian_experiment(0.5).meter is weak_gaussian_experiment(2.0).meter
        assert weak_gaussian_experiment(np.array([0.1, 3.0])).meter is weak_gaussian_experiment(0.5).meter

    def test_prefix_cache_does_not_grow_with_a(self):
        run_weak_gaussian(0.5)
        size = intermediate_state.cache_info().currsize
        for a in np.linspace(0.01, 5.0, 50).tolist():
            run_weak_gaussian(a)
        assert intermediate_state.cache_info().currsize == size

    def test_overflowing_a_times_sigma_rejected_without_a_warning(self):
        # the reported moments overflow before the closed form's length a sigma is formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow a double"):
                run_weak_gaussian(1e300, 1e10)

    @pytest.mark.parametrize("ratio", [-0.1, math.inf, math.nan, [0.5, -1.0]])
    def test_invalid_ratio_rejected(self, ratio):
        # one message for every entry that takes a
        for call in (lambda: run_weak_gaussian(ratio, 2.0), lambda: RunConfig(a=ratio, sigma=2.0)):
            with pytest.raises(ValueError, match="^a must be a non-negative finite number of sigmas, got "):
                call()

    def test_conditional_pointer_is_in_units_of_sigma(self):
        pointer = run_weak_gaussian(0.85, 2.0).conditional_pointer
        assert (pointer.sigma, pointer.meter.points.tolist()) == (1.0, [0.0, -0.85])

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_one_sigma_rule(self, sigma):
        for call in (GaussianMeter, lambda s: RunConfig(sigma=s), lambda s: closed_form_mean(0.5, s),
                     lambda s: run_weak_gaussian(0.5, s)):
            with pytest.raises(ValueError, match="^sigma must be a positive finite length, got "):
                call(sigma)


class TestClosedForm:
    def test_zero_displacement(self):
        assert closed_form_mean(0.0) == 0.0

    def test_threshold(self):
        assert abs(closed_form_mean(SIGN_CHANGE)) < 1e-15

    def test_scaling_with_sigma(self):
        assert closed_form_mean(0.2, 2.0) == pytest.approx(
            2.0 * closed_form_mean(0.1, 1.0), rel=1e-14
        )

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            closed_form_mean(0.1, 0.0)

    def test_infinite_sigma_rejected(self):
        # an infinite sigma gave g = 1 and the mean +a
        with pytest.raises(ValueError, match="sigma must be a positive finite length"):
            closed_form_mean(1.0, math.inf)

    def test_list_of_a_reads_as_an_array(self):
        shifts = [0.1, 0.2, SIGN_CHANGE, 3.0]
        assert closed_form_mean(shifts, 1.3) == closed_form_mean(np.array(shifts), 1.3)
        assert closed_form_mean(shifts) == [closed_form_mean(a) for a in shifts]


class TestWeakLimit:
    def test_zero_displacement_is_exact(self):
        assert weak_limit_check(0.0) == 0.0

    def test_small_displacement_is_small(self):
        assert weak_limit_check(0.01) < 1e-3

    def test_quadratic_scaling(self):
        ratio = weak_limit_check(0.1) / weak_limit_check(0.05)
        assert abs(ratio - 4.0) <= 0.8

    def test_against_grid_oracle(self):
        # sample both wavefunctions and integrate the squared difference
        a = 0.05
        pointer = run_weak_gaussian(a).conditional_pointer  # already normalized
        xs = np.linspace(-10.0, 10.0, 8192)
        conditional = evaluate_gaussian(pointer, xs)
        target = evaluate_gaussian(GaussianPointer(1.0, ((-1.0, a),)), xs)
        deviation = math.sqrt(np.trapezoid(np.abs(conditional - target) ** 2, xs))
        assert weak_limit_check(a) == pytest.approx(deviation, abs=1e-9)


class TestThirdIon:
    def test_zero_angle(self):
        report = run_third_ion(0.0)
        assert report.excited_population == pytest.approx(0.5, abs=1e-14)
        assert report.relative_deviation is None

    @pytest.mark.parametrize("theta", [0.01, 0.1, 0.5, 1.0])
    def test_matches_closed_form(self, theta):
        report = run_third_ion(theta)
        assert report.excited_population == pytest.approx(
            third_ion_excited_population(theta), abs=1e-12
        )

    def test_population_decreases_by_reference_shift(self):
        # the decrease (1/2 - P_e) equals sin(theta)/2 up to a relative O(theta^2) remainder
        small, large = run_third_ion(0.01), run_third_ion(0.02)
        assert small.deviation < small.reference_shift * 1e-3
        assert large.relative_deviation / small.relative_deviation == pytest.approx(
            4.0, rel=0.05
        )

    def test_postselection_probability_at_zero_coupling(self):
        assert run_third_ion(0.0).postselection_probability == pytest.approx(
            1.0 / 16.0, abs=1e-12
        )

    def test_out_of_range_angle_rejected(self):
        with pytest.raises(ValueError):
            run_third_ion(math.pi)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(ValueError):
            run_third_ion(theta)


class TestStrongComparison:
    def test_undisturbed_matches_ideal(self):
        report = run_strong_comparison()
        assert report.undisturbed["gg"] == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_tables_differ_but_stay_normalized(self):
        report = run_strong_comparison()
        assert sum(report.undisturbed.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(report.disturbed.values()) == pytest.approx(1.0, abs=1e-12)
        assert abs(report.disturbed["gg"] - report.undisturbed["gg"]) > 0.1

    def test_disturbed_probability_from_branches(self):
        # independent two-branch computation with bare state operations
        psi = intermediate_state(NoMeter())
        gg_proj = np.diag([1.0 + 0j if label == "gg" else 0j for label in BASIS_LABELS])
        rest = np.eye(9, dtype=complex) - gg_proj
        total = 0.0
        for proj in (gg_proj, rest):
            branch = SystemState(proj @ psi.amplitudes, psi.meter)
            prob = branch.norm_sq
            collapsed = branch.normalized()
            for op in (beamsplitter(1), beamsplitter(2)):
                collapsed = apply_unitary(collapsed, op)
            total += prob * internal_probabilities(collapsed)["gg"]
        report = run_strong_comparison()
        assert report.disturbed["gg"] == pytest.approx(total, abs=1e-12)
        assert report.disturbed["gg"] == pytest.approx(5.0 / 16.0, abs=1e-12)

    def test_branch_probabilities(self):
        report = run_strong_comparison()
        table = {b.label: b.probability for b in report.branches}
        assert table["gg"] == pytest.approx(0.25, abs=1e-12)
        assert table["rest"] == pytest.approx(0.75, abs=1e-12)

    def test_branch_tables_are_normalized(self):
        for branch in run_strong_comparison().branches:
            assert abs(sum(branch.probabilities.values()) - 1.0) < 1e-12

    def test_measurement_disturbs_every_branch(self):
        report = run_strong_comparison()
        for branch in report.branches:
            assert max(abs(branch.probabilities[k] - report.undisturbed[k]) for k in BASIS_LABELS) > 1e-3

    def test_disturbed_is_the_weighted_sum_of_branches(self):
        report = run_strong_comparison()
        expected = dict.fromkeys(BASIS_LABELS, 0.0)
        for branch in report.branches:  # in branch order, so bit for bit
            for label, value in branch.probabilities.items():
                expected[label] += branch.probability * value
        assert report.disturbed == expected


class TestConfigAndReports:
    def test_run_config_defaults(self):
        config = RunConfig()
        assert config.a == 0.05
        assert config.shots == 100_000
        assert config.seed == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"a": -0.1},
            {"shots": -5},
            {"sigma": math.inf},
            {"a": math.inf},
            {"shots": 0},
            {"seed": -1},
            {"sigma": 1.49e-154},
            {"sigma": 5e-324},
            {"shots": 1e4},
            {"shots": 10.0},
            {"shots": np.float64(100.0)},
            {"seed": 1.5},
            {"seed": 1.0},
            {"seed": "1"},
        ],
    )
    def test_run_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_run_config_takes_numpy_integers_as_ints(self):
        config = RunConfig(shots=np.int64(1000), seed=np.uint32(4))
        assert (type(config.shots), type(config.seed)) == (int, int)
        result = run_experiment_mc(config)
        assert json.dumps(result.to_json_dict()) == json.dumps(run_experiment_mc(RunConfig(shots=1000, seed=4)).to_json_dict())

    def test_run_config_accepts_a_sigma_whose_square_is_normal(self):
        assert 1.5e-154 * 1.5e-154 > sys.float_info.min > 1.49e-154 * 1.49e-154
        assert RunConfig(sigma=1.5e-154).sigma == 1.5e-154

    def test_weak_value_report_invariant(self):
        with pytest.raises(InvariantError, match="sum to 1"):
            WeakValueReport(
                postselection_probability=0.1,
                weak_values={"gg": 0.5 + 0j},
                pointer_mean=0.0,
                closed_form_mean=0.0,
                pointer_variance=1.0,
            )

    @pytest.mark.parametrize(
        "probability, shown",
        [(0.0, "0.0"), (1.5, "1.5"), (math.nan, "nan"), ([0.5, 1.0, -0.0, 0.25], "-0.0 (1 of 4 values)")],
        ids=["zero", "above-one", "nan", "batch"],
    )
    def test_weak_value_report_probability_range(self, probability, shown):
        # P(gg) lies in (0, 1], for one report and at every point of a batch
        fields = dict(weak_values=weak_values_postselected(), pointer_mean=0.0, closed_form_mean=0.0, pointer_variance=1.0)
        with pytest.raises(InvariantError, match=rf"^post-selection probability out of \(0, 1\]: {re.escape(shown)}$"):
            WeakValueReport(postselection_probability=probability, **fields)
        for good in (1.0, 5e-324, [1.0, 5e-324, 0.0625]):
            assert WeakValueReport(postselection_probability=good, **fields).postselection_probability == good

    def test_batch_error_messages_name_the_count_and_the_first_bad_value(self):
        # not the whole batch: a 100000-point one listed in full ran to about 2 MB of message
        values = np.full(100_000, 0.5)
        values[[7, 99_000]] = math.nan
        fields = dict(weak_values=weak_values_postselected(), pointer_mean=0.0, closed_form_mean=0.0, pointer_variance=1.0)
        expected = [
            (lambda: WeakValueReport(postselection_probability=values.tolist(), **fields), InvariantError,
             "post-selection probability out of (0, 1]: nan (2 of 100000 values)"),
            (lambda: light_shift_meter(values), ValueError, "displacement must be finite, got nan (2 of 100000 values)"),
            (lambda: light_shift_meter(-math.inf), ValueError, "displacement must be finite, got -inf"),
            (lambda: run_weak_gaussian(values), ValueError, "a must be a non-negative finite number of sigmas, got nan"),
        ]
        for call, error, message in expected:
            with pytest.raises(error) as caught:
                call()
            assert str(caught.value) == message and len(message) < 200

    def test_report_json_fields(self):
        report = run_weak_gaussian(0.1)
        data = report.to_json_dict()
        assert set(data) == {
            "postselection_probability",
            "weak_values",
            "pointer_mean",
            "closed_form_mean",
            "pointer_variance",
        }
        assert data["weak_values"]["gg"] == [pytest.approx(-1.0, abs=1e-12), pytest.approx(0.0, abs=1e-12)]

    def test_final_state_has_two_branches(self):
        state = weak_gaussian_experiment(0.2).final_state()
        assert state.meter.points.tolist() == [0.0, -0.2]
        assert abs(state.norm - 1.0) < 1e-12


class TestReportsEvaluatedOnce:
    """run_ideal and run_strong_comparison share one evaluation; each call hands out fresh tables."""

    def test_ideal_tables_are_fresh_copies(self):
        first = run_ideal()
        expected = dict(first.probabilities)
        first.probabilities["gg"] = 2.0
        first.to_json_dict()["probabilities"]["ge"] = 2.0
        second = run_ideal()
        assert second.probabilities == expected
        assert second.to_json_dict()["probabilities"] == expected
        assert second.state is first.state  # immutable, so shared

    def test_strong_tables_are_fresh_copies(self):
        expected = json.dumps(run_strong_comparison().to_json_dict())
        report = run_strong_comparison()
        report.undisturbed["gg"] = 2.0
        report.disturbed["gg"] = 2.0
        report.branches[0].probabilities["gg"] = 2.0
        payload = run_strong_comparison().to_json_dict()
        payload["undisturbed"]["ge"] = 2.0
        payload["branches"][1]["probabilities"]["ge"] = 2.0
        assert json.dumps(run_strong_comparison().to_json_dict()) == expected
        assert run_ideal().probabilities == run_strong_comparison().undisturbed

    @pytest.mark.parametrize(
        "report",
        [
            run_strong_comparison,
            lambda: run_third_ion(0.1),
            lambda: run_third_ion(0.0),  # relative_deviation is None
            lambda: run_experiment_mc(RunConfig(a=0.05, shots=1_000, seed=4)),
            lambda: run_experiment_mc(RunConfig(shots=1, seed=0)),  # nothing accepted: None fields
        ],
        ids=["strong", "third-ion", "third-ion-0", "mc", "mc-none-accepted"],
    )
    def test_json_dict_serialises_as_asdict(self, report):
        report = report()
        assert json.dumps(report.to_json_dict(), indent=2) == json.dumps(asdict(report), indent=2)

import math

import numpy as np
import pytest

from hardyions import shots
from hardyions.meter import GaussianPointer
from hardyions.protocol import (
    RunConfig,
    closed_form_mean,
    run_weak_gaussian,
    weak_gaussian_experiment,
)
from hardyions.shots import (
    BATCH_SIZE,
    SAMPLING_GRID_POINTS,
    BatchTotals,
    batch_plan,
    draw_batch,
    merge_shot_totals,
    prepare_experiment,
    run_experiment_mc,
    sample_pointer,
    shots_required,
)
from hardyions.statecore import BASIS_LABELS, GG_INDEX, internal_probabilities


def collect_batches(config):
    """The ShotResult of a run and the (first_shot, accepted, samples) of each of its batches."""
    batches = []
    result = run_experiment_mc(config, on_batch=lambda *batch: batches.append(batch))
    return result, batches


def choice_reference_draw(config, batch_index, size):
    """The reference stream of one batch: each shot's nine-way outcome from Generator.choice,
    then plain np.interp of one uniform per accepted shot."""
    table = internal_probabilities(weak_gaussian_experiment(config.a, config.sigma).run()[0])
    probabilities = np.array([table[label] for label in BASIS_LABELS])
    probabilities /= probabilities.sum()
    prepared = prepare_experiment(config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch_index)))
    outcomes = rng.choice(len(BASIS_LABELS), size=size, p=probabilities)
    accepted = int(np.count_nonzero(outcomes == GG_INDEX))
    return outcomes, np.interp(rng.random(accepted), prepared.cdf, prepared.xs)


def ground_pointer(sigma=1.0):
    return GaussianPointer(sigma, ((1.0, 0.0),))


class TestSamplePointer:
    def test_deterministic_per_seed(self):
        pointer = run_weak_gaussian(0.1).conditional_pointer
        first = sample_pointer(pointer, 1000, seed=42)
        second = sample_pointer(pointer, 1000, seed=42)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, sample_pointer(pointer, 1000, seed=43))

    def test_ground_state_mean(self):
        n = 100_000
        samples = sample_pointer(ground_pointer(), n, seed=5)
        assert abs(samples.mean()) <= 4.0 / math.sqrt(n)
        assert samples.std(ddof=1) == pytest.approx(1.0, rel=0.02)

    def test_conditional_state_mean_matches_closed_form(self):
        a = 0.1
        n = 1_000_000
        pointer = run_weak_gaussian(a).conditional_pointer
        samples = sample_pointer(pointer, n, seed=9)
        std_error = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - closed_form_mean(a)) <= 5.0 * std_error

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            sample_pointer(ground_pointer(), 0, seed=1)

    def test_degenerate_state_rejected(self):
        degenerate = GaussianPointer(1.0, ((1e-9, 0.0),))
        with pytest.raises(ValueError, match="degenerate"):
            sample_pointer(degenerate, 10, seed=1)

    def test_standard_error_scaling(self):
        # the estimator converges at the 1/sqrt(n) rate
        pointer = run_weak_gaussian(0.1).conditional_pointer
        ns = [1_000, 10_000, 100_000, 1_000_000]
        errors = []
        for i, n in enumerate(ns):
            samples = sample_pointer(pointer, n, seed=100 + i)
            errors.append(samples.std(ddof=1) / math.sqrt(n))
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)


class TestRunExperiment:
    def test_acceptance_fraction(self):
        config = RunConfig(a=0.05, shots=100_000, seed=3)
        result = run_experiment_mc(config)
        p = run_weak_gaussian(config.a).postselection_probability
        binomial_sigma = math.sqrt(p * (1.0 - p) / config.shots)
        assert abs(result.accepted / result.total - p) <= 5.0 * binomial_sigma

    def test_deterministic(self):
        config = RunConfig(a=0.05, shots=20_000, seed=7)
        assert run_experiment_mc(config) == run_experiment_mc(config)

    def test_mean_consistent_with_closed_form(self):
        config = RunConfig(a=0.05, shots=200_000, seed=1)
        result = run_experiment_mc(config)
        assert result.std_error_reliable
        assert abs(result.sample_mean - closed_form_mean(config.a)) <= 5.0 * result.std_error

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            run_experiment_mc(RunConfig(shots=0))

    def test_zero_accepted_is_flagged(self):
        # with one shot and ~94% rejection, some small seed must reject
        result = None
        for seed in range(20):
            candidate = run_experiment_mc(RunConfig(a=0.05, shots=1, seed=seed))
            if candidate.accepted == 0:
                result = candidate
                break
        assert result is not None
        assert result.sample_mean is None
        assert result.std_error is None
        assert not result.std_error_reliable

    def test_on_batch_aligns_with_result(self, monkeypatch):
        monkeypatch.setattr(shots, "BATCH_SIZE", 1_234)
        config = RunConfig(a=0.1, shots=5_000, seed=11)
        result, batches = collect_batches(config)
        firsts = [first for first, _, _ in batches]
        sizes = [len(accepted) for _, accepted, _ in batches]
        assert firsts == [sum(sizes[:i]) for i in range(len(sizes))]
        assert sum(sizes) == config.shots
        assert len(batches) == 5
        accepted = np.concatenate([accepted for _, accepted, _ in batches])
        samples = np.concatenate([samples for _, _, samples in batches])
        assert accepted.dtype == bool
        assert len(samples) == result.accepted == int(np.count_nonzero(accepted))
        assert result.sample_mean == pytest.approx(samples.mean(), rel=1e-12)
        assert result == run_experiment_mc(config)


class TestStreamPinning:
    @pytest.mark.parametrize("a", [0.05, 0.3, 3.0])
    def test_draw_batch_matches_choice_reference(self, a):
        accepted_counts = []
        for seed in (0, 1, 7):
            config = RunConfig(a=a, shots=4 * BATCH_SIZE, seed=seed)
            prepared = prepare_experiment(config)
            # full batches, the final partial batch of a run, and a small batch
            for batch_index, size in [(0, BATCH_SIZE), (2, BATCH_SIZE), (3, 12_345), (5, 2_000)]:
                accepted, samples = draw_batch(prepared, batch_index, size)
                outcomes, expected = choice_reference_draw(config, batch_index, size)
                assert accepted.dtype == bool
                np.testing.assert_array_equal(accepted, outcomes == GG_INDEX)
                assert samples.tobytes() == expected.tobytes()
                accepted_counts.append(len(samples))
        # np.interp precomputes its slopes only for at least as many keys as grid points
        assert min(accepted_counts) < SAMPLING_GRID_POINTS <= max(accepted_counts)

    def test_sample_pointer_matches_plain_interp(self):
        pointer = run_weak_gaussian(0.3).conditional_pointer
        cdf, xs = shots._inverse_cdf_table(pointer)
        for n in (1, 100, SAMPLING_GRID_POINTS, 50_000):
            expected = np.interp(np.random.default_rng(8).random(n), cdf, xs)
            assert sample_pointer(pointer, n, seed=8).tobytes() == expected.tobytes()


class TestBatching:
    def test_batch_plan_covers_shots(self):
        assert batch_plan(5) == [5]
        assert sum(batch_plan(1_000_000)) == 1_000_000
        assert batch_plan(1 << 17) == [1 << 17]

    def test_merged_batches_equal_full_run(self):
        config = RunConfig(a=0.05, shots=300_000, seed=2)
        prepared = prepare_experiment(config)
        totals = []
        for index, size in enumerate(batch_plan(config.shots)):
            _, samples = draw_batch(prepared, index, size)
            totals.append(
                BatchTotals(len(samples), size, float(np.sum(samples)), float(np.sum(samples * samples)))
            )
        merged = merge_shot_totals(totals, config.seed)
        assert merged == run_experiment_mc(config)

    def test_merged_variance_matches_direct_estimate(self):
        config = RunConfig(a=0.1, shots=50_000, seed=6)
        result, batches = collect_batches(config)
        samples = np.concatenate([samples for _, _, samples in batches])
        direct = samples.std(ddof=1) / math.sqrt(len(samples))
        assert result.std_error == pytest.approx(direct, rel=1e-12)

    def test_prepare_evolves_the_experiment_once(self, monkeypatch):
        from hardyions import protocol

        calls = []
        apply = protocol.apply_unitary
        monkeypatch.setattr(
            protocol, "apply_unitary", lambda state, op: calls.append(op.label) or apply(state, op)
        )
        prepare_experiment(RunConfig(a=0.05))
        assert calls == [op.label for op in protocol.weak_gaussian_experiment(0.05).sequence]

    def test_merge_empty_batch(self):
        merged = merge_shot_totals([BatchTotals(0, 50, 0.0, 0.0)], seed=0)
        assert merged.accepted == 0
        assert merged.sample_mean is None


class TestShotsRequired:
    def test_pinned_value(self):
        # frozen from the first evaluation of the defining formula
        assert shots_required(0.1, 1.0, 3.0) == 14409

    def test_monotone_in_displacement(self):
        values = [shots_required(aos, 1.0, 3.0) for aos in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert values == sorted(values, reverse=True)

    def test_scale_invariance(self):
        assert shots_required(0.1, 1.0, 3.0) == shots_required(0.05, 0.5, 3.0)

    def test_threshold_is_unresolvable(self):
        with pytest.raises(ValueError, match="unresolvable"):
            shots_required(math.sqrt(8.0 * math.log(2.0)), 1.0, 3.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            shots_required(0.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            shots_required(0.1, 1.0, 0.0)

    def test_json_round_trip(self):
        result = run_experiment_mc(RunConfig(a=0.05, shots=1_000, seed=4))
        data = result.to_json_dict()
        assert data["accepted"] == result.accepted
        assert data["seed"] == 4
        assert set(data) == {
            "accepted",
            "total",
            "sample_mean",
            "std_error",
            "seed",
            "std_error_reliable",
        }

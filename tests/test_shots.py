import math
from dataclasses import replace

import numpy as np
import pytest

from hardyions import shots
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


def pointer_samples(a, n, seed):
    """n pointer samples of the weak experiment at a: one batch of n shots, every shot accepted."""
    prepared = replace(prepare_experiment(RunConfig(a=a, seed=seed)), accept_below=1.0)
    accepted, samples = draw_batch(prepared, 0, n)
    assert accepted.all() and len(samples) == n
    return samples


class TestSamplePointer:
    def test_deterministic_per_seed(self):
        first = pointer_samples(0.1, 1000, seed=42)
        np.testing.assert_array_equal(first, pointer_samples(0.1, 1000, seed=42))
        assert not np.array_equal(first, pointer_samples(0.1, 1000, seed=43))

    def test_ground_state_mean(self):
        # at a = 0 the conditional pointer is the ground state: mean 0, variance sigma^2
        n = 100_000
        samples = pointer_samples(0.0, n, seed=5)
        assert abs(samples.mean()) <= 4.0 / math.sqrt(n)
        assert samples.var(ddof=1) == pytest.approx(run_weak_gaussian(0.0).pointer_variance, rel=0.04)

    def test_conditional_state_mean_matches_closed_form(self):
        a = 0.1
        n = 1_000_000
        samples = pointer_samples(a, n, seed=9)
        std_error = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - closed_form_mean(a)) <= 5.0 * std_error
        assert samples.var(ddof=1) == pytest.approx(run_weak_gaussian(a).pointer_variance, rel=0.01)

    def test_standard_error_scaling(self):
        # the estimator converges at the 1/sqrt(n) rate
        ns = [1_000, 10_000, 100_000, 1_000_000]
        errors = []
        for i, n in enumerate(ns):
            samples = pointer_samples(0.1, n, seed=100 + i)
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

    @pytest.mark.parametrize(
        "a, sigma, threshold",
        [
            (0.0005, 0.5, "0x1.000008637bc79p-4"),
            (0.05, 1.0, "0x1.0051e83e58b92p-4"),
            (0.52, 1.3, "0x1.1446cc8a42749p-4"),
            (1.0, 1.0, "0x1.7852bb624fbbdp-4"),
            (2.6, 1.3, "0x1.4974d039069f6p-3"),
            (2.35482, 1.0, "0x1.7fffff8e2401ap-3"),
            (2.3548200450309493, 1.0, "0x1.7ffffffffffffp-3"),
            (4.70964, 2.0, "0x1.7fffff8e2401ap-3"),
            (6.0, 2.0, "0x1.d9c726dc42a70p-3"),
            (5.0, 1.0, "0x1.34c08c93003dcp-2"),
        ],
    )
    def test_accept_below_pinned(self, a, sigma, threshold):
        # bit for bit: the golden per-shot CSV is too short to see a one-ulp change here
        assert prepare_experiment(RunConfig(a, sigma)).accept_below.hex() == threshold

    def test_sample_pointer_matches_plain_interp(self):
        cdf, xs = shots._inverse_cdf_table(run_weak_gaussian(0.3).conditional_pointer)
        for n in (1, 100, SAMPLING_GRID_POINTS, 50_000):
            expected = np.interp(np.random.default_rng(8).random(n), cdf, xs)
            assert shots._draw_pointer(np.random.default_rng(8), n, cdf, xs).tobytes() == expected.tobytes()


class TestBatching:
    def test_batch_plan_covers_shots(self):
        assert list(batch_plan(5)) == [5]
        assert sum(batch_plan(1_000_000)) == 1_000_000
        assert list(batch_plan(1 << 17)) == [1 << 17]
        assert list(batch_plan(2 * BATCH_SIZE + 3)) == [BATCH_SIZE, BATCH_SIZE, 3]

    def test_batch_plan_is_lazy(self):
        # a list of the sizes would take about 61 TB here
        plan = batch_plan(10**18)
        assert next(iter(plan)) == BATCH_SIZE
        assert len(plan) == 10**18 // BATCH_SIZE
        assert plan[-1] == BATCH_SIZE
        odd = batch_plan(10**18 + 7)
        assert (len(odd), odd[-2], odd[-1]) == (10**18 // BATCH_SIZE + 1, BATCH_SIZE, 7)

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

    def test_totals_are_merged_as_drawn(self, monkeypatch):
        # no list of batch totals: each total reaches the merge before the next batch is drawn
        monkeypatch.setattr(shots, "BATCH_SIZE", 1_000)
        drawn, seen = [], []
        draw, merge = shots.draw_batch, shots.merge_shot_totals
        monkeypatch.setattr(shots, "draw_batch", lambda *args: drawn.append(args[1]) or draw(*args))

        def merging(totals, seed):
            return merge((seen.append(len(drawn)) or t for t in totals), seed)

        monkeypatch.setattr(shots, "merge_shot_totals", merging)
        run_experiment_mc(RunConfig(a=0.1, shots=4_500, seed=3))
        assert drawn == [0, 1, 2, 3, 4]
        assert seen == [1, 2, 3, 4, 5]

    def test_merged_variance_matches_direct_estimate(self):
        config = RunConfig(a=0.1, shots=50_000, seed=6)
        result, batches = collect_batches(config)
        samples = np.concatenate([samples for _, _, samples in batches])
        direct = samples.std(ddof=1) / math.sqrt(len(samples))
        assert result.std_error == pytest.approx(direct, rel=1e-12)

    def test_prepare_evolves_the_experiment_once(self, monkeypatch):
        # cold, the whole sequence runs once; warm, only the pulses after the memoized prefix
        from hardyions import protocol

        calls = []
        apply = protocol.apply_unitary
        monkeypatch.setattr(
            protocol, "apply_unitary", lambda state, op: calls.append(op.label) or apply(state, op)
        )
        labels = [op.label for op in protocol.weak_gaussian_experiment(0.05).sequence]
        protocol.intermediate_state.cache_clear()
        prepare_experiment(RunConfig(a=0.05))
        assert calls == labels and len(labels) == 6
        calls.clear()
        prepare_experiment(RunConfig(a=0.05))
        assert calls == labels[3:]

    def test_merge_empty_batch(self):
        merged = merge_shot_totals([BatchTotals(0, 50, 0.0, 0.0)], seed=0)
        assert merged.accepted == 0
        assert merged.sample_mean is None


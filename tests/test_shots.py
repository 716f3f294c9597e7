import bisect
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hardyions import shots
from hardyions.protocol import RunConfig, closed_form_mean, run_weak_gaussian
from hardyions.shots import (
    BATCH_SIZE,
    BatchTotals,
    batch_plan,
    draw_batch,
    hit_offsets,
    merge_shot_totals,
    prepare_experiment,
    run_experiment_mc,
)


def collect_batches(config):
    """The ShotResult of a run and the (first_shot, size, hits, samples) of each of its batches."""
    batches = []
    result = run_experiment_mc(config, on_batch=lambda *batch: batches.append(batch))
    return result, batches


def reference_count_cdf(size, p):
    """The count table one weight at a time: 1 at the mode, times the pmf ratio per step, cut below 2**-53."""
    mode = min(math.floor((size + 1) * p), size)
    weights = {mode: 1.0}
    for k in range(mode, size):  # k -> k + 1
        w = weights[k] * ((size - k) / (k + 1) * (p / (1.0 - p)))
        if w < 2.0**-53:
            break
        weights[k + 1] = w
    for k in range(mode, 0, -1):  # k -> k - 1
        w = weights[k] * (k / (size - k + 1) * ((1.0 - p) / p))
        if w < 2.0**-53:
            break
        weights[k - 1] = w
    cdf = list(itertools.accumulate(weights[k] for k in sorted(weights)))
    return min(weights), [c / cdf[-1] for c in cdf]


def reference_offsets(rng, size, count):
    """Offsets drawn with replacement into a set, the shortfall each round, until it holds count of them;
    past half the batch, the complement of as many rejected offsets drawn so."""
    if 2 * count > size:
        return np.setdiff1d(np.arange(size), reference_offsets(rng, size, size - count))
    hits = set()
    while len(hits) < count:
        hits.update(rng.integers(0, size, count - len(hits)).tolist())
    return np.array(sorted(hits), dtype=np.intp)


def reference_pointer_sample(prepared, u):
    """One key through the alias table in plain Python floats: cell and frac, the piece, its linear map."""
    f = u * len(prepared.prob)
    cell = int(f)
    frac = f - cell
    half = 2 * cell + (frac >= float(prepared.prob[cell]))
    return float(prepared.offsets[half]) + frac * float(prepared.scales[half])


def reference_draw(config, batch_index, size):
    """The reference stream of one batch in plain Python: the accepted count by bisection of the
    count table, then one uniform per accepted shot through the alias table, then the offsets."""
    prepared = prepare_experiment(config)
    first, cdf = reference_count_cdf(size, prepared.accept_below)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch_index)))
    count = first + bisect.bisect_right(cdf, rng.random())
    samples = np.array([reference_pointer_sample(prepared, u) for u in rng.random(count).tolist()])
    return count, samples, reference_offsets(rng, size, count)


class CountingGenerator:
    """A generator that counts its integers calls: the rounds of hit_offsets."""

    def __init__(self, rng):
        self.rng, self.rounds = rng, 0

    def integers(self, *args, **kwargs):
        self.rounds += 1
        return self.rng.integers(*args, **kwargs)


def exact_tail(pmf, ks):
    """The exact mass of the counts ks, which lead away from the mode: summed until a term is below 1e-40."""
    total = mpmath.mpf(0)
    for k in ks:
        term = pmf(k)
        total += term
        if term < 1e-40:
            break
    return total


def pointer_samples(a, n, seed):
    """n pointer samples of the weak experiment at a: one batch of n shots, every shot accepted."""
    prepared = replace(prepare_experiment(RunConfig(a=a, seed=seed)), accept_below=1.0)
    _, samples = draw_batch(prepared, 0, n)
    assert len(samples) == n
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
        firsts = [first for first, _, _, _ in batches]
        sizes = [size for _, size, _, _ in batches]
        assert firsts == [sum(sizes[:i]) for i in range(len(sizes))]
        assert sum(sizes) == config.shots
        assert len(batches) == 5
        for _, size, hits, samples in batches:
            assert hits.dtype == np.intp
            assert np.all(np.diff(hits) > 0) and 0 <= hits[0] and hits[-1] < size
            assert len(hits) == len(samples)
        samples = np.concatenate([samples for *_, samples in batches])
        assert len(samples) == result.accepted == sum(len(hits) for _, _, hits, _ in batches)
        assert result.sample_mean == pytest.approx(samples.mean(), rel=1e-12)
        assert result == run_experiment_mc(config)

    def test_on_batch_runs_under_the_callers_error_state(self):
        # the run ignores overflow in its sums, but not in the caller's callback
        def overflowing(*batch):
            np.array([1e308]) * 10.0

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                run_experiment_mc(RunConfig(a=0.1, shots=1_000, seed=2), on_batch=overflowing)
            assert np.geterr()["over"] == "raise"

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


class TestSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**100 + 9])
    def test_states_match_seed_sequence(self, seed):
        # entropy of 1 to 5 words: the seed's 1 to 4, then the index's 1 or 2 (more than the pool's 4 at 2**100 + 9)
        for index in (0, 1, 76, 2**32 - 1, 2**32, 2**40):
            expected = np.random.SeedSequence((seed, index)).generate_state(4, np.uint64)
            state = shots._seed_states(seed, index, 1)
            assert state.shape == (1, 4) and state.dtype == np.uint64
            np.testing.assert_array_equal(state[0], expected)
        # whole blocks, one lane per index: a run's first block, the last indexes of one word, a block of two words
        for first, count in [(0, 77), (2**32 - 5, 5), (2**40, shots.SEED_BLOCK)]:
            states = shots._seed_states(seed, first, count)
            assert states.shape == (count, 4)
            for row in (0, count // 2, count - 1):
                expected = np.random.SeedSequence((seed, first + row)).generate_state(4, np.uint64)
                np.testing.assert_array_equal(states[row], expected)

    @pytest.mark.parametrize("first, count", [(2**32 - 1, 2), (2**33 - 3, 1_000), (-1, 1)])
    def test_block_of_mixed_word_counts_is_rejected(self, first, count):
        # indexes below and above a multiple of 2**32 differ in their upper words, and an index of 2**32 has
        # one entropy word more than 2**32 - 1, so one pass cannot seed both
        with pytest.raises(ValueError, match="share their upper words"):
            shots._seed_states(0, first, count)

    def test_run_seeds_each_block_once(self, monkeypatch):
        # 2500 batches of 100 shots: three seed blocks, of 1024, 1024 and 452 batches, with one kept at a time
        monkeypatch.setattr(shots, "BATCH_SIZE", 100)
        passes, kept = [], []
        seed_states, draw = shots._seed_states, shots.draw_batch
        monkeypatch.setattr(shots, "_seed_states", lambda *args: passes.append(args) or seed_states(*args))

        def drawing(prepared, batch_index, size):
            kept.append(len(prepared.seed_states))
            return draw(prepared, batch_index, size)

        monkeypatch.setattr(shots, "draw_batch", drawing)
        config = RunConfig(a=0.3, shots=250_000, seed=9)
        result, batches = collect_batches(config)
        assert passes == [(9, 0, 1024), (9, 1024, 1024), (9, 2048, 452)]
        assert kept == [0] + [1] * 2499
        for index in (1023, 1024, 2499):
            count, expected, expected_hits = reference_draw(config, index, 100)
            _, size, hits, samples = batches[index]
            assert samples.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(hits, expected_hits)
        assert result.accepted == sum(len(samples) for *_, samples in batches)

    @pytest.mark.parametrize("module", ["hardyions", "hardyions.cli"])
    def test_import_leaves_out_numpy_random(self, module):
        # the generator's seed sequence subclasses numpy.random's interface on first use, not at import
        code = f"import sys, {module}; print('numpy.random' in sys.modules)"
        src = str(Path(shots.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert done.stdout.split() == ["False"]


class TestStreamPinning:
    @pytest.mark.parametrize("a", [0.05, 0.3, 3.0])
    def test_draw_batch_matches_reference(self, a):
        # seeds of one, two and three 32-bit words; the reference seeds each batch by numpy's own SeedSequence
        for seed in (0, 1, 7, 2**70 + 3):
            config = RunConfig(a=a, shots=4 * BATCH_SIZE, seed=seed)
            prepared = prepare_experiment(config)
            # full batches, the final partial batch of a run, and small batches, past the run's end (index 76
            # extends the run's seed block) and at an index of two words (a seed block of its own)
            for batch_index, size in [(0, BATCH_SIZE), (2, BATCH_SIZE), (3, 12_345), (5, 2_000), (76, 5_000),
                                      (2**32, 3_000)]:
                rng, samples = draw_batch(prepared, batch_index, size)
                hits = hit_offsets(rng, size, len(samples))
                first, cdf = prepared.count_tables[size]
                assert (first, cdf.tolist()) == reference_count_cdf(size, prepared.accept_below)
                count, expected, expected_hits = reference_draw(config, batch_index, size)
                assert len(samples) == count
                assert samples.tobytes() == expected.tobytes()
                assert hits.dtype == np.intp
                np.testing.assert_array_equal(hits, expected_hits)

    @pytest.mark.parametrize("size, count, rounds", [(1 << 17, 39_321, 4), (1 << 17, 100_000, 4), (1_000, 999, 1)])
    def test_offsets_match_the_set_reference(self, size, count, rounds):
        # p = 0.3 at 2**17 shots takes at least 3 top-up rounds after the first (8 at these seeds); past half
        # the batch the rejected offsets are drawn, and their complement taken
        for seed in (0, 1):
            rng = CountingGenerator(np.random.default_rng(seed))
            hits = hit_offsets(rng, size, count)
            assert rng.rounds >= rounds
            assert hits.dtype == np.intp and len(hits) == count
            np.testing.assert_array_equal(hits, reference_offsets(np.random.default_rng(seed), size, count))

    def test_offsets_follow_the_summary_draws(self):
        # the offsets come last from the batch's generator, so drawing them moves no count or sample
        config = RunConfig(a=0.3, shots=3 * BATCH_SIZE + 5, seed=4)
        result, batches = collect_batches(config)
        assert result == run_experiment_mc(config)
        prepared = prepare_experiment(config)
        for index, (_, size, hits, samples) in enumerate(batches):
            rng, expected = draw_batch(prepared, index, size)
            assert samples.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(hits, hit_offsets(rng, size, len(samples)))

    def test_zero_probability_accepts_no_shot(self):
        self.assert_certain(0.0)

    def test_unit_probability_accepts_every_shot(self):
        self.assert_certain(1.0)

    @staticmethod
    def assert_certain(p):
        # from a count table of one entry
        prepared = replace(prepare_experiment(RunConfig()), accept_below=p)
        for size in (1, 1_000, BATCH_SIZE):
            rng, samples = draw_batch(prepared, 0, size)
            assert len(samples) == p * size
            hits = hit_offsets(rng, size, len(samples))
            assert hits.dtype == np.intp
            np.testing.assert_array_equal(hits, np.arange(len(samples)))
            assert len(prepared.count_tables[size][1]) == 1

    @pytest.mark.parametrize("p", [-0.5, 1.5, math.nan])
    def test_acceptance_the_tail_table_cannot_hold_is_rejected(self, p):
        # the count table holds any p in [0, 1]; nan and values outside that interval are still rejected
        with pytest.raises(ValueError, match=r"accept_below must be in \[0, 1\]"):
            replace(prepare_experiment(RunConfig()), accept_below=p)

    @pytest.mark.parametrize("p", [1e-300, 1e-17, 1e-8, np.nextafter(2.0**-10, 0.0), np.nextafter(1.0, 0.0)])
    def test_any_acceptance_builds_a_short_table(self, p):
        # the table holds the counts within about 9 standard deviations of the mode, however small p is
        prepared = replace(prepare_experiment(RunConfig()), accept_below=p)
        for seed in range(20):
            rng, samples = draw_batch(replace(prepared, config=RunConfig(seed=seed)), 0, BATCH_SIZE)
            hits = hit_offsets(rng, BATCH_SIZE, len(samples))
            assert len(hits) == len(samples) and np.all(np.diff(hits) > 0)
        first, cdf = shots._count_table(BATCH_SIZE, p)
        assert len(cdf) <= 20 * math.sqrt(BATCH_SIZE * p * (1.0 - p)) + 40
        assert 0 <= first and first + len(cdf) <= BATCH_SIZE + 1

    def test_smallest_acceptance_builds_its_table(self):
        # at p = 1e-300 even one accepted shot is below the cut, and just below p = 1 one rejected shot
        # is just above it: tables of one and two entries
        first, cdf = shots._count_table(BATCH_SIZE, 1e-300)
        assert first == 0 and cdf.tolist() == [1.0]
        first, cdf = shots._count_table(BATCH_SIZE, np.nextafter(1.0, 0.0))
        assert first == BATCH_SIZE - 1 and len(cdf) == 2

    @pytest.mark.parametrize(
        "size, p",
        [(1, 1 / 16), (12_345, 0.0702), (1 << 17, 1 / 16), (1 << 17, 0.3), (1 << 17, 2.0**-10), (1 << 17, 1e-17)],
    )
    def test_count_table_matches_exact_binomial(self, size, p):
        # against the exact CDF in 60-digit mpmath, which shares none of the table's double arithmetic
        first, cdf = shots._count_table(size, p)
        last = first + len(cdf) - 1
        with mpmath.workdps(60):
            q = mpmath.mpf(p)

            def pmf(k):
                return mpmath.binomial(size, k) * q**k * (1 - q) ** (size - k)

            below = exact_tail(pmf, range(first - 1, -1, -1))
            above = exact_tail(pmf, range(last + 1, size + 1))
            exact = below
            for k, entry in enumerate(cdf.tolist(), start=first):
                exact += pmf(k)
                assert abs(entry - exact) <= 1e-12
            assert below + above < 2.0**-50

    @pytest.mark.parametrize("p", [1 / 16, 0.0702, 0.1609, 0.3, 0.75])
    def test_hits_are_bernoulli(self, p):
        # against independent Bernoulli(p) shots: the accepted count's mean and variance per batch,
        # and the offsets spread evenly over 16 slots of the batch; at 0.75 the rejected offsets are drawn
        prepared = replace(prepare_experiment(RunConfig()), accept_below=p)
        size, batches, slots = 1 << 12, 4_000, 16
        counts = np.empty(batches)
        per_slot = np.zeros(slots)
        for index in range(batches):
            rng, samples = draw_batch(prepared, index, size)
            hits = hit_offsets(rng, size, len(samples))
            assert len(hits) == len(samples) and hits.dtype == np.intp
            assert np.all(np.diff(hits) > 0) and 0 <= hits[0] and hits[-1] < size
            counts[index] = len(hits)
            per_slot += np.bincount(hits * slots // size, minlength=slots)
        variance = size * p * (1.0 - p)
        assert abs(counts.mean() - size * p) <= 5.0 * math.sqrt(variance / batches)
        # the relative standard error of a normal sample's variance is sqrt(2 / (batches - 1))
        assert abs(counts.var(ddof=1) / variance - 1.0) <= 5.0 * math.sqrt(2.0 / (batches - 1))
        slot_shots = batches * size // slots
        z = (per_slot - slot_shots * p) / math.sqrt(slot_shots * p * (1.0 - p))
        assert np.abs(z).max() <= 5.0

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
        # bit for bit: the golden per-shot CSV is too short to see a one-ulp change here; RunConfig
        # takes a in units of sigma, so the length a enters as the ratio a / sigma
        assert prepare_experiment(RunConfig(a / sigma, sigma)).accept_below.hex() == threshold


class TestSeedEnsemble:
    """The errors a run claims, held to the spread of runs across seeds (mc --shots 20000, 400 seeds per a).

    With 400 runs, a mean of the z-scores is known to +-0.05 and their standard deviation to +-0.035,
    so the bands below are 4 to 5 of those errors wide. A bias below about a quarter of the claimed
    standard error passes them; the exact-moment tests in test_oracle.py pin the sampler below that.
    """

    SEEDS, SHOTS = 400, 20_000

    @pytest.mark.parametrize("index, a", list(enumerate([0.0, 0.05, 0.2, 2.0, 5.0])))
    def test_claimed_errors_match_the_seed_spread(self, monkeypatch, index, a):
        # each a takes its own seeds: batch 0's count uniform is a seed's first draw, so shared seeds
        # would give every a the same count quantiles
        seeds = range(index * self.SEEDS, (index + 1) * self.SEEDS)
        prepared = prepare_experiment(RunConfig(a=a))

        def prepare(config):
            # the preparation depends on a and sigma only, so its tables are built from the one cdf; the seed
            # enters at the draw. Each clone has its own caches, as a fresh preparation would.
            return replace(prepared, config=config)

        first = RunConfig(a=a, shots=self.SHOTS, seed=seeds[0])
        fresh = run_experiment_mc(first)
        monkeypatch.setattr(shots, "prepare_experiment", prepare)
        assert run_experiment_mc(first) == fresh
        results = [run_experiment_mc(replace(first, seed=seed)) for seed in seeds]

        # the references in closed form, sharing no arithmetic with the run
        g = math.exp(-a * a / 8.0)
        p, mean = (5.0 - 4.0 * g) / 16.0, -a * (1.0 - 2.0 * g) / (5.0 - 4.0 * g)
        n = self.SHOTS
        counts = np.array([r.accepted for r in results])
        mean_z = np.array([(r.sample_mean - mean) / r.std_error for r in results])
        count_z = (counts - n * p) / math.sqrt(n * p * (1.0 - p))
        for z in (mean_z, count_z):
            assert abs(z.mean()) <= 0.25
            assert 0.85 <= z.std(ddof=1) <= 1.15
        # the counts' mid-quantiles under Binomial(n, p), in 10 equal bins: chi-square with 9 degrees
        # of freedom, which exceeds 33.7 with probability 1e-4
        pmf = np.exp([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                      + k * math.log(p) + (n - k) * math.log1p(-p) for k in range(n + 1)])
        quantiles = np.cumsum(pmf)[counts] - pmf[counts] / 2.0
        observed = np.bincount(np.minimum((quantiles * 10).astype(int), 9), minlength=10)
        assert ((observed - self.SEEDS / 10) ** 2 / (self.SEEDS / 10)).sum() <= 33.7


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
        samples = np.concatenate([samples for *_, samples in batches])
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


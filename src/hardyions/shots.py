"""Monte-Carlo simulation of repeated runs of the weak-measurement experiment.

Each shot draws one of the nine internal detection outcomes; shots that
post-select (|gg>) additionally draw a pointer position from the
conditional density |phi_c(x)|^2 by inverse-CDF sampling on the grid
oracle. Randomness comes from numpy's default generator (PCG64), seeded
per batch from (seed, batch_index), so results are reproducible bit for
bit and batches may be evaluated independently and merged in index order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .meter import GaussianPointer, gaussian_norm_sq, to_grid
from .protocol import RunConfig, run_weak_gaussian, weak_gaussian_experiment
from .statecore import BASIS_LABELS, GG_INDEX, internal_probabilities

BATCH_SIZE = 1 << 17
MIN_RELIABLE_ACCEPTED = 30

SAMPLING_GRID_POINTS = 4096
SAMPLING_PADDING_SIGMAS = 8.0


@dataclass(frozen=True)
class ShotResult:
    """Summary statistics of one Monte-Carlo run."""

    accepted: int
    total: int
    sample_mean: float | None
    std_error: float | None
    seed: int
    std_error_reliable: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _inverse_cdf_table(pointer: GaussianPointer) -> tuple[np.ndarray, np.ndarray]:
    lo = min(d for _, d in pointer.branches) - SAMPLING_PADDING_SIGMAS * pointer.sigma
    hi = max(d for _, d in pointer.branches) + SAMPLING_PADDING_SIGMAS * pointer.sigma
    grid = to_grid(pointer, lo, hi, SAMPLING_GRID_POINTS)
    xs = grid.xs
    density = np.abs(grid.values) ** 2
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(xs))]
    )
    cdf /= cdf[-1]
    return cdf, xs


def sample_pointer(pointer: GaussianPointer, n: int, seed: int) -> np.ndarray:
    """n independent draws from |phi_c(x)|^2; identical seeds give identical samples."""
    if n < 1:
        raise ValueError(f"need at least one sample, got n = {n}")
    if gaussian_norm_sq(pointer) < 1e-15:
        raise ValueError("cannot sample from a degenerate pointer state")
    cdf, xs = _inverse_cdf_table(pointer)
    rng = np.random.default_rng(seed)
    return np.interp(rng.random(n), cdf, xs)


@dataclass(frozen=True)
class PreparedExperiment:
    """Precomputed outcome table and pointer CDF for one configuration."""

    config: RunConfig
    outcome_probabilities: np.ndarray
    cdf: np.ndarray
    xs: np.ndarray


@dataclass(frozen=True)
class BatchTotals:
    accepted: int
    total: int
    sum_x: float
    sum_x_sq: float


def prepare_experiment(config: RunConfig) -> PreparedExperiment:
    """Evolve the weak experiment once: its outcome table and the conditional pointer's CDF."""
    final, _, pointer = weak_gaussian_experiment(config.a, config.sigma).run()
    table = internal_probabilities(final)
    probabilities = np.array([table[label] for label in BASIS_LABELS])
    probabilities /= probabilities.sum()
    cdf, xs = _inverse_cdf_table(pointer)
    return PreparedExperiment(config, probabilities, cdf, xs)


def batch_plan(shots: int) -> list[int]:
    """Deterministic split of a shot count into batch sizes."""
    sizes = [BATCH_SIZE] * (shots // BATCH_SIZE)
    if shots % BATCH_SIZE:
        sizes.append(shots % BATCH_SIZE)
    return sizes


def draw_batch(
    prepared: PreparedExperiment, batch_index: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome indices and pointer samples (one per accepted shot) for one batch."""
    rng = np.random.default_rng(np.random.SeedSequence((prepared.config.seed, batch_index)))
    outcomes = rng.choice(len(BASIS_LABELS), size=size, p=prepared.outcome_probabilities)
    accepted = int(np.count_nonzero(outcomes == GG_INDEX))
    samples = np.interp(rng.random(accepted), prepared.cdf, prepared.xs)
    return outcomes, samples


def _batch_totals(samples: np.ndarray, size: int) -> BatchTotals:
    return BatchTotals(
        accepted=len(samples),
        total=size,
        sum_x=float(np.sum(samples)),
        sum_x_sq=float(np.sum(samples * samples)),
    )


def run_shot_batch(prepared: PreparedExperiment, batch_index: int, size: int) -> BatchTotals:
    _, samples = draw_batch(prepared, batch_index, size)
    return _batch_totals(samples, size)


def merge_shot_totals(totals, seed: int) -> ShotResult:
    """Combine batch totals in the given order into a ShotResult."""
    accepted = 0
    total = 0
    sum_x = 0.0
    sum_x_sq = 0.0
    for t in totals:
        accepted += t.accepted
        total += t.total
        sum_x += t.sum_x
        sum_x_sq += t.sum_x_sq
    if accepted == 0:
        return ShotResult(0, total, None, None, seed, False)
    mean = sum_x / accepted
    if accepted >= 2:
        variance = max(sum_x_sq - accepted * mean * mean, 0.0) / (accepted - 1)
        std_error = math.sqrt(variance / accepted)
    else:
        std_error = None
    return ShotResult(
        accepted=accepted,
        total=total,
        sample_mean=mean,
        std_error=std_error,
        seed=seed,
        std_error_reliable=accepted >= MIN_RELIABLE_ACCEPTED,
    )


def run_experiment_mc(
    config: RunConfig, keep_samples: bool = False
) -> ShotResult | tuple[ShotResult, np.ndarray, np.ndarray]:
    """Run the full Monte-Carlo experiment.

    Returns a ShotResult, or with keep_samples=True a tuple
    (ShotResult, outcome indices, pointer samples) where samples align
    with the accepted shots in order.
    """
    if config.shots < 1:
        raise ValueError(f"need at least one shot, got {config.shots}")
    prepared = prepare_experiment(config)
    totals = []
    all_outcomes = []
    all_samples = []
    for batch_index, size in enumerate(batch_plan(config.shots)):
        outcomes, samples = draw_batch(prepared, batch_index, size)
        totals.append(_batch_totals(samples, size))
        if keep_samples:
            all_outcomes.append(outcomes)
            all_samples.append(samples)
    result = merge_shot_totals(totals, config.seed)
    if keep_samples:
        return result, np.concatenate(all_outcomes), np.concatenate(all_samples)
    return result


def shots_required(a: float, sigma: float = 1.0, k_sigma: float = 3.0) -> int:
    """Total experiments needed to resolve the conditional mean at k_sigma significance.

    Smallest accepted-shot count n with k_sigma * std / sqrt(n) <= |mean|,
    divided by the post-selection probability. Raises at the sign-change
    threshold, where the signal vanishes.
    """
    if a <= 0.0:
        raise ValueError(f"need a positive displacement, got a = {a}")
    if k_sigma <= 0.0:
        raise ValueError(f"need a positive significance level, got {k_sigma}")
    report = run_weak_gaussian(a, sigma)
    mean = report.closed_form_mean
    std = math.sqrt(report.pointer_variance)
    if abs(mean) <= 1e-12 * std:
        raise ValueError(
            f"unresolvable: the conditional mean vanishes at a = {a} "
            f"(sign-change threshold a = sigma * sqrt(8 ln 2))"
        )
    n_accepted = math.ceil((k_sigma * std / abs(mean)) ** 2)
    return math.ceil(n_accepted / report.postselection_probability)

"""Monte-Carlo simulation of repeated runs of the weak-measurement experiment.

A shot is accepted (post-selected on |gg>) when its uniform is below P(gg),
the uniform with which Generator.choice would pick one of the nine outcomes;
accepted shots draw a pointer position from |phi_c(x)|^2 by inverse-CDF
sampling on the grid oracle. Randomness comes from numpy's default generator
(PCG64), seeded per batch from (seed, batch_index), so results are reproducible
bit for bit and batches may be evaluated independently and merged in index order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .meter import GaussianPointer, gaussian_moments, to_grid
# run_weak_gaussian is kept bound here, where the benchmark's tracer (bench/spans.py) wraps it.
from .protocol import RunConfig, run_weak_gaussian, weak_gaussian_experiment  # noqa: F401
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
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    return cdf, xs


def _draw_pointer(rng: np.random.Generator, n: int, cdf: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """np.interp(rng.random(n), cdf, xs) bit for bit, as each output depends only on its own
    key; sorted keys hit interp's neighbour guess instead of a mispredicted binary search."""
    uniforms = rng.random(n)
    order = np.argsort(uniforms)
    samples = np.empty_like(uniforms)
    samples[order] = np.interp(uniforms[order], cdf, xs)
    return samples


@dataclass(frozen=True)
class PreparedExperiment:
    """Precomputed acceptance threshold and pointer CDF for one configuration."""

    config: RunConfig
    accept_below: float
    cdf: np.ndarray
    xs: np.ndarray


@dataclass(frozen=True)
class BatchTotals:
    accepted: int
    total: int
    sum_x: float
    sum_x_sq: float


def prepare_experiment(config: RunConfig) -> PreparedExperiment:
    """Evolve the weak experiment once for its acceptance threshold and conditional pointer CDF."""
    final, _, pointer = weak_gaussian_experiment(config.a, config.sigma).run()
    gaussian_moments(pointer)  # raises, before any grid is evaluated, where the moments overflow a double
    table = internal_probabilities(final)
    probabilities = np.array([table[label] for label in BASIS_LABELS])
    # Generator.choice's CDF: it picks GG_INDEX = 0 for a uniform u exactly when u < cdf[0]
    outcome_cdf = (probabilities / probabilities.sum()).cumsum()
    outcome_cdf /= outcome_cdf[-1]
    cdf, xs = _inverse_cdf_table(pointer)
    return PreparedExperiment(config, float(outcome_cdf[GG_INDEX]), cdf, xs)


class batch_plan(Sequence):
    """Deterministic split of a shot count into batch sizes: a lazy sequence, like range."""

    def __init__(self, shots: int) -> None:
        self.starts = range(0, shots, BATCH_SIZE)  # the index of each batch's first shot

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index: int) -> int:
        return min(self.starts.step, self.starts.stop - self.starts[index])


def draw_batch(
    prepared: PreparedExperiment, batch_index: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance mask and pointer samples (one per accepted shot) for one batch."""
    rng = np.random.default_rng(np.random.SeedSequence((prepared.config.seed, batch_index)))
    accepted = rng.random(size) < prepared.accept_below
    return accepted, _draw_pointer(rng, int(np.count_nonzero(accepted)), prepared.cdf, prepared.xs)


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
    config: RunConfig, on_batch: Callable[[int, np.ndarray, np.ndarray], None] | None = None
) -> ShotResult:
    """Run the full Monte-Carlo experiment.

    With on_batch, calls on_batch(first_shot, accepted, samples) once per
    batch, in shot order: the index of the batch's first shot, its acceptance
    mask, and its pointer samples, one per accepted shot in order. Batches are
    merged as drawn and none is kept, so memory does not grow with the shot count.
    """
    prepared = prepare_experiment(config)
    plan = batch_plan(config.shots)

    def totals():
        for batch_index, size in enumerate(plan):
            accepted, samples = draw_batch(prepared, batch_index, size)
            if on_batch is not None:
                on_batch(plan.starts[batch_index], accepted, samples)
            yield BatchTotals(len(samples), size, float(np.sum(samples)), float(np.sum(samples * samples)))

    return merge_shot_totals(totals(), config.seed)

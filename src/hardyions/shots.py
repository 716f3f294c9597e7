"""Monte-Carlo simulation of repeated runs of the weak-measurement experiment.

A shot is accepted (post-selected on |gg>) with probability p = P(gg). The
gaps between accepted shots of this Bernoulli(p) process are geometric, so
a batch draws one uniform per accepted shot, not one per shot: a uniform u
in (0, 1] gives the gap k with (1-p)^(k+1) < u <= (1-p)^k (inversion;
Devroye, Non-Uniform Random Variate Generation, 1986). The powers come
from a table built by repeated multiplication, so the stream does not
depend on libm's log, which only guesses k. Accepted shots then draw a
pointer position from |phi_c(x)|^2 by inverse-CDF sampling on the grid
oracle. The light shift config.a is in units of sigma, and so is the
grid; its positions are scaled to lengths once. A guide table (Chen &
Asau, AIIE Trans. 6, 163 (1974)) finds each uniform's CDF interval
without sorting, and the position is interpolated with np.interp's own
arithmetic, so it equals np.interp bit for bit.
Randomness comes from numpy's default generator (PCG64), seeded per batch
from (seed, batch_index), so results are reproducible bit for bit and
batches may be evaluated independently and merged in index order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .meter import GaussianPointer, gaussian_moments, to_grid
# run_weak_gaussian is kept bound here, where the benchmark's tracer (bench/spans.py) wraps it.
from .protocol import RunConfig, run_weak_gaussian, weak_gaussian_experiment  # noqa: F401
from .statecore import internal_probabilities

BATCH_SIZE = 1 << 17
MIN_RELIABLE_ACCEPTED = 30

SAMPLING_GRID_POINTS = 4096
SAMPLING_PADDING_SIGMAS = 8.0
GUIDE_CELLS = 1 << 14  # guide-table cells; a power of two, so a key's cell is exact
SMALLEST_GAP_UNIFORM = 2.0**-53  # the smallest u = 1 - Generator.random()
SMALLEST_ACCEPT = 2.0**-10  # below it the gaps' tail table outgrows about 37 000 entries


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
        return dict(vars(self))  # every field is a JSON scalar, in declaration order


def _inverse_cdf_table(pointer: GaussianPointer, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    lo = min(d for _, d in pointer.branches) - SAMPLING_PADDING_SIGMAS
    hi = max(d for _, d in pointer.branches) + SAMPLING_PADDING_SIGMAS
    grid = to_grid(pointer, lo, hi, SAMPLING_GRID_POINTS)
    xs = grid.xs
    density = np.abs(grid.values) ** 2
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    return cdf, xs * sigma


def _gap_chunk(shots: int, p: float) -> int:
    """Gaps drawn at a time for the next `shots` shots: the mean hit count plus six standard deviations."""
    mean = shots * p
    return math.ceil(mean + 6.0 * math.sqrt(mean)) + 16


@dataclass(frozen=True)
class PreparedExperiment:
    """Precomputed acceptance probability and pointer CDF for one configuration.

    The gaps' tail table: tail[k] = (1-p)^k by repeated multiplication, down
    to the first entry below SMALLEST_GAP_UNIFORM; gap_scale = 1 / log(1-p)
    turns log(u) into a guess of the gap.

    The CDF's guide table: guide[k] is the last CDF index at or below
    k / GUIDE_CELLS, so a key in cell k lies in interval guide[k] or the one
    after it, unless the cell is wide. A wide cell holds more than one
    breakpoint (the flat tails, and the repeated 1.0 at the top), and its
    keys take a binary search.
    """

    config: RunConfig
    accept_below: float  # p = P(gg), at least 1/16 in the weak experiment; 0 (no shot accepted) or in [2**-10, 1]
    cdf: np.ndarray
    xs: np.ndarray
    tail: np.ndarray = field(init=False)
    gap_scale: float = field(init=False)
    slopes: np.ndarray = field(init=False)  # np.interp's slope on each CDF interval
    guide: np.ndarray = field(init=False)
    wide: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        p = self.accept_below
        if not (p == 0.0 or SMALLEST_ACCEPT <= p <= 1.0):
            raise ValueError(f"accept_below must be 0 or in [2**-10, 1], got {p!r}")
        tail = [1.0]
        while 0.0 < p and tail[-1] >= SMALLEST_GAP_UNIFORM:
            tail.append(tail[-1] * (1.0 - p))
        with np.errstate(divide="ignore"):  # repeated CDF values give inf slopes, never gathered
            slopes = np.diff(self.xs) / np.diff(self.cdf)
        guide = np.searchsorted(self.cdf, np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS, side="right") - 1
        self.__dict__.update(
            tail=np.array(tail),
            gap_scale=1.0 / math.log1p(-p) if 0.0 < p < 1.0 else 0.0,  # at p = 1 every gap is 0
            slopes=slopes, guide=guide[:-1], wide=np.diff(guide) > 1,
        )

    def gaps(self, u: np.ndarray) -> np.ndarray:
        """The gap k with tail[k+1] < u <= tail[k] for each u in (0, 1]: failures before each success."""
        k = (np.log(u) * self.gap_scale).astype(np.intp)  # the guess: floor, as log(u) * scale >= 0
        np.minimum(k, len(self.tail) - 2, out=k)
        wrong = np.flatnonzero((u > self.tail[k]) | (u <= self.tail[k + 1]))  # a guess off by libm's rounding
        k[wrong] = np.searchsorted(-self.tail, -u[wrong], side="right") - 1
        return k

    def hit_offsets(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sorted offsets in [0, size) of the accepted shots of one batch, drawn as gaps from rng."""
        parts = [np.empty(0, dtype=np.intp)]
        start = 0 if self.accept_below > 0.0 else size  # the first shot not yet covered by a gap
        while start < size:
            u = rng.random(_gap_chunk(size - start, self.accept_below))
            np.subtract(1.0, u, out=u)  # in (0, 1]
            hits = np.cumsum(self.gaps(u) + 1)
            hits += start - 1
            parts.append(hits)
            start = int(hits[-1]) + 1
        hits = np.concatenate(parts)
        return hits[: np.searchsorted(hits, size)]

    def pointer_samples(self, u: np.ndarray) -> np.ndarray:
        """np.interp(u, cdf, xs) bit for bit, for keys u in [0, 1)."""
        cell = (u * GUIDE_CELLS).astype(np.intp)  # exact: GUIDE_CELLS is a power of two
        j = self.guide[cell]
        j += self.cdf[1:][j] <= u
        searched = np.flatnonzero(self.wide[cell])
        j[searched] = np.searchsorted(self.cdf, u[searched], side="right") - 1
        base = self.cdf[j]
        at = self.xs[j]
        samples = self.slopes[j] * (u - base) + at
        np.copyto(samples, at, where=u == base)  # np.interp returns a hit breakpoint's own position
        return samples


@dataclass(frozen=True)
class BatchTotals:
    accepted: int
    total: int
    sum_x: float
    sum_x_sq: float


def prepare_experiment(config: RunConfig) -> PreparedExperiment:
    """Evolve the weak experiment once, at config.a in units of sigma, for P(gg) and the pointer CDF."""
    final, _, pointer = weak_gaussian_experiment(config.a).run()
    gaussian_moments(pointer, config.sigma)  # raises, before any grid is evaluated, where the moments overflow
    table = internal_probabilities(final)
    return PreparedExperiment(config, table["gg"] / sum(table.values()), *_inverse_cdf_table(pointer, config.sigma))


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
    """Offsets of the accepted shots in the batch and their pointer samples, one per accepted shot."""
    rng = np.random.default_rng(np.random.SeedSequence((prepared.config.seed, batch_index)))
    hits = prepared.hit_offsets(rng, size)
    return hits, prepared.pointer_samples(rng.random(len(hits)))


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
    if not math.isfinite(sum_x_sq):  # bounds sum_x too: sum_x ** 2 <= accepted * sum_x_sq
        raise ValueError("the sum of the squared pointer samples overflows a double")
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
    config: RunConfig, on_batch: Callable[[int, int, np.ndarray, np.ndarray], None] | None = None
) -> ShotResult:
    """Run the full Monte-Carlo experiment.

    With on_batch, calls on_batch(first_shot, size, hits, samples) once per
    batch, in shot order: the index of the batch's first shot, its shot
    count, the sorted offsets of its accepted shots in [0, size), and their
    pointer samples, one per accepted shot in order. Batches are merged as
    drawn and none is kept, so memory does not grow with the shot count.
    """
    prepared = prepare_experiment(config)
    plan = batch_plan(config.shots)

    def totals():
        for batch_index, size in enumerate(plan):
            hits, samples = draw_batch(prepared, batch_index, size)
            if on_batch is not None:
                on_batch(plan.starts[batch_index], size, hits, samples)
            with np.errstate(over="ignore"):  # merge_shot_totals rejects a sum that overflows
                sum_x_sq = float(np.sum(samples * samples))
            yield BatchTotals(len(samples), size, float(np.sum(samples)), sum_x_sq)

    return merge_shot_totals(totals(), config.seed)

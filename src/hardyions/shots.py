"""Monte-Carlo simulation of repeated runs of the weak-measurement experiment.

A shot is accepted (post-selected on |gg>) with probability p = P(gg), so a
batch of n shots accepts Binomial(n, p) of them. A batch draws its accepted
count first, from one uniform inverted against a table of that CDF. The
table's weights step outward from the mode by the pmf ratio in IEEE * and /
only, so the stream does not depend on libm. Accepted shots then draw a
pointer position from |phi_c(x)|^2, a mixture of uniforms over the CDF
intervals of the grid oracle's samples (xs, values), by its alias table
(Walker, ACM Trans. Math. Softw. 3, 253 (1977)): three gathers, no search.
The light shift config.a is in units of sigma, and so is the grid; its
positions are scaled to lengths once. Only a caller that asks which shots
were accepted draws their offsets, after the samples and from the same
generator, so a run's summary does not depend on whether it does.
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
SMALLEST_WEIGHT = 2.0**-53  # count-table weights below it, relative to the mode's 1, are dropped


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
    xs, values = to_grid(pointer, lo, hi, SAMPLING_GRID_POINTS)
    density = np.abs(values) ** 2
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    return cdf, xs * sigma


def _count_table(size: int, p: float) -> tuple[int, np.ndarray]:
    """The Binomial(size, p) CDF as (first, cdf), cdf[i] = P(count <= first + i): weights 1 at the mode, times
    the pmf ratio (size-k)/(k+1) * p/(1-p) or its inverse per step outward, cut, and normalized by cumsum."""
    mode = min(math.floor((size + 1) * p), size)
    with np.errstate(divide="ignore"):  # at p = 0 or 1 the infinite odds are on a side with no step
        up_odds, down_odds = np.float64(p) / (1.0 - p), np.float64(1.0 - p) / p
    # 12 standard deviations and 64 steps pass the cut on both sides for any size below 10**28: the
    # mode's pmf is at least 0.75 / (4 sd + 1) (Chebyshev), and Bernstein's inequality bounds the tails
    reach = math.ceil(12.0 * math.sqrt(size * p * (1.0 - p))) + 64
    up = np.arange(mode, min(mode + reach, size))  # the steps k -> k + 1
    down = np.arange(mode, max(mode - reach, 0), -1)  # the steps k -> k - 1
    above = np.cumprod((size - up) / (up + 1) * up_odds)
    below = np.cumprod(down / (size - down + 1) * down_odds)
    # the weights fall away from the mode, so each cut keeps the side's first entries
    above, below = above[above >= SMALLEST_WEIGHT], below[below >= SMALLEST_WEIGHT]
    cdf = np.cumsum(np.concatenate([below[::-1], [1.0], above]))
    cdf /= cdf[-1]
    return mode - len(below), cdf


@dataclass(frozen=True)
class PreparedExperiment:
    """Precomputed acceptance probability, pointer CDF and the CDF's alias table for one configuration.

    K cells, a power of two, over the CDF's intervals and zero-mass pads; cell c draws fracs below prob[c] from
    interval c, the rest from alias[c], by half-cell 2c + k's map frac -> offsets + frac * scales. One sweep
    (Huebschle-Schneider & Sanders, ESA 2019) pairs lights (K mass < 1) in order with the heavies' excess in
    order; a heavy that runs out within a light's deficit gives that overshoot of its cell to the next heavy.
    """

    config: RunConfig
    accept_below: float  # p = P(gg), at least 1/16 in the weak experiment; any p in [0, 1]
    cdf: np.ndarray
    xs: np.ndarray
    count_tables: dict[int, tuple[int, np.ndarray]] = field(init=False, repr=False, compare=False)  # by batch size
    prob: np.ndarray = field(init=False)
    alias: np.ndarray = field(init=False)
    offsets: np.ndarray = field(init=False)
    scales: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.accept_below <= 1.0:
            raise ValueError(f"accept_below must be in [0, 1], got {self.accept_below!r}")
        cells = 1 << (len(self.cdf) - 2).bit_length()
        prob = np.diff(self.cdf, append=np.full(cells + 1 - len(self.cdf), self.cdf[-1])) * cells  # exact: K is 2^k
        xs = np.append(self.xs, np.full(cells + 1 - len(self.xs), self.xs[-1]))
        heavy = prob >= 1.0  # one at least: the largest exact mass is at least 1 / K, and rounding keeps it so
        lights, heavies = np.flatnonzero(~heavy), np.flatnonzero(heavy)
        demand = np.concatenate([[0.0], np.cumsum(1.0 - prob[lights])])  # before each light, then in all
        supply = np.cumsum(prob[heavies] - 1.0)  # up to and including each heavy
        alias = np.arange(cells)  # the last heavy aliases itself
        alias[heavies[:-1]] = heavies[1:]
        alias[lights] = heavies[np.searchsorted(supply[:-1], demand[:-1], side="right")]
        prob[heavies] = np.clip(1.0 - (demand[np.searchsorted(demand[:-1], supply)] - supply), 0.0, 1.0)
        j, lo, width = (np.stack(p, 1).ravel() for p in [(np.arange(cells), alias), (0 * prob, prob), (prob, 1 - prob)])
        w = xs[j + 1] - xs[j]  # each map keeps a margin inside both ends that bounds its rounding
        with np.errstate(divide="ignore", invalid="ignore"):  # a piece of zero width is never drawn
            margin = 8.0 * np.spacing(np.maximum(np.maximum(np.abs(xs[:-1]), np.abs(xs[1:]))[j], lo * w / width))
            scales = np.where(2.0 * margin < w, (w - 2.0 * margin) / width, 0.0)
            offsets = np.where(scales > 0.0, xs[j] + margin - lo * scales, xs[j] + w / 2.0)  # else the midpoint
        self.__dict__.update(count_tables={}, prob=prob, alias=alias, offsets=offsets, scales=scales)

    def pointer_samples(self, u: np.ndarray) -> np.ndarray:
        """The pointer positions of keys u in [0, 1): cell floor(u K) and frac u K - cell, both exact."""
        samples = u * len(self.prob)
        cell = samples.astype(np.intp)
        samples -= cell  # frac, mapped in place: fewer temporaries run measurably faster
        half = 2 * cell + (samples >= self.prob.take(cell))
        samples *= self.scales.take(half)
        samples += self.offsets.take(half)
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


def draw_batch(prepared: PreparedExperiment, batch_index: int, size: int) -> tuple[np.random.Generator, np.ndarray]:
    """The batch's generator and the pointer samples of its accepted shots; hit_offsets continues the generator."""
    rng = np.random.default_rng(np.random.SeedSequence((prepared.config.seed, batch_index)))
    if size not in prepared.count_tables:
        prepared.count_tables[size] = _count_table(size, prepared.accept_below)
    first, cdf = prepared.count_tables[size]
    return rng, prepared.pointer_samples(rng.random(first + int(np.searchsorted(cdf, rng.random(), side="right"))))


def hit_offsets(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """A uniformly random count-subset of [0, size), sorted: the offsets of a batch's accepted shots.

    Draws with replacement until count offsets are distinct, redrawing only the shortfall; as that rule sees
    only how many are distinct, every subset is equally likely, in O(count) memory. Past half the batch the
    rejected offsets are drawn instead: near count = size the shortfall would take about size rounds to fill.
    """
    if 2 * count > size:
        return np.setdiff1d(np.arange(size), hit_offsets(rng, size, size - count), assume_unique=True)
    hits = np.empty(0, dtype=np.intp)
    while len(hits) < count:
        hits = np.concatenate([hits, np.sort(rng.integers(0, size, count - len(hits), dtype=np.intp))])
        hits.sort(kind="stable")  # timsort merges the kept offsets and the sorted new ones in linear time
        hits = hits[np.concatenate([[True], hits[1:] != hits[:-1]])]
    return hits


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
            rng, samples = draw_batch(prepared, batch_index, size)
            if on_batch is not None:
                on_batch(plan.starts[batch_index], size, hit_offsets(rng, size, len(samples)), samples)
            with np.errstate(over="ignore"):  # merge_shot_totals rejects a sum that overflows
                sum_x_sq = float(np.sum(samples * samples))
            yield BatchTotals(len(samples), size, float(np.sum(samples)), sum_x_sq)

    return merge_shot_totals(totals(), config.seed)

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
batches may be evaluated independently and merged in index order. Batch i's
PCG64 starts from the state np.random.SeedSequence((seed, i)) generates; that
state is computed for a block of up to SEED_BLOCK batches in one vectorized
pass of SeedSequence's hash (O'Neill's seed_seq_fe), not one object per batch.
"""

from __future__ import annotations

import functools
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
SEED_BLOCK = 1024  # batches seeded by one pass; it divides 2**32, so a block's indexes share their upper words

# numpy's SeedSequence hash on uint32 words (numpy/random/bit_generator.pyx): its k-th hashmix xors
# init * mult**k mod 2**32 into a word and multiplies it by init * mult**(k + 1), then xors in its upper half
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the 4-word pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # drawing the state words from the pool
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hash_columns(init: int, mult: int, ks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier of the hashmixes ks, as uint32 columns that broadcast over a block's lanes."""
    xor = [init * pow(mult, k, 1 << 32) & _MASK32 for k in ks]
    return np.array(xor, np.uint32)[:, None], np.array([x * mult & _MASK32 for x in xor], np.uint32)[:, None]


_POOL_HASH = _hash_columns(_INIT_A, _MULT_A, range(4))  # entropy word w (or 0) into pool word w
# round s hashes pool word s into each other word d, in order of d, by hashmix 4 + 3 s + d - (d > s); row s is unused
_MIX_HASH = [_hash_columns(_INIT_A, _MULT_A, [4 + 3 * s + d - (d > s) for d in range(4)]) for s in range(4)]
_STATE_HASH = _hash_columns(_INIT_B, _MULT_B, range(8))  # pool words 0-3, then 0-3 again


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


def _entropy_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: its 32-bit words, least significant first ([0] for 0)."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    out = words ^ xor
    out *= mult
    out ^= out >> _XSHIFT
    return out


def _mix_into(pool: np.ndarray, hashed: np.ndarray) -> None:
    """pool = MIX_MULT_L pool - MIX_MULT_R hashed, then its upper half xored in; hashed is overwritten."""
    pool *= _MIX_MULT_L
    hashed *= _MIX_MULT_R
    pool -= hashed
    pool ^= pool >> _XSHIFT


def _seed_states(seed: int, first: int, count: int) -> np.ndarray:
    """np.random.SeedSequence((seed, i)).generate_state(4, np.uint64) for i in [first, first + count), as rows.

    SeedSequence's mixing in uint32 arrays, one lane per index and the 4 pool words as rows. The entropy is the
    words of seed, then of i; only i's low word varies, as long as the indexes do not cross a multiple of 2**32.
    """
    if first < 0 or (first & _MASK32) + count > 1 << 32:
        raise ValueError(f"batch indexes [{first}, {first + count}) must be non-negative and share their upper words")
    seed_words = _entropy_words(seed)
    entropy = seed_words + _entropy_words(first)
    lanes = np.array(entropy + [0] * (4 - len(entropy)), np.uint32)[:, None].repeat(count, 1)  # pool hashes 0s past it
    lanes[len(seed_words)] += np.arange(count, dtype=np.uint32)
    pool = _hashmix(lanes[:4], *_POOL_HASH)
    for s, hash_columns in enumerate(_MIX_HASH):
        # word s is mixed into the other three; all four are mixed here, and word s is put back
        word = pool[s].copy()
        _mix_into(pool, _hashmix(word, *hash_columns))
        pool[s] = word
    for k in range(4, len(entropy)):  # entropy past the pool's 4 words is mixed into each of them
        _mix_into(pool, _hashmix(lanes[k], *_hash_columns(_INIT_A, _MULT_A, range(4 * k, 4 * k + 4))))
    state = _hashmix(np.concatenate((pool, pool)), *_STATE_HASH).T.copy()  # each index's 8 uint32 words in a row
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)  # as generate_state pairs them


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence that hands a PCG64 its precomputed state words, defined on first use: subclassing
    numpy's ISeedSequence imports numpy.random, which importing the package should not."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for its 4 uint64 words

    return SeedWords


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
    seed_states: dict[tuple[int, int], np.ndarray] = field(init=False, repr=False, compare=False)  # (seed, start)
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
        self.__dict__.update(count_tables={}, seed_states={}, prob=prob, alias=alias, offsets=offsets, scales=scales)

    def pointer_samples(self, u: np.ndarray) -> np.ndarray:
        """The pointer positions of keys u in [0, 1): cell floor(u K) and frac u K - cell, both exact."""
        samples = u * len(self.prob)
        cell = samples.astype(np.intp)
        samples -= np.floor(samples)  # frac, mapped in place: fewer temporaries and no int/float mix run faster
        upper = samples >= self.prob.take(cell)
        half = cell  # 2 cell + upper, the half-cell, built in place
        half <<= 1
        half += upper
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
    """The batch's generator and the pointer samples of its accepted shots; hit_offsets continues the generator.

    The generator's state comes from the block of up to SEED_BLOCK batches that holds batch_index, seeded in one
    pass and kept until a batch outside it is drawn; a block ends with the run's last batch, or with batch_index.
    """
    seed, start = prepared.config.seed, batch_index - batch_index % SEED_BLOCK
    states = prepared.seed_states.get((seed, start))  # by seed too: a shallow copy with another config shares it
    if states is None or batch_index - start >= len(states):
        count = min(SEED_BLOCK, max(len(batch_plan(prepared.config.shots)) - start, batch_index - start + 1))
        prepared.seed_states.clear()
        states = prepared.seed_states[seed, start] = _seed_states(seed, start, count)
    rng = np.random.Generator(np.random.PCG64(_seed_words_type()(states[batch_index - start])))
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
    pointer samples, one per accepted shot in order; it runs under the
    caller's numpy error state. Batches are merged as drawn and none is
    kept, so memory does not grow with the shot count.
    """
    prepared = prepare_experiment(config)
    plan = batch_plan(config.shots)
    caller = np.geterr()

    def totals():
        for batch_index, size in enumerate(plan):
            rng, samples = draw_batch(prepared, batch_index, size)
            if on_batch is not None:
                with np.errstate(**caller):
                    on_batch(plan.starts[batch_index], size, hit_offsets(rng, size, len(samples)), samples)
            sum_x, sum_x_sq = float(np.add.reduce(samples)), float(np.add.reduce(np.square(samples)))
            yield BatchTotals(len(samples), size, sum_x, sum_x_sq)

    with np.errstate(over="ignore"):  # merge_shot_totals rejects a sum that overflows
        return merge_shot_totals(totals(), config.seed)

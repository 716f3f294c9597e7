"""The benchmark's workloads: command lines made from a seed, and the oracle checks of their output.

Each workload turns a seeded ``random.Random`` into one closed-loop sample
at a time: a list of CLI argument vectors, each paired with a check of the
output the command wrote. The seed only generates inputs (argument values
and scan ranges); the package never sees it, except as the ``--seed`` a
Monte-Carlo command is given.

Deterministic outputs are compared with the references in ``oracle`` by
the relative error ``|out - ref| / (|ref| * kappa)``, where kappa is the
output's condition number (1 unless stated). Values the CLI prints with a
fixed number of decimals are checked to that precision and do not enter
the relative error. Monte-Carlo outputs are checked statistically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import oracle

REL_TOL = 1e-12
"""Largest condition-scaled relative error an output may have."""

Z_MAX = 5.0
"""Largest |z| a Monte-Carlo statistic may have against its reference."""

STD_ERROR_RTOL = 0.05
"""Largest relative deviation of the reported standard error from sqrt(var / accepted)."""

PER_SHOT_HEADER = b"shot,accepted,x_sample"


class Command(NamedTuple):
    """One CLI invocation and the check of what it wrote.

    check(check, text, files) reads the --out text and, where needed, the
    other files the command wrote. An untimed command is an accuracy probe:
    it is checked but neither timed nor traced.
    """

    argv: list[str]
    check: Callable
    timed: bool = True


class Check:
    """The oracle comparisons of one command; keeps the run's worst relative error."""

    def __init__(self, worst: list[float]):
        self.errors: list[str] = []
        self._worst = worst

    def close(self, what: str, out, ref, kappa: float = 1.0) -> None:
        """out must match ref to REL_TOL, relative to |ref| * kappa (absolute when ref is 0)."""
        if not isinstance(out, (int, float)) or isinstance(out, bool):
            self.errors.append(f"{what}: expected a number, got {out!r}")
            return
        ref = oracle.mpf(ref)
        diff = abs(oracle.mpf(out) - ref)
        err = float(diff / (abs(ref) * kappa) if ref else diff / kappa)
        if err > self._worst[0]:
            self._worst[0] = err
        if not err <= REL_TOL:
            self.errors.append(f"{what}: {out!r} vs reference {float(ref)!r} (error {err:.3e})")

    def printed(self, what: str, out: float, ref, decimals: int) -> None:
        """out was printed with a fixed number of decimals: match ref to that rounding."""
        err = float(abs(oracle.mpf(out) - oracle.mpf(ref)))
        if not err <= 0.5 * 10.0**-decimals + 1e-15:
            self.errors.append(f"{what}: {out!r} vs reference {float(oracle.mpf(ref))!r} at {decimals} decimals")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _lines(text: str) -> list[str]:
    return text.rstrip("\n").split("\n")


def _field(line: str, prefix: str) -> str:
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line!r}")
    return line[len(prefix):].strip()


# --- checks of deterministic commands ------------------------------------------------


def check_scan(check: Check, text: str, files, lo: float, hi: float, steps: int) -> None:
    lines = _lines(text)
    check.require(lines[0] == "a_over_sigma,mean_over_a,closed_form_over_a,probability", f"scan header {lines[0]!r}")
    check.require(len(lines) == steps + 1, f"scan wrote {len(lines) - 1} rows, expected {steps}")
    lo_mp, hi_mp = oracle.mpf(lo), oracle.mpf(hi)
    for i, line in enumerate(lines[1 : steps + 1]):
        aos, mean_over_a, closed_over_a, probability = (float(v) for v in line.split(","))
        check.close(f"scan[{i}].a_over_sigma", aos, lo_mp + (hi_mp - lo_mp) * i / (steps - 1))
        ref = oracle.pointer_mean(aos) / oracle.mpf(aos)
        kappa = oracle.mean_condition(aos)
        check.close(f"scan[{i}].mean_over_a", mean_over_a, ref, kappa)
        check.close(f"scan[{i}].closed_form_over_a", closed_over_a, ref, kappa)
        check.close(f"scan[{i}].probability", probability, oracle.postselection_probability(aos))


def check_ideal(check: Check, text: str, files, fmt: str) -> None:
    if fmt == "json":
        payload = json.loads(text)
        for label in oracle.LABELS:
            re, im = payload["amplitudes"][label]
            check.close(f"ideal.amplitude[{label}].re", re, oracle.IDEAL_AMPLITUDES[label])
            check.close(f"ideal.amplitude[{label}].im", im, 0)
            check.close(f"ideal.probability[{label}]", payload["probabilities"][label], oracle.IDEAL_PROBABILITIES[label])
        check.close("ideal.sum_of_squares", payload["sum_of_squares"], 1)
        return
    lines = _lines(text)
    check.require(len(lines) == len(oracle.LABELS) + 2, f"ideal text has {len(lines)} lines")
    for label, line in zip(oracle.LABELS, lines[1:]):
        name, amplitude, probability = line.split()
        check.require(name == label, f"ideal row {name!r}, expected {label!r}")
        amplitude = complex(amplitude)
        check.printed(f"ideal.amplitude[{label}].re", amplitude.real, oracle.IDEAL_AMPLITUDES[label], 12)
        check.printed(f"ideal.amplitude[{label}].im", amplitude.imag, 0, 12)
        check.printed(f"ideal.probability[{label}]", float(probability), oracle.IDEAL_PROBABILITIES[label], 12)
    check.printed("ideal.sum_of_squares", float(_field(lines[-1], "sum of squared amplitudes:")), 1, 12)


def check_weak(check: Check, text: str, files, a: float, fmt: str) -> None:
    kappa = oracle.mean_condition(a)
    if fmt == "json":
        payload = json.loads(text)
        check.close("weak.postselection_probability", payload["postselection_probability"], oracle.postselection_probability(a))
        check.require(sorted(payload["weak_values"]) == sorted(oracle.WEAK_VALUES), f"weak value labels {sorted(payload['weak_values'])}")
        for label, ref in oracle.WEAK_VALUES.items():
            re, im = payload["weak_values"].get(label, (None, None))
            check.close(f"weak.weak_value[{label}].re", re, ref)
            check.close(f"weak.weak_value[{label}].im", im, 0)
        mean, closed, variance = payload["pointer_mean"], payload["closed_form_mean"], payload["pointer_variance"]
    else:
        lines = _lines(text)
        check.require(len(lines) == 5, f"weak text has {len(lines)} lines")
        probability = float(_field(lines[0], "post-selection probability:"))
        check.printed("weak.postselection_probability", probability, oracle.postselection_probability(a), 12)
        tokens = _field(lines[1], "weak values:").split()
        values = {tokens[i].rstrip(":"): float(tokens[i + 1]) for i in range(0, len(tokens), 2)}
        check.require(sorted(values) == sorted(oracle.WEAK_VALUES), f"weak value labels {sorted(values)}")
        for label, ref in oracle.WEAK_VALUES.items():
            check.printed(f"weak.weak_value[{label}]", values.get(label, math.nan), ref, 6)
        mean = float(_field(lines[2], "pointer mean:"))
        closed = float(_field(lines[3], "closed-form mean:"))
        variance = float(_field(lines[4], "pointer variance:"))
    ref_mean = oracle.pointer_mean(a)
    check.close("weak.pointer_mean", mean, ref_mean, kappa)
    check.close("weak.closed_form_mean", closed, ref_mean, kappa)
    check.close("weak.pointer_variance", variance, oracle.pointer_variance(a))


_THIRD_ION_TEXT = (
    ("theta", "theta:"),
    ("excited_population", "post-selected excited population:"),
    ("reference_shift", "reference shift sin(theta)/2:"),
    ("deviation", "deviation of (1/2 - P_e) from the reference:"),
    ("postselection_probability", "post-selection probability:"),
)


def check_third_ion(check: Check, text: str, files, theta: float, fmt: str) -> None:
    if fmt == "json":
        out = json.loads(text)
    else:
        lines = _lines(text)
        check.require(len(lines) == len(_THIRD_ION_TEXT), f"third-ion text has {len(lines)} lines")
        out = {key: float(_field(line, prefix)) for (key, prefix), line in zip(_THIRD_ION_TEXT, lines)}
    ref = oracle.third_ion(theta)
    check.require(out["theta"] == theta, f"third-ion theta {out['theta']!r}, expected {theta!r}")
    for key in ("excited_population", "reference_shift", "postselection_probability"):
        check.close(f"third_ion.{key}", out[key], ref[key])
    check.close("third_ion.deviation", out["deviation"], ref["deviation"], ref["deviation_kappa"])
    if fmt == "json":
        check.close("third_ion.relative_deviation", out["relative_deviation"], ref["relative_deviation"], ref["deviation_kappa"])


def check_strong(check: Check, text: str, files, fmt: str) -> None:
    if fmt == "json":
        payload = json.loads(text)
        for label in oracle.LABELS:
            check.close(f"strong.undisturbed[{label}]", payload["undisturbed"][label], oracle.IDEAL_PROBABILITIES[label])
            check.close(f"strong.disturbed[{label}]", payload["disturbed"][label], oracle.STRONG_DISTURBED[label])
        branches = payload["branches"]
        check.require([b["label"] for b in branches] == [b[0] for b in oracle.STRONG_BRANCHES], "strong branch labels")
        for branch, (label, probability, table) in zip(branches, oracle.STRONG_BRANCHES):
            check.close(f"strong.branch[{label}].probability", branch["probability"], probability)
            for state in oracle.LABELS:
                check.close(f"strong.branch[{label}][{state}]", branch["probabilities"][state], table[state])
        return
    lines = _lines(text)
    check.require(len(lines) == len(oracle.LABELS) + 3, f"strong text has {len(lines)} lines")
    for label, line in zip(oracle.LABELS, lines[1:]):
        name, undisturbed, disturbed = line.split()
        check.require(name == label, f"strong row {name!r}, expected {label!r}")
        check.printed(f"strong.undisturbed[{label}]", float(undisturbed), oracle.IDEAL_PROBABILITIES[label], 12)
        check.printed(f"strong.disturbed[{label}]", float(disturbed), oracle.STRONG_DISTURBED[label], 12)
    check.printed("strong.undisturbed_total", float(_field(lines[-2], "undisturbed total:")), 1, 12)
    check.printed("strong.disturbed_total", float(_field(lines[-1], "disturbed total:")), 1, 12)


# --- checks of Monte-Carlo commands -----------------------------------------------------


def _count_per_shot_rows(path) -> tuple[bytes, int, int, int, bytes]:
    """Header, row count, accepted rows, rejected rows and any unterminated tail of a per-shot CSV.

    Rows may end in \\n or \\r\\n. Reads in blocks so that checking the file
    adds little to the peak memory of the process being measured.
    """
    rows = accepted = rejected = 0
    with open(path, "rb") as fh:
        header = fh.readline()
        carry = b""
        while chunk := fh.read(1 << 20):
            block = carry + chunk
            cut = block.rfind(b"\n") + 1
            block, carry = block[:cut], block[cut:]
            rows += block.count(b"\n")
            accepted += block.count(b",1,")
            rejected += block.count(b",0,\n") + block.count(b",0,\r\n")
    return header, rows, accepted, rejected, carry


def check_mc(check: Check, text: str, files, a: float, shots: int, seed: int, per_shot: bool) -> None:
    payload = json.loads(text)
    accepted = payload["accepted"]
    check.require(payload["total"] == shots, f"mc total {payload['total']}, expected {shots}")
    check.require(payload["seed"] == seed, f"mc seed {payload['seed']}, expected {seed}")
    check.require(payload["std_error_reliable"] is True, "mc std_error flagged unreliable")
    p = float(oracle.postselection_probability(a))
    z_accept = (accepted - shots * p) / math.sqrt(shots * p * (1.0 - p))
    check.require(abs(z_accept) <= Z_MAX, f"mc acceptance {accepted}/{shots} is {z_accept:+.2f} sigma from P(gg) = {p!r}")
    mean, std_error = payload["sample_mean"], payload["std_error"]
    if mean is None or std_error is None:
        check.errors.append(f"mc reported no sample statistics ({mean!r}, {std_error!r})")
    else:
        z_mean = (mean - float(oracle.pointer_mean(a))) / std_error
        check.require(abs(z_mean) <= Z_MAX, f"mc sample mean {mean!r} is {z_mean:+.2f} standard errors from the oracle")
        expected = math.sqrt(float(oracle.pointer_variance(a)) / accepted)
        check.require(
            abs(std_error / expected - 1.0) <= STD_ERROR_RTOL,
            f"mc std_error {std_error!r}, expected about {expected!r}",
        )
    if per_shot:
        header, rows, kept, rejected, tail = _count_per_shot_rows(files.per_shot)
        check.require(header.rstrip(b"\r\n") == PER_SHOT_HEADER, f"per-shot header {header!r}")
        check.require(tail == b"", "per-shot file does not end with a newline")
        check.require(rows == shots, f"per-shot file has {rows} rows, expected {shots}")
        check.require(kept == accepted, f"per-shot file has {kept} accepted rows, summary says {accepted}")
        check.require(kept + rejected == rows, f"per-shot file has {rows - kept - rejected} malformed rows")


# --- workloads -------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """scan over a seeded range [m, M] that crosses the sign change at a/sigma = 2.355."""

    steps: int = 200
    name: str = "sweep"

    @property
    def items_per_sample(self) -> int:
        return self.steps

    def control(self) -> "Sweep":
        return Sweep(steps=max(2, self.steps // 4))

    def sample(self, rng, k: int, files) -> list:
        lo = rng.uniform(0.005, 0.02)
        hi = rng.uniform(4.5, 5.5)
        argv = ["scan", "--min", repr(lo), "--max", repr(hi), "--steps", str(self.steps), "--out", files.out]
        return [Command(argv, partial(check_scan, lo=lo, hi=hi, steps=self.steps))]


@dataclass(frozen=True)
class Variants:
    """Cycles of ideal, weak --a A, third-ion --theta T and strong, formats alternating.

    Every cycle prints two commands as text and two as JSON, and the next
    cycle swaps them, so that samples cost the same. A sample of several
    cycles (about 80 ms) keeps its tail percentile clear of the host's
    millisecond stalls.
    """

    cycles: int = 4
    name: str = "variants"

    @property
    def items_per_sample(self) -> int:
        return 4 * self.cycles

    def control(self) -> "Variants":
        return Variants(cycles=max(1, self.cycles // 4))

    def sample(self, rng, k: int, files) -> list:
        commands = []
        out = ["--out", files.out]
        for j in range(self.cycles):
            a = rng.uniform(0.01, 5.0)
            theta = rng.uniform(0.01, 1.0)
            f0, f1 = ("text", "json") if (k * self.cycles + j) % 2 == 0 else ("json", "text")
            commands += [
                Command(["ideal", "--format", f0, *out], partial(check_ideal, fmt=f0)),
                Command(["weak", "--a", repr(a), "--format", f1, *out], partial(check_weak, a=a, fmt=f1)),
                Command(["third-ion", "--theta", repr(theta), "--format", f0, *out], partial(check_third_ion, theta=theta, fmt=f0)),
                Command(["strong", "--format", f1, *out], partial(check_strong, fmt=f1)),
            ]
        return commands


@dataclass(frozen=True)
class MonteCarlo:
    """mc --a A --seed S with A and S from the benchmark seed; optionally with the per-shot writer."""

    name: str
    shots: int
    per_shot: bool

    @property
    def items_per_sample(self) -> int:
        return self.shots

    def control(self) -> "MonteCarlo":
        return MonteCarlo(self.name, max(1, self.shots // 4), self.per_shot)

    def sample(self, rng, k: int, files) -> list:
        a = rng.uniform(0.05, 0.5)
        seed = rng.randrange(1, 2**31)
        argv = ["mc", "--a", repr(a), "--shots", str(self.shots), "--seed", str(seed), "--out", files.out]
        if self.per_shot:
            argv += ["--per-shot", files.per_shot]
        # The mc output is statistical; its accuracy probe is the exact
        # pointer statistics the sampler draws from, at the same a.
        probe = ["weak", "--a", repr(a), "--format", "json", "--out", files.out]
        return [
            Command(argv, partial(check_mc, a=a, shots=self.shots, seed=seed, per_shot=self.per_shot)),
            Command(probe, partial(check_weak, a=a, fmt="json"), timed=False),
        ]


WORKLOADS = {
    "sweep": Sweep(),
    "variants": Variants(),
    "mc_summary": MonteCarlo("mc_summary", shots=10_000_000, per_shot=False),
    "mc_per_shot": MonteCarlo("mc_per_shot", shots=500_000, per_shot=True),
}

"""Run one workload closed-loop through hardyions.cli.main and derive its metrics.

One caller, one process, no extra threads: each sample's commands run
back to back, and the next sample starts when the previous one has been
checked. An untraced run (trace=False) reports the end-to-end metrics. A
traced run alternates untraced and traced samples and reports the
per-layer metrics, plus the relative throughput lost to tracing.

Every sample runs between two control samples: the same kind of commands,
run through ``hardyions_control``, a frozen copy of the package as it was
when this benchmark was defined, in a long-lived child interpreter
(control_worker.py) that the harness waits on, so the copy shares neither
heap nor peak RSS with the package being measured. The host runs the same
code up to 1.5x slower or faster from one second to the next, depending on
load from outside the machine, and the controls see the host speed of the
sample between them. Each sample's wall time t is therefore reported as
``t * reference / control``, with control the mean of its two controls:
the time it would take on a host where a control sample takes its
reference time (CONTROL_REFERENCE_S). Run records keep the wall times as
measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import hardyions.cli
import hardyions.shots
from spans import LAYERS, Tracer
from workloads import WORKLOADS, Check, MonteCarlo

BENCH_DIR = Path(__file__).resolve().parent
CONTROL_WORKER = BENCH_DIR / "control_worker.py"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 20

# Times the import of a package in a fresh interpreter: argv is (path, package).
_IMPORT_TIMER = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "importlib.import_module(sys.argv[2])\n"
    "print(repr(time.perf_counter() - t))\n"
)

# Seconds one control sample, and one control import, take on the host the
# benchmark was defined on (2-vCPU x86-64 VM, CPython 3.11.7, numpy 2.4.6).
CONTROL_REFERENCE_S = {
    "sweep": 0.095,
    "variants": 0.018,
    "mc_summary": 0.11,
    "mc_per_shot": 0.17,
}
CONTROL_IMPORT_REFERENCE_S = 0.15

# SHA-256 of bench/hardyions_control/*.py (see source_digest). Every reported
# time is scaled by the copy, so run.py refuses to run when it has changed.
CONTROL_SHA256 = "1f2a5c603a0ca0205ac9bece1ab7d2dabaa32470fbb742f73c77c6f4d0a02cb8"

_PULSE_SPANS = (
    "pulses.beamsplitter",
    "pulses.annihilation_pulse",
    "pulses.light_shift_meter",
    "pulses.partial_ccnot",
    "pulses.strong_measurement",
)

# metric name, span names, field of Tracer.totals(), unit; values are per traced command
_SPAN_METRICS = (
    ("cli.self_s", ("cli.main",), "self_s", "s"),
    ("protocol.run_weak_gaussian.calls", ("protocol.run_weak_gaussian",), "calls", "count"),
    ("protocol.run_weak_gaussian.self_s", ("protocol.run_weak_gaussian",), "self_s", "s"),
    ("protocol.weak_values_postselected.calls", ("protocol.weak_values_postselected",), "calls", "count"),
    ("protocol.weak_values_postselected.self_s", ("protocol.weak_values_postselected",), "self_s", "s"),
    ("protocol.intermediate_state.calls", ("protocol.intermediate_state",), "calls", "count"),
    (
        "protocol.variants.self_s",
        ("protocol.run_ideal", "protocol.run_third_ion", "protocol.run_strong_comparison"),
        "self_s",
        "s",
    ),
    ("pulses.build.calls", _PULSE_SPANS, "calls", "count"),
    ("pulses.build.s", _PULSE_SPANS, "s", "s"),
    ("statecore.apply_unitary.calls", ("statecore.apply_unitary",), "calls", "count"),
    ("statecore.apply_unitary.self_s", ("statecore.apply_unitary",), "self_s", "s"),
    ("statecore.project_internal.s", ("statecore.project_internal",), "s", "s"),
    ("statecore.internal_probabilities.s", ("statecore.internal_probabilities",), "s", "s"),
    ("meter.gram_matrix.calls", ("meter.gram_matrix", "meter.cross_gram"), "calls", "count"),
    ("meter.gram_matrix.s", ("meter.gram_matrix", "meter.cross_gram"), "s", "s"),
    ("meter.moments.calls", ("meter.gaussian_mean_x", "meter.gaussian_second_moment"), "calls", "count"),
    ("meter.moments.s", ("meter.gaussian_mean_x", "meter.gaussian_second_moment"), "s", "s"),
    ("meter.to_grid.s", ("meter.to_grid",), "s", "s"),
    ("shots.prepare_experiment.s", ("shots.prepare_experiment",), "s", "s"),
    ("shots.draw_batch.calls", ("shots.draw_batch",), "calls", "count"),
    ("shots.draw_batch.s", ("shots.draw_batch",), "s", "s"),
    ("shots.merge_shot_totals.s", ("shots.merge_shot_totals",), "s", "s"),
)

END_TO_END_METRICS = ("items_per_s", "cmd_tail_ms", "peak_rss_mb", "max_rel_err", "setup_s")
PER_LAYER_METRICS = tuple(m[0] for m in _SPAN_METRICS) + (
    "cli.out_bytes",
    "shots.accept_ratio",
    "shots.kept_bytes",
    "tracing.overhead",
)


@dataclass(frozen=True)
class Files:
    """Scratch files the commands write, inside the checkout."""

    out: str
    per_shot: str


def scratch_files(out_dir: Path, workload: str) -> Files:
    out_dir.mkdir(parents=True, exist_ok=True)
    return Files(str(out_dir / f"{workload}.out"), str(out_dir / f"{workload}.shots.csv"))


class _Run:
    """Counters of one run: wall times (sample, control before, control after), failures, worst error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.worst = [0.0]
        self.untraced: list[tuple[float, float, float]] = []
        self.traced: list[tuple[float, float, float]] = []
        self.traced_commands = 0
        self.out_bytes = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _invoke(run: _Run, command, files: Files, tracer: Tracer | None) -> float:
    """Run one command through cli.main, check its output, and return its wall time."""
    run.attempted += 1
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = perf_counter()
            try:
                code = hardyions.cli.main(command.argv)
            except Exception:  # a crash is a failed command; the run goes on
                code = None
                captured.write(traceback.format_exc())
            wall = perf_counter() - start
    if code != 0:
        run.fail(f"{' '.join(command.argv)}: exit {code}: {captured.getvalue().strip()[-500:]}")
        return wall
    check = Check(run.worst)
    try:
        with open(files.out, encoding="utf-8") as fh:
            command.check(check, fh.read(), files)
    except Exception as exc:  # unparseable output is a failed check, not a crash of the run
        check.errors.append(f"unreadable output: {exc!r}")
    if check.errors:
        run.fail(f"{' '.join(command.argv)}: " + "; ".join(check.errors[:5]))
    if tracer:
        run.out_bytes += os.path.getsize(files.out)
        if "--per-shot" in command.argv:
            run.out_bytes += os.path.getsize(files.per_shot)
    return wall


def _sample(run: _Run, commands, files: Files, tracer: Tracer | None) -> float:
    wall = 0.0
    for command in commands:
        if command.timed:
            wall += _invoke(run, command, files, tracer)
            if tracer:
                run.traced_commands += 1
        else:
            _invoke(run, command, files, None)
    return wall


class ControlWorker:
    """The child interpreter that runs control samples; a context manager that waits for it to end."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(CONTROL_WORKER)], cwd=BENCH_DIR,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self, run: _Run, commands) -> float:
        """Run the control copy on a sample's timed commands; return their wall time."""
        self._proc.stdin.write(json.dumps([c.argv for c in commands if c.timed]) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"control worker ended with exit code {self._proc.wait()}")
        reply = json.loads(line)
        for failure in reply["failures"]:
            run.fail("control " + failure)
        return reply["wall"]

    def __enter__(self) -> "ControlWorker":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def normalized(samples: list[tuple[float, ...]], reference: float) -> list[float]:
    """Each sample's wall time scaled to a host on which its controls take `reference` seconds.

    samples holds (sample, control, ...) wall times; each sample is divided
    by the mean of its controls.
    """
    return [live * reference * len(controls) / sum(controls) for live, *controls in samples]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: (value, percentile, samples).

    With ten samples or fewer no percentile qualifies, and the maximum is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n
    return ordered[-1], 100.0, n


def _import_time(path: Path, package: str) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(path), package],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def measure_setup(src: Path, repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(hardyions, control copy) import times, each in a fresh interpreter.

    The two alternate which goes first, after one unrecorded warm-up of each.
    """
    pairs = []
    for i in range(repeats + 1):
        if i % 2:
            live = _import_time(src, "hardyions")
            control = _import_time(BENCH_DIR, "hardyions_control")
        else:
            control = _import_time(BENCH_DIR, "hardyions_control")
            live = _import_time(src, "hardyions")
        if i:
            pairs.append((live, control))
    return pairs


def _git_commit(root: Path) -> str | None:
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(package: Path) -> str:
    """SHA-256 over the names and contents of a package directory's .py files."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, workload, seed: int, mc_seeds: list[int]) -> dict:
    record = {
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src" / "hardyions"),
        "control_sha256": source_digest(BENCH_DIR / "hardyions_control"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": repr(float(np.finfo(np.longdouble).eps)),
        "workload": workload.name,
        "seed": seed,
        "batch_size": hardyions.shots.BATCH_SIZE,
    }
    if isinstance(workload, MonteCarlo):
        plan = hardyions.shots.batch_plan(workload.shots)
        record["batch_plan"] = {"shots": workload.shots, "batches": len(plan), "last": plan[-1]}
        record["mc_seeds"] = mc_seeds
    return record


def _layer_metrics(tracer: Tracer, run: _Run, items_per_sample: int, reference: float) -> dict:
    totals = tracer.totals()
    n = max(run.traced_commands, 1)
    # span times are sums over the traced samples, so they scale by the mean control time
    scale = reference * 2 * len(run.traced) / sum(before + after for _, before, after in run.traced)
    metrics = {}
    for name, spans, field, unit in _SPAN_METRICS:
        value = sum(totals.get(span, {}).get(field, 0) for span in spans) / n
        metrics[name] = (value * scale if unit == "s" else value, unit)
    metrics["cli.out_bytes"] = (run.out_bytes / n, "bytes")
    drawn = tracer.shots_drawn
    metrics["shots.accept_ratio"] = (tracer.shots_accepted / drawn if drawn else 0.0, "ratio")
    metrics["shots.kept_bytes"] = (tracer.kept_bytes / n, "bytes")
    plain = items_per_sample / statistics.median(normalized(run.untraced, reference))
    traced = items_per_sample / statistics.median(normalized(run.traced, reference))
    metrics["tracing.overhead"] = ((plain - traced) / plain, "ratio")
    return metrics


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's self time as a share of the traced command time."""
    totals = tracer.totals()
    command_time = totals.get("cli.main", {}).get("s", 0.0)
    shares = {}
    for layer in LAYERS:
        own = sum(t["self_s"] for name, t in totals.items() if name.startswith(layer + "."))
        shares[layer] = own / command_time if command_time else 0.0
    return shares


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    out_dir: Path,
    workload=None,
    max_samples: int | None = None,
    measure_setup_time: bool = True,
) -> dict:
    """Run one workload and return its result record (metrics, checks, provenance).

    workload overrides the registered workload of that name (tests use
    smaller sizes); max_samples caps the timed samples. With trace set,
    untraced and traced samples alternate.
    """
    workload = workload or WORKLOADS[name]
    control = workload.control()
    reference = CONTROL_REFERENCE_S[name]
    files = scratch_files(out_dir, name)
    control_files = scratch_files(out_dir, name + ".control")
    rng = random.Random(seed)
    control_rng = random.Random(seed)
    run = _Run()
    tracer = Tracer() if trace else None
    mc_seeds: list[int] = []

    def next_commands(k):
        commands = workload.sample(rng, k, files)
        if isinstance(workload, MonteCarlo):
            mc_seeds.append(int(commands[0].argv[commands[0].argv.index("--seed") + 1]))
        return commands

    setup = measure_setup(root / "src") if measure_setup_time and not trace else None

    with ControlWorker() as worker:
        # warm-up: checked, not timed
        _sample(run, next_commands(0), files, None)
        worker.sample(run, control.sample(control_rng, 0, control_files))
        # each sample runs between two control samples and is scaled by their mean
        before = worker.sample(run, control.sample(control_rng, 1, control_files))
        k = 1
        deadline = perf_counter() + seconds
        while perf_counter() < deadline and (max_samples is None or k <= max_samples):
            traced = trace and k % 2 == 0
            live_s = _sample(run, next_commands(k), files, tracer if traced else None)
            after = worker.sample(run, control.sample(control_rng, k + 1, control_files))
            (run.traced if traced else run.untraced).append((live_s, before, after))
            before = after
            k += 1

    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "samples": len(run.untraced) + len(run.traced),
        "items_per_sample": workload.items_per_sample,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:MAX_REPORTED_FAILURES],
        "provenance": provenance(root, workload, seed, mc_seeds),
        "control_reference_s": reference,
        "wall_s": {"untraced": run.untraced, "traced": run.traced},
    }
    if trace:
        if not run.traced:
            raise RuntimeError("the run was too short for a traced sample")
        metrics = _layer_metrics(tracer, run, workload.items_per_sample, reference)
        result["layer_self_share"] = layer_shares(tracer)
        result["tracer_skipped"] = sorted(tracer.skipped)
        spans_path = out_dir / f"{name}-seed{seed}-spans.csv"
        tracer.write(spans_path)
        result["spans_file"] = spans_path.name
    else:
        times = normalized(run.untraced, reference)
        value, percentile, n = tail(times)
        result["cmd_tail"] = {"percentile": percentile, "samples": n}
        metrics = {
            "items_per_s": (workload.items_per_sample / statistics.median(times), "1/s"),
            "cmd_tail_ms": (value * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "max_rel_err": (run.worst[0], "ratio"),
        }
        if setup:
            result["import_wall_s"] = setup
            metrics["setup_s"] = (statistics.median(normalized(setup, CONTROL_IMPORT_REFERENCE_S)), "s")
    result["metrics"] = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
    return result


def summary_line(result: dict) -> str:
    """The result line run.py prints last: correct, attempted, failed and the metrics."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })

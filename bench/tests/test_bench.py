"""Tests of the benchmark itself: python -m pytest bench/tests"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hardyions.cli
import harness
import spans
import workloads
from workloads import Check, MonteCarlo, Sweep, Variants

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "sweep": Sweep(steps=5),
    "variants": Variants(),
    "mc_summary": MonteCarlo("mc_summary", shots=20_000, per_shot=False),
    "mc_per_shot": MonteCarlo("mc_per_shot", shots=20_000, per_shot=True),
}


def _run(name, tmp_path, trace=False, samples=2, seed=7):
    return harness.run_workload(
        name, seed, 60.0, trace, ROOT, tmp_path, workload=TINY[name],
        max_samples=samples, measure_setup_time=False,
    )


def _command_output(tmp_path, argv):
    out = tmp_path / "out.txt"
    assert hardyions.cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_its_checks_at_a_tiny_size(name, tmp_path):
    result = _run(name, tmp_path)
    assert result["failures"] == []
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == set(harness.END_TO_END_METRICS) - {"setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_oracle_rejects_a_sign_flipped_pointer_mean(tmp_path):
    a = 0.7
    payload = json.loads(_command_output(tmp_path, ["weak", "--a", repr(a), "--format", "json"]))
    good = Check([0.0])
    workloads.check_weak(good, json.dumps(payload), None, a=a, fmt="json")
    assert good.errors == []
    payload["pointer_mean"] = -payload["pointer_mean"]
    bad = Check([0.0])
    workloads.check_weak(bad, json.dumps(payload), None, a=a, fmt="json")
    assert any("pointer_mean" in e for e in bad.errors)


def test_oracle_rejects_a_sign_flipped_scan_row(tmp_path):
    lo, hi, steps = 0.01, 5.0, 4
    text = _command_output(tmp_path, ["scan", "--min", repr(lo), "--max", repr(hi), "--steps", str(steps)])
    lines = text.splitlines()
    row = lines[2].split(",")
    row[1] = repr(-float(row[1]))
    lines[2] = ",".join(row)
    check = Check([0.0])
    workloads.check_scan(check, "\n".join(lines) + "\n", None, lo=lo, hi=hi, steps=steps)
    assert [e for e in check.errors if "mean_over_a" in e] and len(check.errors) == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_oracle_rejects_a_shifted_weak_value(fmt, tmp_path):
    a = 0.05
    text = _command_output(tmp_path, ["weak", "--a", repr(a), "--format", fmt])
    if fmt == "json":
        payload = json.loads(text)
        payload["weak_values"]["gg"][0] += 1e-3
        text = json.dumps(payload)
    else:
        assert "gg: -1.000000" in text
        text = text.replace("gg: -1.000000", "gg: -0.999000")
    check = Check([0.0])
    workloads.check_weak(check, text, None, a=a, fmt=fmt)
    assert any("weak_value[gg]" in e for e in check.errors)


def test_mc_check_rejects_a_shifted_sample_mean(tmp_path):
    a, shots, seed = 0.2, 20_000, 3
    text = _command_output(tmp_path, ["mc", "--a", repr(a), "--shots", str(shots), "--seed", str(seed)])
    payload = json.loads(text)
    good = Check([0.0])
    workloads.check_mc(good, text, None, a=a, shots=shots, seed=seed, per_shot=False)
    assert good.errors == []
    payload["sample_mean"] += 6 * payload["std_error"]
    bad = Check([0.0])
    workloads.check_mc(bad, json.dumps(payload), None, a=a, shots=shots, seed=seed, per_shot=False)
    assert any("sample mean" in e for e in bad.errors)


def test_traced_run_restores_every_wrapped_binding(tmp_path):
    def bindings():
        return [getattr(importlib.import_module(m), attr) for m, attr, _ in spans.WRAPS]

    before = bindings()
    for name in ("sweep", "mc_per_shot"):
        result = _run(name, tmp_path, trace=True, samples=2)
        assert result["failures"] == []
    after = bindings()
    assert all(a is b for a, b in zip(before, after))


def test_tracer_skips_a_binding_the_package_no_longer_has(monkeypatch):
    monkeypatch.setattr(spans, "WRAPS", spans.WRAPS + (("hardyions.cli", "run_removed", "protocol.run_removed"),))
    tracer = spans.Tracer()
    main = hardyions.cli.main
    with tracer.installed():
        assert hardyions.cli.main is not main
    assert hardyions.cli.main is main
    assert tracer.skipped == {"hardyions.cli.run_removed"}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_call_counts_repeat_for_the_same_seed(name, tmp_path):
    first = _run(name, tmp_path, trace=True, samples=4)["metrics"]
    second = _run(name, tmp_path, trace=True, samples=4)["metrics"]
    assert set(first) == set(harness.PER_LAYER_METRICS)
    exact = [k for k, m in first.items() if m["unit"] in ("count", "bytes") or k == "shots.accept_ratio"]
    assert exact and {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["statecore.apply_unitary.calls"]["value"] > 0


def test_tail_has_ten_samples_beyond_it():
    assert harness.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0, 20)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER_METRICS)


def test_control_copy_matches_its_pinned_digest():
    assert harness.source_digest(harness.BENCH_DIR / "hardyions_control") == harness.CONTROL_SHA256


def test_run_refuses_an_edited_control_copy(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "bench" / "hardyions_control" / "errors.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""

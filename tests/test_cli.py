import csv
import errno
import gzip
import io
import json
import math
import os
import subprocess
import stat
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardyions
from hardyions import cli, shots
from hardyions.cli import main
from hardyions.protocol import RunConfig, run_weak_gaussian
from test_golden import CASES, GOLDEN, PER_SHOT, x87_only

PER_SHOT_HEADER = b"shot,accepted,x_sample\r\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIdeal:
    def test_json_probabilities(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["probabilities"]["gg"] == pytest.approx(0.0625, abs=1e-12)
        assert payload["sum_of_squares"] == pytest.approx(1.0, abs=1e-12)

    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "ideal")
        assert code == 0
        assert "sum of squared amplitudes: 1.000000000000" in out
        assert out.count("\n") == 11  # header + nine states + checksum

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "state,re,im,probability"
        assert len(rows) == 10
        gg = rows[1].split(",")
        assert gg[0] == "gg"
        assert float(gg[1]) == pytest.approx(-0.25, abs=1e-12)


class TestWeak:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "weak", "--a", "0.05", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weak_values"]["gg"][0] == pytest.approx(-1.0, abs=1e-12)
        assert payload["pointer_mean"] == pytest.approx(payload["closed_form_mean"], rel=1e-12)

    def test_sigma_scales_lengths(self, capsys):
        _, out1, _ = run_cli(capsys, "weak", "--a", "0.05", "--format", "json")
        _, out2, _ = run_cli(capsys, "weak", "--a", "0.05", "--sigma", "2.0", "--format", "json")
        mean1 = json.loads(out1)["pointer_mean"]
        mean2 = json.loads(out2)["pointer_mean"]
        assert mean2 == pytest.approx(2.0 * mean1, rel=1e-12)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_moments_rejected(self, capsys, fmt):
        # at a = 1e300 the pointer's second moment overflows a double
        code, out, err = run_cli(capsys, "weak", "--a", "1e300", "--format", fmt)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_subnormal_sigma_still_runs(self, capsys):
        # weak takes no RunConfig, so the Monte-Carlo bound on sigma^2 does not apply
        code, out, err = run_cli(capsys, "weak", "--sigma", "1e-320")
        assert (code, err) == (0, "")
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["closed-form mean"] == "5e-322"
        assert abs(float(lines["pointer mean"]) - 5e-322) <= 2 * 5e-324

    @pytest.mark.parametrize(
        "argv, code", [(["--a", "1", "--sigma", "1e160"], 2), (["--a", "1e200", "--sigma", "1e-100"], 0)]
    )
    def test_extreme_sigma_still_reports_lengths(self, capsys, argv, code):
        # sigma scales the moments in extended precision, before they round to a double: at
        # sigma = 1e160 the reported variance (sigma^2 = 1e320) overflows one; at a/sigma = 1e200
        # the unit meter's <x^2>, about 2e399, fits only the extended precision, and the reported
        # variance, about 1.6e199, fits a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli(capsys, "weak", *argv, "--format", "json")
        if code:
            assert result == (2, "", "error: pointer moments overflow a double\n")
        else:
            assert result[0::2] == (0, "")
            payload = json.loads(result[1], parse_constant=lambda constant: pytest.fail(f"not JSON: {constant}"))
            assert payload["pointer_mean"] == payload["closed_form_mean"] == -2e99
            assert math.isfinite(payload["pointer_variance"])

    @pytest.mark.parametrize("ratio, sigma", [(1.7, 3.1), (0.7, 0.37)])
    def test_engine_runs_the_entered_ratio(self, capsys, monkeypatch, ratio, sigma):
        assert ratio * sigma / sigma != ratio  # a round trip through the length would move the engine
        calls = []  # the one weak entry, which the benchmark's tracer wraps
        monkeypatch.setattr(cli, "run_weak_gaussian", lambda *args: calls.append(args) or run_weak_gaussian(*args))
        _, out, _ = run_cli(capsys, "weak", "--a", repr(ratio), "--sigma", repr(sigma), "--format", "json")
        assert calls == [(ratio, sigma)]
        report = run_weak_gaussian(ratio, sigma)
        assert report.conditional_pointer.meter.points.tolist() == [0.0, -ratio]
        assert json.loads(out) == report.to_json_dict()
        assert report.postselection_probability == run_weak_gaussian(ratio).postselection_probability

    def test_midpoint_overflow_prints_only_the_error(self):
        # a fresh interpreter with the default warning filters, as a user runs it: a numpy
        # overflow warning would reach stderr ahead of the error line
        env = {**os.environ, "PYTHONPATH": str(Path(hardyions.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "hardyions.cli", "weak", "--a", "1.7e308"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: pointer moments overflow a double"]


class TestScan:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--min", "0.1", "--max", "1.0", "--steps", "10")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "a_over_sigma,mean_over_a,closed_form_over_a,probability"
        assert len(rows) == 11

    def test_mean_columns_agree(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--min", "0.1", "--max", "3.0", "--steps", "30")
        for row in csv.DictReader(out.splitlines()):
            simulated = float(row["mean_over_a"])
            closed = float(row["closed_form_over_a"])
            assert abs(simulated - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_sign_change_bracketed(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--min", "0.01", "--max", "5.0", "--steps", "100")
        rows = list(csv.DictReader(out.splitlines()))
        threshold = math.sqrt(8.0 * math.log(2.0))
        flips = [
            (float(rows[i]["a_over_sigma"]), float(rows[i + 1]["a_over_sigma"]))
            for i in range(len(rows) - 1)
            if float(rows[i]["mean_over_a"]) > 0.0 >= float(rows[i + 1]["mean_over_a"])
        ]
        assert len(flips) == 1
        low, high = flips[0]
        assert low <= threshold <= high

    def test_single_step_rejected(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--steps", "1")
        assert code == 2
        assert "steps" in err

    def test_invalid_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--min", "0.0", "--max", "1.0")
        assert code == 2
        code, _, _ = run_cli(capsys, "scan", "--min", "2.0", "--max", "1.0")
        assert code == 2

    @pytest.mark.parametrize(
        "low, high",
        [("1e-300", "2e-300"), ("1e-300", "1.0")],  # a/sigma * 1e-100 underflows at every point; at the first only
        ids=["all", "some"],
    )
    def test_ratios_that_underflow_as_lengths_run(self, capsys, low, high):
        # every column is a ratio: the rows are those of sigma = 1, though a/sigma * sigma underflows to 0
        argv = ("scan", "--min", low, "--max", high, "--steps", "3")
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        assert run_cli(capsys, *argv, "--sigma", "1e-100") == expected

    @pytest.mark.parametrize("sigma", ["0", "-1", "inf", "nan", "1e-400"])
    def test_invalid_sigma_still_rejected(self, capsys, sigma):
        code, out, err = run_cli(capsys, "scan", "--steps", "3", "--sigma", sigma)
        assert (code, out) == (2, "")
        assert err.startswith("error: sigma must be a positive finite length, got ")

    def test_range_near_the_largest_double_does_not_overflow(self, capsys):
        # max - min overflows a double here, though every point of the range is finite
        code, out, err = run_cli(capsys, "scan", "--min", "1", "--max", "1e308", "--steps", "3")
        assert code == 2
        assert out == ""
        assert "inf" not in err
        assert err == "error: pointer moments overflow a double\n"

    def test_huge_step_count_rejected_before_allocating(self):
        # a fresh interpreter capped at 1 GiB of address space: building 10^12 points would
        # raise MemoryError there instead of exhausting the machine
        env = {**os.environ, "PYTHONPATH": str(Path(hardyions.__file__).parents[1])}
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from hardyions.cli import main\n"
            "sys.exit(main(['scan', '--steps', str(10**12)]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: need at most {cli.MAX_SCAN_STEPS} scan steps, got {10**12}\n"

    def test_step_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_STEPS", 5)
        code, out, _ = run_cli(capsys, "scan", "--steps", "5")
        assert code == 0
        assert len(out.splitlines()) == 6
        code, out, err = run_cli(capsys, "scan", "--steps", "6")
        assert code == 2
        assert out == ""
        assert err == "error: need at most 5 scan steps, got 6\n"


class TestMonteCarlo:
    def test_deterministic_json(self, capsys):
        argv = ("mc", "--a", "0.05", "--sigma", "1", "--shots", "20000", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["total"] == 20000
        assert payload["seed"] == 7

    def test_engine_runs_the_entered_ratio(self, capsys, monkeypatch):
        # a * sigma / sigma != a here: a round trip through the length moved the threshold by one ulp
        assert 0.67 * 3.1 / 3.1 != 0.67
        prepared = []
        prepare = shots.prepare_experiment
        monkeypatch.setattr(shots, "prepare_experiment", lambda config: prepared.append(prepare(config)) or prepared[-1])
        assert cli.main(["mc", "--a", "0.67", "--sigma", "3.1", "--shots", "1000"]) == 0
        capsys.readouterr()
        assert [p.config.a for p in prepared] == [0.67]
        assert prepared[0].accept_below.hex() == "0x1.37e078e71bc3cp-4"

    def test_acceptance_near_one_sixteenth(self, capsys):
        _, out, _ = run_cli(capsys, "mc", "--shots", "100000", "--seed", "1")
        payload = json.loads(out)
        fraction = payload["accepted"] / payload["total"]
        assert abs(fraction - 1.0 / 16.0) < 5.0 * math.sqrt(0.0625 * 0.9375 / 100000)

    def test_zero_shots_rejected(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--shots", "0")
        assert code == 2
        assert "shot" in err

    def test_zero_accepted_exits_3(self, capsys):
        from hardyions.protocol import RunConfig
        from hardyions.shots import run_experiment_mc

        rejecting_seed = next(
            seed
            for seed in range(20)
            if run_experiment_mc(RunConfig(a=0.05, shots=1, seed=seed)).accepted == 0
        )
        code, out, _ = run_cli(capsys, "mc", "--shots", "1", "--seed", str(rejecting_seed))
        assert code == 3
        assert json.loads(out)["sample_mean"] is None

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_moments_fail_before_sampling(self, capsys, monkeypatch, fmt):
        # at a = 1e300 the pointer's second moment overflows a double: the run is
        # rejected before the sampling grid is evaluated or any batch is drawn
        calls = []
        draw_batch, to_grid = shots.draw_batch, shots.to_grid
        monkeypatch.setattr(shots, "draw_batch", lambda *args: calls.append("draw") or draw_batch(*args))
        monkeypatch.setattr(shots, "to_grid", lambda *args: calls.append("grid") or to_grid(*args))
        code, out, err = run_cli(capsys, "mc", "--a", "1e300", "--shots", "1000", "--format", fmt)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""
        assert calls == []
        # the counters see the grid and the batch of a run that fits a double
        assert run_cli(capsys, "mc", "--a", "1e150", "--shots", "1000", "--format", fmt)[0] == 0
        assert calls == ["grid", "draw"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_sum_of_squares_rejected(self, capsys, tmp_path, fmt):
        # each sample's square fits a double here, but the sum of some 300 of them does not: the
        # run printed "std_error": NaN, which is not JSON
        path = tmp_path / "shots.csv"
        path.write_bytes(stale(1 << 16))
        argv = ["mc", "--a", "5e153", "--shots", "1000", "--format", fmt]
        code, out, err = run_cli(capsys, *argv, "--per-shot", str(path))
        assert (code, out) == (2, "")
        assert err == "error: the sum of the squared pointer samples overflows a double\n"
        # the totals are merged after the last batch is written, so every row is in the file
        rows = path.read_bytes().split(b"\r\n")
        assert rows[0] + b"\r\n" == PER_SHOT_HEADER and rows[-1] == b"" and len(rows) == 1002

    @pytest.mark.parametrize(
        "argv", [["--a", "1e152", "--shots", "18000"], ["--sigma", "1e153", "--shots", "1000"],
                 ["--a", "5e153", "--shots", "3"]]
    )
    def test_sum_of_squares_checked_on_the_totals(self, capsys, argv):
        # samples far out on the grid, whose totals still fit a double, give a finite result
        def strict(constant):
            raise ValueError(f"not JSON: {constant}")

        code, out, err = run_cli(capsys, "mc", *argv, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=strict)
        assert math.isfinite(payload["sample_mean"])
        assert payload["std_error"] is None or payload["std_error"] > 0.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--a", "0", "--sigma", "1e154"], "the sum of the squared pointer samples overflows a double"),
            (["--a", "1e154", "--sigma", "2.35482004503"], "the sum of the squared pointer samples overflows a double"),
            (["--a", "1e-310", "--sigma", "1e154"], "the sum of the squared pointer samples overflows a double"),
            (["--sigma", "1.7e308"], "pointer moments overflow a double"),
        ],
    )
    def test_huge_lengths_fail_without_a_warning(self, capsys, argv, message):
        # the sampling grid is in units of sigma, so no position on it overflows; a sum of squared
        # samples or a moment that overflows a double is a usage error, and nothing warns first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, "mc", *argv, "--shots", "1000") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("per_shot", [False, True])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_sigma_with_subnormal_square_rejected(self, capsys, tmp_path, fmt, per_shot):
        # at sigma = 1e-170 the pointer's normalization (2 pi sigma^2)^(-1/4) divides by zero
        path = tmp_path / "shots.csv"
        argv = ["mc", "--sigma", "1e-170", "--shots", "10", "--format", fmt]
        code, out, err = run_cli(capsys, *argv, *(["--per-shot", str(path)] if per_shot else []))
        assert code == 2
        assert err.startswith("error:") and "sigma" in err
        assert out == ""
        assert not path.exists()

    def test_per_shot_csv(self, capsys, tmp_path):
        path = tmp_path / "shots.csv"
        code, out, _ = run_cli(
            capsys, "mc", "--shots", "500", "--seed", "2", "--per-shot", str(path)
        )
        assert code == 0
        payload = json.loads(out)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 500
        accepted_rows = [r for r in rows if r["accepted"] == "1"]
        assert len(accepted_rows) == payload["accepted"]
        assert all(r["x_sample"] == "" for r in rows if r["accepted"] == "0")
        assert all(r["x_sample"] != "" for r in accepted_rows)

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_summary_is_the_per_shot_runs_prefix(self, capsys, tmp_path, seed):
        # the offsets are drawn after each batch's count and samples, so the summary does not move
        argv = ["mc", "--a", "0.3", "--shots", str(2 * shots.BATCH_SIZE + 999), "--seed", str(seed), "--format", "text"]
        summary = run_cli(capsys, *argv)
        assert summary == run_cli(capsys, *argv, "--per-shot", str(tmp_path / "shots.csv"))
        assert summary[0] == 0


def reference_per_shot(batches):
    """The per-shot file as a csv-module writer loop over every shot writes it."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["shot", "accepted", "x_sample"])
    for first_shot, size, hits, samples in batches:
        x_samples = dict(zip(hits.tolist(), samples.tolist()))
        for offset in range(size):
            if offset in x_samples:
                writer.writerow([first_shot + offset, 1, repr(x_samples[offset])])
            else:
                writer.writerow([first_shot + offset, 0, ""])
    return fh.getvalue()


def write_reference_per_shot(path, batches):
    Path(path).write_text(reference_per_shot(batches), encoding="utf-8", newline="")


# first shots at and around every power of ten up to 10**18, where rows gain a digit, around
# 2**62, and at every multiple of 1000, where the writer's blocks of rows start: the whole int64 range
FIRST_SHOTS = st.one_of(
    st.builds(lambda p, d: max(0, 10**p + d), st.integers(0, 18), st.integers(-5000, 5000)),
    st.builds(lambda d: 2**62 + d, st.integers(-5000, 5000)),
    st.builds(lambda m, d: max(0, 1000 * m + d), st.integers(0, 10**9), st.integers(-3, 3)),
)
# every form repr gives a float: signed zero, integral, small and large exponents, subnormal, max
REPR_FORMS = [-0.0, 2.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308]


class TestPerShotWriter:
    def test_rows_match_csv_module_across_batches(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(shots, "BATCH_SIZE", 5)
        seen = set()
        for shot_count, seed in [(1, 0), (203, 1), (203, 2), (203, 3), (200, 4), (203, 5), (203, 6)]:
            path = tmp_path / f"{seed}.csv"
            code, out, _ = run_cli(
                capsys, "mc", "--a", "0.3", "--shots", str(shot_count), "--seed", str(seed),
                "--per-shot", str(path),
            )
            batches = []
            result = shots.run_experiment_mc(
                RunConfig(a=0.3, shots=shot_count, seed=seed),
                on_batch=lambda *batch: batches.append(batch),
            )
            assert code == (3 if result.accepted == 0 else 0)
            assert json.loads(out) == result.to_json_dict()
            write_reference_per_shot(tmp_path / "reference.csv", batches)
            assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
            for _, size, hits, _ in batches:
                assert hits.dtype == np.intp
                if len(hits) == 0:
                    seen.add("batch without an accepted shot")
                    continue
                if hits[0] == 0:
                    seen.add("accepted first row")
                if hits[-1] == size - 1:
                    seen.add("accepted last row")
                if (np.diff(hits) == 1).any():
                    seen.add("two accepted rows in a row")
            if batches[-1][1] < shots.BATCH_SIZE:
                seen.add("final partial batch")
            if result.accepted == 0:
                seen.add("run without an accepted shot")
        assert seen == {
            "batch without an accepted shot",
            "accepted first row",
            "accepted last row",
            "two accepted rows in a row",
            "final partial batch",
            "run without an accepted shot",
        }

    @settings(max_examples=150, deadline=None)
    @given(
        first_shot=FIRST_SHOTS,
        length=st.integers(1, 5000),
        hit_set=st.sampled_from(["empty", "full", "random"]),
        seed=st.integers(0, 2**32 - 1),
        values=st.lists(
            st.one_of(st.sampled_from(REPR_FORMS), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1, max_size=8,
        ),
    )
    def test_batch_bytes_match_csv_module(self, first_shot, length, hit_set, seed, values):
        rng = np.random.default_rng(seed)
        hits = {
            "empty": np.empty(0, dtype=np.intp),
            "full": np.arange(length),
            "random": np.flatnonzero(rng.random(length) < rng.random()),
        }[hit_set]
        samples = np.resize(np.array(values), len(hits))
        written = [PER_SHOT_HEADER.decode()]
        cli._write_per_shot_batch(written.append, first_shot, length, hits, samples)
        # row by row, so that a failure reports the first wrong row rather than diffing the whole text
        got = "".join(written).split("\r\n")
        want = reference_per_shot([(first_shot, length, hits, samples)]).split("\r\n")
        assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None
        assert len(got) == len(want)

    def test_each_write_is_bounded(self, capsys, tmp_path, monkeypatch):
        # Writing a whole batch in one call raised the benchmark's mc_per_shot peak_rss_mb
        # from 47.1 to 51.6 MB; one 1000-row block per call (about 12 KB) keeps it at or below
        # the per-row writer's. The largest write must not grow with the batch.
        write_batch = cli._write_per_shot_batch

        def largest_write(batch_size):
            monkeypatch.setattr(shots, "BATCH_SIZE", batch_size)
            sizes = []
            monkeypatch.setattr(
                cli, "_write_per_shot_batch",
                lambda write, *batch: write_batch(lambda text: sizes.append(len(text)) or write(text), *batch),
            )
            code, _, _ = run_cli(capsys, "mc", "--shots", str(2 * batch_size), "--per-shot", str(tmp_path / "x.csv"))
            assert code == 0
            assert sum(sizes) + len(PER_SHOT_HEADER) == (tmp_path / "x.csv").stat().st_size
            return max(sizes)

        assert largest_write(shots.BATCH_SIZE) <= 64 * 1024
        assert largest_write(4 * shots.BATCH_SIZE) <= 64 * 1024

    def test_memory_stays_at_one_batch(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(shots, "BATCH_SIZE", 1 << 15)

        def peak_bytes(batch_count):
            path = tmp_path / f"{batch_count}.csv"
            tracemalloc.start()
            try:
                code, _, _ = run_cli(
                    capsys, "mc", "--shots", str(batch_count * shots.BATCH_SIZE), "--per-shot", str(path)
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        peak_bytes(1)  # first-call allocations are not per-shot
        two, eight = peak_bytes(2), peak_bytes(8)
        # kept int64 outcomes would add 8 bytes per shot, six batches of them here
        assert eight - two < 8 * shots.BATCH_SIZE

    def test_zero_shots_leave_no_file(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        code, out, err = run_cli(capsys, "mc", "--shots", "0", "--per-shot", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""
        assert not path.exists()

    def test_negative_seed_leaves_no_file(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        code, out, err = run_cli(capsys, "mc", "--seed", "-1", "--per-shot", str(path))
        assert code == 2
        assert err.startswith("error:") and "seed" in err
        assert out == ""
        assert not path.exists()

    def test_unwritable_path_fails_before_sampling(self, capsys, tmp_path, monkeypatch):
        drawn = []
        draw_batch = shots.draw_batch
        monkeypatch.setattr(
            shots, "draw_batch", lambda *args: drawn.append(args[1]) or draw_batch(*args)
        )
        argv = ["mc", "--shots", str(3 * shots.BATCH_SIZE), "--per-shot"]
        code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""
        assert drawn == []
        # the counter sees the batches of a writable run
        assert run_cli(capsys, *argv, str(tmp_path / "x.csv"))[0] == 0
        assert drawn == [0, 1, 2]


class TestThirdIonCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "third-ion", "--theta", "0.1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["excited_population"] < 0.5
        assert payload["reference_shift"] == pytest.approx(math.sin(0.1) / 2.0, abs=1e-15)

    def test_out_of_range_angle(self, capsys):
        code, _, _ = run_cli(capsys, "third-ion", "--theta", "3.2")
        assert code == 2

    def test_theta_from_config_file_and_default(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("theta = 0.3\nformat = json\n")
        code, out, _ = run_cli(capsys, "third-ion", "--config", str(config))
        assert code == 0
        assert json.loads(out)["theta"] == 0.3
        _, out, _ = run_cli(capsys, "third-ion", "--format", "json")
        assert json.loads(out)["theta"] == 0.1


class TestStrongCommand:
    def test_tables(self, capsys):
        code, out, _ = run_cli(capsys, "strong", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["undisturbed"]["gg"] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert payload["disturbed"]["gg"] == pytest.approx(5.0 / 16.0, abs=1e-12)
        assert sum(payload["disturbed"].values()) == pytest.approx(1.0, abs=1e-12)


class TestPlumbing:
    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "ideal", "--bogus")
        assert code == 2

    def test_unknown_command_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "teleport")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        code, out, _ = run_cli(capsys, "ideal", "--format", "json", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["probabilities"]["gg"] == pytest.approx(0.0625)

    def test_out_file_keeps_its_mode(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        assert run_cli(capsys, "ideal", "--out", str(path))[0] == 0
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        path.chmod(0o600)
        assert run_cli(capsys, "ideal", "--format", "csv", "--out", str(path))[0] == 0
        assert path.stat().st_mode & 0o777 == 0o600

    def test_parser_keeps_no_state_between_calls(self, capsys):
        cli._parsers.cache_clear()
        _, alone, _ = run_cli(capsys, "weak")
        code, first, _ = run_cli(capsys, "weak", "--a", "3", "--format", "json")
        assert code == 0
        assert first != alone
        code, second, _ = run_cli(capsys, "weak")
        assert code == 0
        assert second == alone
        assert cli._parsers()[0] is cli._parsers()[0]

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# weak run\na = 0.2\nformat = json\n")
        code, out_cfg, _ = run_cli(capsys, "weak", "--config", str(config))
        assert code == 0
        _, out_flag, _ = run_cli(capsys, "weak", "--a", "0.2", "--format", "json")
        assert out_cfg == out_flag

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("a = 0.2\n")
        _, out, _ = run_cli(
            capsys, "weak", "--config", str(config), "--a", "0.3", "--format", "json"
        )
        _, expected, _ = run_cli(capsys, "weak", "--a", "0.3", "--format", "json")
        assert out == expected

    def test_malformed_config_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("not a key value line\n")
        code, _, err = run_cli(capsys, "weak", "--config", str(config))
        assert code == 2
        assert "key=value" in err

    def test_config_file_format_checked(self, capsys, tmp_path):
        # the file's format must be one the subcommand offers, like --format
        config = tmp_path / "run.cfg"
        config.write_text("a = 0.2\nformat = yaml\n")
        code, out, err = run_cli(capsys, "weak", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "yaml" in err
        config.write_text("format = csv\n")
        code, _, _ = run_cli(capsys, "weak", "--config", str(config))
        assert code == 2
        code, out, _ = run_cli(capsys, "scan", "--steps", "2", "--config", str(config))
        assert code == 0
        assert out.startswith("a_over_sigma,")

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("warp = 9\n")
        code, _, _ = run_cli(capsys, "weak", "--config", str(config))
        assert code == 2

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("weak", "a", "abc", "could not convert string to float: 'abc'"),
            ("mc", "shots", "1e6", "invalid literal for int() with base 10: '1e6'"),
        ],
    )
    def test_unparsable_config_value_names_file_line_and_key(self, capsys, tmp_path, command, key, value, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"# run\n{key} = {value}\n")
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: {config}:2: {key}: {message}\n"

    def test_invariant_violation_exits_4(self, capsys, monkeypatch, cold_reports):
        from hardyions import cli
        from hardyions.errors import InvariantError

        def broken():
            raise InvariantError("norm drifted")

        monkeypatch.setattr(cli, "run_ideal", broken)
        code, _, err = run_cli(capsys, "ideal")
        assert code == 4
        assert "invariant" in err


class TestUsage:
    """main parses as the full parser does: the same help, usage errors and parsed arguments."""

    @pytest.mark.parametrize(
        "argv",
        [[], ["-h"], ["bogus"], ["wea"], ["weak", "-h"], ["weak", "--a", "abc"], ["weak", "--a", "1", "extra"],
         ["weak", "--bogus", "1"], ["ideal", "--out"], ["scan", "--st", "5"], ["weak", "--a=0.5"],
         ["strong", "--format=json"]],
        ids=" ".join,
    )
    def test_same_as_the_full_parser(self, capsys, monkeypatch, argv):
        parsed = []
        resolve = cli._resolve
        monkeypatch.setattr(cli, "_resolve", lambda args: parsed.append(vars(args).copy()) or resolve(args))
        code, out, err = run_cli(capsys, *argv)
        try:
            expected = vars(cli._parsers()[0].parse_args(argv))
        except SystemExit as exc:
            assert (code, out, err) == ((exc.code or 0), *capsys.readouterr())
            assert parsed == []
        else:
            assert (code, err) == (0, "")
            assert parsed == [expected]


def stale(length):
    """Bytes, longer than length, that no command writes."""
    return b"stale\n" * (length // 6 + 100)


class TestOutputFiles:
    """--out writes over what the file held, in place; --per-shot truncates it on open."""

    @x87_only
    @pytest.mark.parametrize("name", list(CASES))
    def test_golden_bytes_over_longer_files(self, capsys, tmp_path, name):
        meta = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))[name]
        golden = (GOLDEN / f"{name}.stdout").read_bytes()
        out, per_shot = tmp_path / "out", tmp_path / "shots.csv"
        old = stale(len(golden))
        out.write_bytes(old)
        if PER_SHOT in CASES[name]:
            with gzip.open(GOLDEN / f"{name}.csv.gz", "rb") as fh:
                golden_per_shot = fh.read()
            per_shot.write_bytes(stale(len(golden_per_shot)))
        argv = [str(per_shot) if arg == PER_SHOT else arg for arg in CASES[name]]
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout, err) == (meta["exit"], "", meta["stderr"])
        # a usage error is raised before the output is opened, so the file keeps its old bytes
        assert out.read_bytes() == (old if code == 2 else golden)
        if PER_SHOT in CASES[name]:
            assert per_shot.read_bytes() == golden_per_shot

    @pytest.mark.parametrize("argv", [["ideal", "--out"], ["mc", "--shots", "1000", "--per-shot"]])
    def test_dev_null(self, capsys, argv):
        # /dev/null is seekable but cannot be truncated
        code, out, err = run_cli(capsys, *argv, os.devnull)
        assert (code, err) == (0, "")
        assert (out == "") == ("--out" in argv)

    @pytest.mark.parametrize("flag", ["--out", "--per-shot"])
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unopenable_path(self, capsys, tmp_path, flag, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
        number = errno.EISDIR if where == "directory" else errno.ENOENT
        code, out, err = run_cli(capsys, "mc", "--shots", "10", flag, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno {number}] {os.strerror(number)}: {str(path)!r}\n"

    @pytest.mark.parametrize("argv", [["ideal", "--out"], ["mc", "--shots", "1000", "--per-shot"], ["weak", "--config"]])
    def test_empty_path_cannot_be_opened(self, capsys, argv):
        # an empty path names no file: it is not read as "no path"
        code, out, err = run_cli(capsys, *argv, "")
        assert (code, out) == (2, "")
        assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''\n"

    @staticmethod
    def _drained(capsys, open_reader, out_path):
        """Run a scan of about 235 KB (over three 64 KiB pipe buffers) into out_path while a thread
        reads it through open_reader; the bytes read, and the same command's stdout."""
        argv = ["scan", "--steps", "3000"]
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and len(stdout) > 3 * 65536
        chunks = []

        def read():
            with open_reader() as fh:
                while chunk := fh.read(65536):
                    chunks.append(chunk)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        return run_cli(capsys, *argv, "--out", out_path), reader, chunks, stdout.encode()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_through_dev_fd(self, capsys):
        r, w = os.pipe()
        try:
            result, reader, chunks, expected = self._drained(
                capsys, lambda: os.fdopen(r, "rb", buffering=0, closefd=False), f"/dev/fd/{w}")
        finally:
            os.close(w)  # the reader sees the end of the text only once every write end is closed
        reader.join(timeout=60)
        os.close(r)
        assert not reader.is_alive()
        assert result == (0, "", "")
        assert b"".join(chunks) == expected

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        result, reader, chunks, expected = self._drained(capsys, lambda: open(fifo, "rb", buffering=0), str(fifo))
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert result == (0, "", "")
        assert b"".join(chunks) == expected
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)  # still a FIFO, never truncated

    def test_short_writes(self, capsys, tmp_path, monkeypatch):
        # a descriptor that takes at most 1000 bytes per call still gets the whole text
        expected = run_cli(capsys, "scan", "--steps", "300")[1].encode()
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:1000])))
        out = tmp_path / "out"
        out.write_bytes(stale(2 * len(expected)))
        assert run_cli(capsys, "scan", "--steps", "300", "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == expected

    def test_failed_per_shot_run_leaves_only_the_header(self, capsys, tmp_path):
        # the pointer moments overflow after the file is opened and its header written
        path = tmp_path / "shots.csv"
        path.write_bytes(stale(1 << 16))
        code, out, err = run_cli(capsys, "mc", "--a", "1e300", "--shots", "1000", "--per-shot", str(path))
        assert (code, out, err) == (2, "", "error: pointer moments overflow a double\n")
        assert path.read_bytes() == PER_SHOT_HEADER

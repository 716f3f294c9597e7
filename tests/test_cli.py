import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hardyions
from hardyions import shots
from hardyions.cli import main
from hardyions.protocol import RunConfig


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


def write_reference_per_shot(path, batches):
    """The per-shot file as a csv-module writer loop over every shot writes it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shot", "accepted", "x_sample"])
        for first_shot, accepted, samples in batches:
            taken = 0
            for offset, hit in enumerate(accepted):
                if hit:
                    writer.writerow([first_shot + offset, 1, repr(float(samples[taken]))])
                    taken += 1
                else:
                    writer.writerow([first_shot + offset, 0, ""])


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
            for _, hits, _ in batches:
                assert hits.dtype == bool
                if not hits.any():
                    seen.add("batch without an accepted shot")
                if hits[0]:
                    seen.add("accepted first row")
                if hits[-1]:
                    seen.add("accepted last row")
                if (hits[1:] & hits[:-1]).any():
                    seen.add("two accepted rows in a row")
            if len(batches[-1][1]) < shots.BATCH_SIZE:
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

    def test_parser_keeps_no_state_between_calls(self, capsys):
        from hardyions.cli import build_parser

        build_parser.cache_clear()
        _, alone, _ = run_cli(capsys, "weak")
        code, first, _ = run_cli(capsys, "weak", "--a", "3", "--format", "json")
        assert code == 0
        assert first != alone
        code, second, _ = run_cli(capsys, "weak")
        assert code == 0
        assert second == alone
        assert build_parser() is build_parser()

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

    def test_invariant_violation_exits_4(self, capsys, monkeypatch):
        from hardyions import cli
        from hardyions.errors import InvariantError

        def broken():
            raise InvariantError("norm drifted")

        monkeypatch.setattr(cli, "run_ideal", broken)
        code, _, err = run_cli(capsys, "ideal")
        assert code == 4
        assert "invariant" in err

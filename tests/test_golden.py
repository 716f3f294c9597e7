"""Golden CLI outputs: every command and format, replayed byte for byte.

Each case runs ``hardyions.cli.main`` in-process and compares stdout, the
exit code, stderr and (for ``--per-shot``) the written CSV with the files
under ``tests/golden/``. The bytes were captured on x86-64 Linux, where
``numpy.longdouble`` is the x87 80-bit format; the Gram-kernel sums round
differently elsewhere, so the suite skips on other platforms.

Regenerate the files (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import gzip
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from hardyions import cli
from hardyions.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PER_SHOT = "{per_shot}"

CASES = {
    "ideal-text": ["ideal"],
    "ideal-json": ["ideal", "--format", "json"],
    "ideal-csv": ["ideal", "--format", "csv"],
    "weak-a0.05": ["weak", "--a", "0.05"],
    "weak-a0.05-json": ["weak", "--a", "0.05", "--format", "json"],
    "weak-near-sign-change-json": ["weak", "--a", "2.35482", "--format", "json"],
    "weak-sigma1.3": ["weak", "--sigma", "1.3"],
    "weak-sigma1.3-json": ["weak", "--sigma", "1.3", "--format", "json"],
    "weak-a0": ["weak", "--a", "0"],
    "weak-a0-json": ["weak", "--a", "0", "--format", "json"],
    "scan-csv": ["scan"],
    "scan-json": ["scan", "--min", "0.1", "--max", "4.0", "--steps", "25", "--format", "json"],
    "scan-sign-change-csv": ["scan", "--min", "2.3", "--max", "2.4", "--steps", "101"],
    "scan-sign-change-json": ["scan", "--min", "2.3", "--max", "2.4", "--steps", "11", "--format", "json"],
    "scan-sigma2-csv": ["scan", "--min", "0.05", "--max", "3.0", "--steps", "12", "--sigma", "2.0"],
    "third-ion-0.1": ["third-ion", "--theta", "0.1"],
    "third-ion-0.1-json": ["third-ion", "--theta", "0.1", "--format", "json"],
    "third-ion-neg1.2-json": ["third-ion", "--theta", "-1.2", "--format", "json"],
    "third-ion-0-json": ["third-ion", "--theta", "0", "--format", "json"],
    "mc-json": ["mc", "--a", "0.05", "--shots", "300000", "--seed", "3"],
    "mc-text": ["mc", "--a", "0.2", "--shots", "20000", "--seed", "7", "--format", "text"],
    "mc-none-accepted": ["mc", "--shots", "1", "--seed", "0"],
    "mc-a0": ["mc", "--a", "0", "--shots", "20000", "--seed", "2"],
    "mc-per-shot": ["mc", "--shots", "140000", "--seed", "5", "--per-shot", PER_SHOT],
    "strong-text": ["strong"],
    "strong-json": ["strong", "--format", "json"],
    "usage-scan-steps": ["scan", "--steps", "1"],
    "usage-third-ion-theta": ["third-ion", "--theta", "3.2"],
    "usage-mc-zero-shots": ["mc", "--shots", "0"],
}


def run_case(name: str, workdir: Path) -> dict:
    """stdout, stderr, exit code and per-shot CSV bytes of one case."""
    per_shot = workdir / f"{name}.csv"
    argv = [str(per_shot) if arg == PER_SHOT else arg for arg in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": out.getvalue().encode("utf-8"),
        "stderr": err.getvalue(),
        "per_shot": per_shot.read_bytes() if PER_SHOT in CASES[name] else None,
    }


def capture(workdir: Path) -> None:
    """Write the current outputs of every case as the golden files."""
    GOLDEN.mkdir(exist_ok=True)
    meta = {}
    for name in CASES:
        result = run_case(name, workdir)
        (GOLDEN / f"{name}.stdout").write_bytes(result["stdout"])
        if result["per_shot"] is not None:
            with gzip.GzipFile(GOLDEN / f"{name}.csv.gz", "wb", mtime=0) as fh:
                fh.write(result["per_shot"])
        meta[name] = {"argv": CASES[name], "exit": result["exit"], "stderr": result["stderr"]}
    (GOLDEN / "cases.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


x87_only = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="golden bytes were captured with the x87 80-bit longdouble",
)


@x87_only
@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_is_byte_identical(name, tmp_path):
    meta = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))[name]
    assert meta["argv"] == CASES[name]
    result = run_case(name, tmp_path)
    assert result["exit"] == meta["exit"]
    assert result["stderr"] == meta["stderr"]
    assert result["stdout"] == (GOLDEN / f"{name}.stdout").read_bytes()
    if result["per_shot"] is not None:
        with gzip.open(GOLDEN / f"{name}.csv.gz", "rb") as fh:
            assert result["per_shot"] == fh.read()


@x87_only
def test_parameter_free_outputs_cold_and_warm(cold_reports, tmp_path):
    # ideal and strong are evaluated once per process: the first pass evaluates, the second reuses
    for _ in range(2):
        for name in ("ideal-text", "ideal-json", "ideal-csv", "strong-text", "strong-json"):
            assert run_case(name, tmp_path)["stdout"] == (GOLDEN / f"{name}.stdout").read_bytes()


@x87_only
def test_parameter_free_outputs_rendered_once_per_format(cold_reports, monkeypatch, tmp_path):
    # the first call per format evaluates and renders, the next four reuse its text
    calls = []
    for name in ("run_ideal", "run_strong_comparison"):
        run = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda run=run, name=name: calls.append(name) or run())
    names = ("ideal-text", "ideal-json", "ideal-csv", "strong-text", "strong-json")
    for _ in range(5):
        for name in names:
            assert run_case(name, tmp_path)["stdout"] == (GOLDEN / f"{name}.stdout").read_bytes()
    assert calls == ["run_ideal"] * 3 + ["run_strong_comparison"] * 2


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        capture(Path(tmp))
    sys.exit(0)

"""Run the benchmark on several seeds and report each metric's median and quartile spread.

    python3 bench/spread.py --workload sweep --seeds 1-10 [--json FILE]

Each run is a fresh untraced `python3 bench/run.py` process of run_seconds
(from BENCHMARK.json), one after another. The
spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), the figure BENCHMARK.json's bounds
apply to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    parser.add_argument("--json", metavar="FILE", default=None, help="also write the runs and summary to FILE")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
        }
        spread = summary[name]["spread"]
        print(f"{name:45s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread "
              + (f"{spread:.4f}" if spread is not None else "n/a"))
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                               "runs": runs, "summary": summary}, indent=2) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

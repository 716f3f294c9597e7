"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout: imports the package from src/,
drives hardyions.cli.main in-process, writes its scratch files, the run
record and (when tracing) the spans under .bench_out/, and prints the
result as the last line of standard output. Exits with code 2, printing
no result, when the checkout has no package source or the frozen control
copy (bench/hardyions_control) has been edited.
"""

import os

# One thread for numpy/BLAS, in this process and in the interpreters it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for this process and the interpreters it starts, so that the
# control samples run on the CPU whose speed they stand for.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hardyions" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import hardyions

    if not Path(hardyions.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hardyions from {hardyions.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if harness.source_digest(harness.BENCH_DIR / "hardyions_control") != harness.CONTROL_SHA256:
        print("error: bench/hardyions_control differs from the copy the benchmark was defined with",
              file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, OUT_DIR)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(result["provenance"]))
    if result["failures"]:
        print("failures " + json.dumps(result["failures"]))
    if "cmd_tail" in result:
        print("cmd_tail_ms is p{percentile:.1f} of {samples} samples".format(**result["cmd_tail"]))
    print(harness.summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs the harness's control samples in an interpreter of their own.

    python3 bench/control_worker.py

Reads one JSON list of CLI argument vectors per line from standard input,
runs them one after another through ``hardyions_control.cli.main`` with
their console output captured, and answers each line with one JSON object,
``{"wall": seconds, "failures": [...]}``. Exits at the end of its input.

The control copy runs here rather than in the harness's process so that it
shares neither heap nor peak RSS with the package being measured.
"""

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

import hardyions_control.cli


def run_sample(argvs: list[list[str]]) -> dict:
    wall = 0.0
    failures = []
    for argv in argvs:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = perf_counter()
            try:
                code = hardyions_control.cli.main(argv)
            except Exception:  # reported as a failed control command
                code = None
                captured.write(traceback.format_exc())
            wall += perf_counter() - start
        if code != 0:
            failures.append(f"{' '.join(argv)}: exit {code}: {captured.getvalue().strip()[-500:]}")
    return {"wall": wall, "failures": failures}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_sample(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

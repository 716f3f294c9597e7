"""Distance from the oracle of weak runs at sigma != 1, for this tree against another source tree.

Runs `weak --a t --sigma s --format json` in-process, through cli.main, at
200 seeded t in [0.01, 6] for each s in {0.37, 1.3, 3.1}, once with this
tree's src/ and once with the src/ given by --parent (say, a `git archive`
of the parent commit). The reference is what the command is asked for:
bench/oracle.py at the entered a/sigma = t, times s for the mean and s^2 for
the variance, so a tree that rounds t * s on the way counts that as error. For the mean
and the variance at each s it prints how many values the tree moved nearer
the oracle and how many farther, and the worst error of each tree in eps,
measured as tests/test_oracle.py measures it (the mean relative to kappa).
It exits 1 if, at some s, more values moved farther than nearer, or an
error of this tree exceeds the 16-eps bound of tests/test_oracle.py.

    python tests/scale_oracle_distance.py --parent /path/to/parent/src [--seed N]
"""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIGMAS = (0.37, 1.3, 3.1)
POINTS = 200
SEED = 21
BOUND_EPS = 16.0


def ratios(seed: int) -> list[float]:
    import numpy as np

    return np.random.default_rng(seed).uniform(0.01, 6.0, POINTS).tolist()


def outputs(src: Path, seed: int) -> dict:
    """{sigma: [(t, mean, variance), ...]} from `weak --a t --sigma s --format json` of the package under src."""
    script = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from hardyions import cli\n"
        f"sys.path.insert(0, {str(ROOT / 'tests')!r})\n"
        "from scale_oracle_distance import SIGMAS, ratios\n"
        "rows = {}\n"
        "for s in SIGMAS:\n"
        "    rows[s] = []\n"
        f"    for t in ratios({seed}):\n"
        "        out = io.StringIO()\n"
        "        with contextlib.redirect_stdout(out):\n"
        "            assert cli.main(['weak', '--a', repr(t), '--sigma', repr(s), '--format', 'json']) == 0\n"
        "        r = json.loads(out.getvalue())\n"
        "        rows[s].append((t, r['pointer_mean'], r['pointer_variance']))\n"
        "print(json.dumps({repr(s): rows[s] for s in SIGMAS}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    return {float(s): rows for s, rows in json.loads(out).items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the src/ directory to compare against")
    parser.add_argument("--seed", type=int, default=SEED, help=f"seed of the ratios t (default {SEED})")
    args = parser.parse_args()
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "bench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    eps = oracle.mpf(2) ** -52
    new, old = outputs(ROOT / "src", args.seed), outputs(args.parent, args.seed)
    ok = True
    for s in SIGMAS:
        counts = {"mean": [0, 0], "variance": [0, 0]}
        worst = {"mean": [0.0, 0.0], "variance": [0.0, 0.0]}
        for (t, *got_new), (t_old, *got_old) in zip(new[s], old[s]):
            assert t == t_old
            kappa = oracle.mean_condition(t)
            refs = {"mean": s * oracle.pointer_mean(t), "variance": oracle.mpf(s) ** 2 * oracle.pointer_variance(t)}
            scales = {"mean": abs(refs["mean"]) * kappa, "variance": abs(refs["variance"])}
            for name, x_new, x_old in zip(refs, got_new, got_old):
                d_new, d_old = abs(oracle.mpf(x_new) - refs[name]), abs(oracle.mpf(x_old) - refs[name])
                counts[name][0] += d_new < d_old
                counts[name][1] += d_new > d_old
                for side, d in enumerate((d_new, d_old)):
                    worst[name][side] = max(worst[name][side], float(d / scales[name] / eps))
        for name in counts:
            nearer, farther = counts[name]
            print(f"sigma {s}: {name} nearer/farther {nearer}/{farther}, "
                  f"worst error {worst[name][0]:.2f} eps (parent {worst[name][1]:.2f} eps)")
            ok &= nearer >= farther and worst[name][0] <= BOUND_EPS
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

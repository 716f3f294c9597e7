"""Command-line driver for the experiments and parameter scans.

Lengths are entered in units of sigma (the ground-state width of the
relative coordinate): --a is a/sigma. Exit codes: 0 success, 2 usage
error, 3 statistical failure (no shot post-selected), 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache, partial

import numpy as np

from .errors import InvariantError, PostSelectionError
from .protocol import (
    RunConfig,
    run_ideal,
    run_strong_comparison,
    run_third_ion,
    run_weak_gaussian,
)
from .shots import run_experiment_mc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STATISTICAL = 3
EXIT_INTERNAL = 4

_DEFAULTS = {**asdict(RunConfig()), "theta": 0.1}
# The run parameters, each taken from its flag or a config key of the same name: (type, help).
_PARAMS = {
    "a": (float, "light-shift displacement in units of sigma"),
    "sigma": (float, "pointer ground-state width"),
    "theta": (float, "partial C2-NOT rotation angle in radians"),
    "shots": (int, "number of experimental shots"),
    "seed": (int, "random seed"),
}
_CONFIG_TYPES = {**{key: kind for key, (kind, _) in _PARAMS.items()}, "format": str}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="hardyions",
        description="Two-ion interferometer with weakly coupled meters: "
        "exact predictions, parameter scans, and Monte-Carlo shot statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats):
        # the first format is the default
        p.add_argument("--format", choices=formats, default=None, help=f"output format (default {formats[0]})")
        p.add_argument("--out", metavar="FILE", default=None, help="write output to FILE instead of stdout")
        p.add_argument("--config", metavar="FILE", default=None, help="key=value file; explicit flags override it")
        p.set_defaults(formats=formats)

    def add_params(p, *names):
        for name in names:
            p.add_argument(f"--{name}", type=_PARAMS[name][0], default=None, help=_PARAMS[name][1])

    p = sub.add_parser("ideal", help="bare interferometer: final amplitudes and outcome table")
    add_common(p, ("text", "json", "csv"))

    p = sub.add_parser("weak", help="weak measurement via the light-shift meter, post-selected on gg")
    add_params(p, "a", "sigma")
    add_common(p, ("text", "json"))

    p = sub.add_parser("scan", help="sweep a/sigma and tabulate the conditional pointer mean")
    p.add_argument("--min", type=float, default=0.01, help="lower end of the a/sigma range")
    p.add_argument("--max", type=float, default=5.0, help="upper end of the a/sigma range")
    p.add_argument("--steps", type=int, default=100, help="number of scan points (>= 2)")
    add_params(p, "sigma")
    add_common(p, ("csv", "json"))

    p = sub.add_parser("third-ion", help="weak measurement with a third-ion qubit meter")
    add_params(p, "theta")
    add_common(p, ("text", "json"))

    p = sub.add_parser("mc", help="Monte-Carlo simulation of repeated shots")
    add_params(p, "a", "sigma", "shots", "seed")
    p.add_argument("--per-shot", metavar="FILE", default=None, help="also write per-shot CSV to FILE")
    add_common(p, ("json", "text"))

    p = sub.add_parser("strong", help="projective intermediate measurement versus the undisturbed run")
    add_common(p, ("text", "json"))

    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    return values


def _resolve(args) -> dict:
    """The subcommand's run parameters: explicit flag, else config file, else default."""
    file_values = _read_config_file(args.config) if args.config else {}
    resolved = {}
    for key in _PARAMS:
        if hasattr(args, key):
            flag = getattr(args, key)
            resolved[key] = flag if flag is not None else file_values.get(key, _DEFAULTS[key])
    fmt = args.format if args.format is not None else file_values.get("format", args.formats[0])
    if fmt not in args.formats:
        raise ValueError(f"{args.config}: format must be one of {', '.join(args.formats)}, got {fmt!r}")
    resolved["format"] = fmt
    return resolved


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each command runs its experiment and returns the JSON payload, the text
# rendering used by every other format, and the exit code.


def _cmd_ideal(args, opts):
    payload = run_ideal().to_json_dict()
    if opts["format"] == "csv":
        lines = ["state,re,im,probability"]
        for label, (re, im) in payload["amplitudes"].items():
            lines.append(f"{label},{re!r},{im!r},{payload['probabilities'][label]!r}")
    else:
        lines = ["state  amplitude                 probability"]
        for label, (re, im) in payload["amplitudes"].items():
            lines.append(f"{label}     {re:+.12f}{im:+.12f}j  {payload['probabilities'][label]:.12f}")
        lines.append(f"sum of squared amplitudes: {payload['sum_of_squares']:.12f}")
    return payload, "\n".join(lines) + "\n", EXIT_OK


def _cmd_weak(args, opts):
    report = run_weak_gaussian(opts["a"] * opts["sigma"], opts["sigma"])
    wv = "  ".join(f"{k}: {v.real + 0.0:+.6f}" for k, v in report.weak_values.items())
    text = (
        f"post-selection probability: {report.postselection_probability:.12f}\n"
        f"weak values: {wv}\n"
        f"pointer mean: {report.pointer_mean!r}\n"
        f"closed-form mean: {report.closed_form_mean!r}\n"
        f"pointer variance: {report.pointer_variance!r}\n"
    )
    return report.to_json_dict(), text, EXIT_OK


def _cmd_scan(args, opts):
    if args.steps < 2:
        raise ValueError(f"need at least 2 scan steps, got {args.steps}")
    if not 0.0 < args.min < args.max:
        raise ValueError(f"need 0 < min < max, got [{args.min}, {args.max}]")
    sigma = opts["sigma"]
    ratios = [args.min + (args.max - args.min) * i / (args.steps - 1) for i in range(args.steps)]
    lengths = [aos * sigma for aos in ratios]
    report = run_weak_gaussian(np.array(lengths), sigma)
    columns = (ratios, lengths, report.pointer_mean, report.closed_form_mean, report.postselection_probability)
    rows = [{"a_over_sigma": aos, "mean_over_a": mean / a, "closed_form_over_a": closed / a, "probability": p}
            for aos, a, mean, closed, p in zip(*columns)]
    lines = [",".join(rows[0]), *(",".join(map(repr, row.values())) for row in rows)]
    return rows, "\n".join(lines) + "\n", EXIT_OK


def _cmd_third_ion(args, opts):
    report = run_third_ion(opts["theta"])
    text = (
        f"theta: {report.theta!r}\n"
        f"post-selected excited population: {report.excited_population!r}\n"
        f"reference shift sin(theta)/2: {report.reference_shift!r}\n"
        f"deviation of (1/2 - P_e) from the reference: {report.deviation!r}\n"
        f"post-selection probability: {report.postselection_probability!r}\n"
    )
    return report.to_json_dict(), text, EXIT_OK


_REJECTED_ROW = "%d,0,\r\n"


def _write_per_shot_batch(write, first_shot, accepted, samples) -> None:
    """Write one batch's per-shot CSV rows, each run of rejected shots in one call.

    The bytes are those the csv module writes: rows end in \\r\\n and
    x_sample is the repr of the float, empty on rejected shots.
    """
    shot = first_shot
    accepted_shots = (np.flatnonzero(accepted) + first_shot).tolist()
    for hit, x in zip(accepted_shots, samples.tolist()):
        if hit > shot:
            write(_REJECTED_ROW * (hit - shot) % tuple(range(shot, hit)))
        write(f"{hit},1,{x!r}\r\n")
        shot = hit + 1
    end = first_shot + len(accepted)
    if end > shot:
        write(_REJECTED_ROW * (end - shot) % tuple(range(shot, end)))


def _cmd_mc(args, opts):
    config = RunConfig(
        a=opts["a"] * opts["sigma"],
        sigma=opts["sigma"],
        shots=opts["shots"],
        seed=opts["seed"],
    )
    if args.per_shot:
        # opened before sampling, so an unwritable path fails before any batch is drawn
        with open(args.per_shot, "w", encoding="utf-8", newline="") as fh:
            fh.write("shot,accepted,x_sample\r\n")
            result = run_experiment_mc(config, on_batch=partial(_write_per_shot_batch, fh.write))
    else:
        result = run_experiment_mc(config)
    text = (
        f"accepted: {result.accepted} / {result.total}\n"
        f"sample mean: {result.sample_mean!r}\n"
        f"standard error: {result.std_error!r}"
        f"{'' if result.std_error_reliable else '  (unreliable: too few accepted shots)'}\n"
    )
    return result.to_json_dict(), text, EXIT_STATISTICAL if result.accepted == 0 else EXIT_OK


def _cmd_strong(args, opts):
    report = run_strong_comparison()
    lines = ["state  undisturbed     with gg measurement inserted"]
    for label in report.undisturbed:
        lines.append(
            f"{label}     {report.undisturbed[label]:.12f}  {report.disturbed[label]:.12f}"
        )
    lines.append(f"undisturbed total: {sum(report.undisturbed.values()):.12f}")
    lines.append(f"disturbed total:   {sum(report.disturbed.values()):.12f}")
    return report.to_json_dict(), "\n".join(lines) + "\n", EXIT_OK


_COMMANDS = {
    "ideal": _cmd_ideal,
    "weak": _cmd_weak,
    "scan": _cmd_scan,
    "third-ion": _cmd_third_ion,
    "mc": _cmd_mc,
    "strong": _cmd_strong,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        opts = _resolve(args)
        payload, text, code = _COMMANDS[args.command](args, opts)
        _emit(args, json.dumps(payload, indent=2) + "\n" if opts["format"] == "json" else text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PostSelectionError as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

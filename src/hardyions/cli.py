"""Command-line driver for the experiments and parameter scans.

Lengths are entered in units of sigma (the ground-state width of the
relative coordinate): --a is a/sigma. Exit codes: 0 success, 2 usage
error, 3 statistical failure (no shot post-selected), 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from dataclasses import asdict
from functools import cache, partial

import numpy as np

from .errors import InvariantError, PostSelectionError
from .meter import check_sigma
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

MAX_SCAN_STEPS = 100_000  # a scan holds every point at once: about 1.0 KB each as CSV, 1.5 KB as JSON

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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and each command's own parser, by command name; shared, do not modify them."""
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

    return parser, sub.choices


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
    file_values = _read_config_file(args.config) if args.config is not None else {}
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
    if args.out is not None:
        # Written in place: O_TRUNC would make the file system free the old blocks only to
        # allocate them again. A regular file longer than the text is then cut to its length;
        # a device or a pipe is never truncated. Only a run killed between the writes and the
        # cut leaves old bytes after the new ones. A pipe may take fewer bytes per call.
        data = (text if os.linesep == "\n" else text.replace("\n", os.linesep)).encode("utf-8")  # as text mode
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest):]
            written = os.fstat(fd)
            if stat.S_ISREG(written.st_mode) and written.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    else:
        sys.stdout.write(text)


# Each command runs its experiment and returns the JSON payload, the text
# rendering used by every other format, and the exit code; scan builds only
# the one its format uses.


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
    report = run_weak_gaussian(opts["a"], opts["sigma"])
    wv = "  ".join(f"{k}: {v.real + 0.0:+.6f}" for k, v in report.weak_values.items())
    text = (
        f"post-selection probability: {report.postselection_probability:.12f}\n"
        f"weak values: {wv}\n"
        f"pointer mean: {report.pointer_mean!r}\n"
        f"closed-form mean: {report.closed_form_mean!r}\n"
        f"pointer variance: {report.pointer_variance!r}\n"
    )
    return report.to_json_dict(), text, EXIT_OK


_SCAN_COLUMNS = ("a_over_sigma", "mean_over_a", "closed_form_over_a", "probability")


def _cmd_scan(args, opts):
    if args.steps < 2:
        raise ValueError(f"need at least 2 scan steps, got {args.steps}")
    if args.steps > MAX_SCAN_STEPS:
        raise ValueError(f"need at most {MAX_SCAN_STEPS} scan steps, got {args.steps}")
    if not 0.0 < args.min < args.max:
        raise ValueError(f"need 0 < min < max, got [{args.min}, {args.max}]")
    check_sigma(opts["sigma"])  # every column is a ratio, so the output does not depend on a valid sigma
    # halves, so that max - min cannot overflow; the same bits wherever the halves are normal. A
    # non-finite point is check_a's to reject, as it would be for Python floats, which warn of nothing.
    i = np.arange(args.steps, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = args.min + 2.0 * ((args.max / 2.0 - args.min / 2.0) * i / (args.steps - 1))
    report = run_weak_gaussian(grid)
    columns = (grid.tolist(), report.pointer_mean, report.closed_form_mean, report.postselection_probability)
    if opts["format"] == "json":
        return [dict(zip(_SCAN_COLUMNS, (aos, mean / aos, closed / aos, p)))
                for aos, mean, closed, p in zip(*columns)], None, EXIT_OK
    # where the closed form is the mean's nonzero double, its ratio is the same double: the mean's repr
    # is reused. 0.0 == -0.0 prints two ways, and nan equals nothing, so those rows take their own repr.
    rows = [f"{aos!r},{(ratio := repr(mean / aos))},{ratio if closed == mean != 0.0 else repr(closed / aos)},{p!r}\n"
            for aos, mean, closed, p in zip(*columns)]
    return None, ",".join(_SCAN_COLUMNS) + "\n" + "".join(rows), EXIT_OK


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


_BLOCK = 1000  # rows in a block: shots k*1000 .. k*1000+999, about 12 KB, written in one call


@cache
def _block_rows() -> tuple[list[str], list[str]]:
    """Block 0's rows "0,0,\\r\\n" .. "999,0,\\r\\n", and the tails "000,0,\\r\\n" .. "999,0,\\r\\n" that str(k)
    joins into block k; each list starts with "", so that a join puts str(k) before every row. Built on first use."""
    return ["", *(f"{s},0,\r\n" for s in range(_BLOCK))], ["", *(f"{j:03d},0,\r\n" for j in range(_BLOCK))]


def _write_per_shot_batch(write, first_shot, size, hits, samples) -> None:
    """Write one batch's per-shot CSV rows, one 1000-row block (or the part of it in the batch) per call.

    hits are the sorted offsets of the accepted shots in [0, size). The bytes are those the
    csv module writes: rows end in \\r\\n and x_sample is the repr of the float, empty on
    rejected shots. Each block is a copy of its rejected rows, with each accepted row replaced.
    """
    block_0, tails = _block_rows()
    blocks = range(first_shot // _BLOCK, -(-(first_shot + size) // _BLOCK))
    taken = 0
    for k, stop in zip(blocks, np.searchsorted(hits, [(k + 1) * _BLOCK - first_shot for k in blocks]).tolist()):
        start = k * _BLOCK - first_shot  # the batch offset of the block's first row
        first = max(-start, 0)  # the first of the block's rows in the batch
        rows = (tails if k else block_0)[first : min(size - start, _BLOCK) + 1]
        rows[0] = ""  # the list's own "", or the row before the batch
        # batch offset h is row h - start of the block, at rows[h - start - first + 1]; lists of
        # one block's accepted shots only: lists of a whole batch's would outweigh the block
        for i, x in zip((hits[taken:stop] - (start + first - 1)).tolist(), samples[taken:stop].tolist()):
            rows[i] = f"{rows[i][:-4]}1,{x!r}\r\n"
        write((str(k) if k else "").join(rows))
        taken = stop


def _cmd_mc(args, opts):
    config = RunConfig(a=opts["a"], sigma=opts["sigma"], shots=opts["shots"], seed=opts["seed"])
    if args.per_shot is not None:
        # opened before sampling, so an unwritable path fails before any batch is drawn; truncated
        # on open, unlike --out, so that a run killed part-way leaves no old rows after the new
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
        lines.append(f"{label}     {report.undisturbed[label]:.12f}  {report.disturbed[label]:.12f}")
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


def _render(command, args, opts) -> tuple[str, int]:
    """The command's output text in the resolved format, and its exit code."""
    payload, text, code = _COMMANDS[command](args, opts)
    return (json.dumps(payload, indent=2) + "\n" if opts["format"] == "json" else text), code


@cache
def _render_parameter_free(command: str, fmt: str) -> tuple[str, int]:
    """ideal and strong read nothing but the format, so each format is rendered once per process."""
    return _render(command, None, {"format": fmt})


def _parse(argv):
    """The parsed arguments; a valid command is parsed only by its own parser."""
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    # no command, help, an unknown command or leftover arguments: the full parser says so
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        opts = _resolve(args)
        if args.command in ("ideal", "strong"):
            text, code = _render_parameter_free(args.command, opts["format"])
        else:
            text, code = _render(args.command, args, opts)
        _emit(args, text)
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

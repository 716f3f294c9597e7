"""Correct-rounding ratchet: the reported numbers that are not the oracle's value correctly rounded.

Every non-mc golden case, and a fixed sweep of weak runs (200 points with a in [0.01, 5] and 101
points across the sign change, each point run alone and all of them as one batch), is matched
number by number to bench/oracle.py, imported by path as tests/test_oracle.py does. Per field,
tests/golden/oracle_counts.json holds how many numbers there are, how many of them are not
correctly rounded, and the worst distance in units of the last place: ulps of a double for a
number printed with repr, units of the last printed digit for a fixed-point text field. The table
is keyed by the eps of the kernel's precision (meter._LD). The test fails when a count or a worst
distance grows, and also when one shrinks, naming the entry to lower: the table only moves down,
and each move shows in its diff.

Re-measure the table for this platform's precision (to lower it) with
``PYTHONPATH=src python tests/test_golden_oracle.py``.
"""

import csv
import importlib.util
import io
import json
import re
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hardyions import cli, meter
from hardyions.protocol import run_weak_gaussian

pytest.importorskip("mpmath")

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

GOLDEN = Path(__file__).resolve().parent / "golden"
COUNTS = GOLDEN / "oracle_counts.json"
SWEEPS = {"sweep-200": np.linspace(0.01, 5.0, 200), "sign-change-101": np.linspace(2.3, 2.4, 101)}


def exact(ref) -> Fraction:
    """The exact value of an oracle number: a Fraction, an int, or a 50-digit mpf."""
    if isinstance(ref, (Fraction, int)):
        return Fraction(ref)
    sign, man, exp, _ = ref._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def ordinal(x: float) -> int:
    """x's place among the doubles: adjacent doubles differ by 1, and -0.0 and 0.0 share 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def distance(token: str, ref, decimals: int | None = None) -> int:
    """How far a printed number lies from the reference correctly rounded: in ulps of a double where it
    is printed with repr (decimals None), else in units of its last printed digit; 0 if correctly rounded."""
    if decimals is None:
        return abs(ordinal(float(token)) - ordinal(float(exact(ref))))  # float(Fraction) rounds correctly
    scale = 10**decimals
    return abs(int(Fraction(token) * scale) - round(exact(ref) * scale))  # round(Fraction) ties to even


def weak_references(a, sigma: float = 1.0) -> dict:
    """The weak run's report at a light shift a in units of sigma: the closed form is taken at the double a * sigma."""
    length, unit = oracle.mpf(a * sigma), oracle.mpf(sigma)
    return {
        "postselection_probability": oracle.postselection_probability(a),
        "pointer_mean": unit * oracle.pointer_mean(a),
        "closed_form_mean": unit * oracle.pointer_mean(length / unit),
        "pointer_variance": unit * unit * oracle.pointer_variance(a),
    }


def scan_references(aos: float) -> dict:
    mean = oracle.pointer_mean(aos)
    return {"mean_over_a": mean / aos, "closed_form_over_a": mean / aos,
            "probability": oracle.postselection_probability(aos)}


def third_ion_references(theta: float) -> dict:
    return {key: value for key, value in oracle.third_ion(theta).items() if key != "deviation_kappa"}


def numbers(name: str, text: str, argv: list[str]):
    """(field, token, reference, decimals) of each number a golden case prints, the echoed inputs aside."""
    args = cli._parsers()[0].parse_args(argv)
    opts = cli._resolve(args)
    fmt = opts["format"]
    if args.command == "ideal":
        amps, probs = oracle.IDEAL_AMPLITUDES, oracle.IDEAL_PROBABILITIES
        if fmt == "json":
            payload = json.loads(text)
            for label, (re_, im) in payload["amplitudes"].items():
                yield from (("amplitude", repr(re_), amps[label], None), ("amplitude", repr(im), 0, None))
            yield from (("probability", repr(p), probs[label], None) for label, p in payload["probabilities"].items())
            yield "sum_of_squares", repr(payload["sum_of_squares"]), 1, None
        elif fmt == "csv":
            for row in csv.DictReader(io.StringIO(text)):
                label = row["state"]
                yield from (("amplitude", row["re"], amps[label], None), ("amplitude", row["im"], 0, None),
                            ("probability", row["probability"], probs[label], None))
        else:
            lines = text.splitlines()
            for line in lines[1:-1]:
                label, re_, im, p = re.fullmatch(r"(\w+)\s+([-+][\d.]+)([-+][\d.]+)j\s+([\d.]+)", line).groups()
                yield from (("amplitude", re_, amps[label], 12), ("amplitude", im, 0, 12),
                            ("probability", p, probs[label], 12))
            yield "sum_of_squares", lines[-1].rpartition(" ")[2], 1, 12
    elif args.command == "weak":
        refs = weak_references(opts["a"], opts["sigma"])
        if fmt == "json":
            payload = json.loads(text)
            for label, (re_, im) in payload.pop("weak_values").items():
                yield from (("weak_value", repr(re_), oracle.WEAK_VALUES[label], None),
                            ("weak_value", repr(im), 0, None))
            yield from ((field, repr(value), refs[field], None) for field, value in payload.items())
        else:
            fields = {"post-selection probability": ("postselection_probability", 12), "pointer mean": ("pointer_mean", None),
                      "closed-form mean": ("closed_form_mean", None), "pointer variance": ("pointer_variance", None)}
            for line in text.splitlines():
                key, _, value = line.partition(": ")
                if key == "weak values":
                    for label, real in re.findall(r"(\w+): ([-+][\d.]+)", value):
                        yield "weak_value", real, oracle.WEAK_VALUES[label], 6
                else:
                    field, decimals = fields[key]
                    yield field, value, refs[field], decimals
    elif args.command == "scan":
        rows = json.loads(text) if fmt == "json" else list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            refs = scan_references(float(row.pop("a_over_sigma")))
            yield from ((field, str(value), refs[field], None) for field, value in row.items())
    elif args.command == "third-ion":
        refs = third_ion_references(opts["theta"])
        if fmt == "json":
            payload = json.loads(text)
            del payload["theta"]
        else:
            keys = ("theta", "excited_population", "reference_shift", "deviation", "postselection_probability")
            payload = dict(zip(keys, (line.rpartition(": ")[2] for line in text.splitlines())))
            del payload["theta"]
        for field, value in payload.items():
            assert (value is None) == (refs[field] is None), (name, field)
            if value is not None:
                yield field, str(value), refs[field], None
    elif args.command == "strong":
        tables = {"undisturbed": oracle.IDEAL_PROBABILITIES, "disturbed": oracle.STRONG_DISTURBED}
        if fmt == "json":
            payload = json.loads(text)
            for field, table in tables.items():
                yield from ((field, repr(p), table[label], None) for label, p in payload[field].items())
            for branch, (label, probability, table) in zip(payload["branches"], oracle.STRONG_BRANCHES):
                assert branch["label"] == label
                yield "branch_probability", repr(branch["probability"]), probability, None
                yield from (("branch_table", repr(p), table[key], None) for key, p in branch["probabilities"].items())
        else:
            lines = text.splitlines()
            for line in lines[1:-2]:
                label, *values = line.split()
                yield from ((field, value, table[label], 12) for (field, table), value in zip(tables.items(), values))
            for field, line in zip(tables, lines[-2:]):
                yield f"{field}_total", line.rpartition(" ")[2], 1, 12


def sweep_numbers(points: np.ndarray, batch: bool):
    """(field, token, reference, None) of the weak runs at the sweep's points, one run each or one batch."""
    if batch:
        report = run_weak_gaussian(points)
        outputs = zip(*(getattr(report, field) for field in ("postselection_probability", "pointer_mean",
                                                             "closed_form_mean", "pointer_variance")))
    else:
        outputs = ((r.postselection_probability, r.pointer_mean, r.closed_form_mean, r.pointer_variance)
                   for r in map(run_weak_gaussian, points.tolist()))
    for a, values in zip(points.tolist(), outputs):
        yield from ((field, repr(value), ref, None) for (field, ref), value in zip(weak_references(a).items(), values))


def tally(entries) -> dict:
    """Per field: the count of numbers, of those not correctly rounded, and the worst distance."""
    fields = {}
    for field, token, ref, decimals in entries:
        d = distance(token, ref, decimals)
        entry = fields.setdefault(field, {"numbers": 0, "not_correctly_rounded": 0, "worst_ulps": 0})
        entry["numbers"] += 1
        entry["not_correctly_rounded"] += d > 0
        entry["worst_ulps"] = max(entry["worst_ulps"], d)
    return fields


def measure() -> dict:
    """The counts of every non-mc golden case with numbers, then of each sweep run alone and as a batch."""
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    table = {}
    for name, case in cases.items():
        text = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
        if case["argv"][0] != "mc" and text:
            table[name] = tally(numbers(name, text, case["argv"]))
    for name, points in SWEEPS.items():
        for mode in ("scalar", "batch"):
            table[f"{name}-{mode}"] = tally(sweep_numbers(points, mode == "batch"))
    return table


def precision_key() -> str:
    return repr(float(np.finfo(meter._LD).eps))


def test_counts_only_move_down():
    expected = json.loads(COUNTS.read_text(encoding="utf-8")).get(precision_key())
    if expected is None:
        pytest.skip(f"no counts for a kernel precision of eps {precision_key()}")
    measured = measure()
    assert {g: {f: e["numbers"] for f, e in fs.items()} for g, fs in measured.items()} == {
        g: {f: e["numbers"] for f, e in fs.items()} for g, fs in expected.items()
    }, "the cases, fields or numbers read differ from the table's"
    moves = [
        (f"{group} {field} {stat}", expected[group][field][stat], value)
        for group, fields in measured.items()
        for field, entry in fields.items()
        for stat, value in entry.items()
        if value != expected[group][field][stat]
    ]
    grown = [f"{entry}: {old} -> {new}" for entry, old, new in moves if new > old]
    assert not grown, f"further from the oracle: {grown}"
    assert not moves, "closer to the oracle; lower these entries in oracle_counts.json: " + ", ".join(
        f"{entry}: {old} -> {new}" for entry, old, new in moves
    )


if __name__ == "__main__":
    table = json.loads(COUNTS.read_text(encoding="utf-8")) if COUNTS.exists() else {}
    table[precision_key()] = measure()
    field = r'{\n\s+("numbers": \d+),\n\s+("not_correctly_rounded": \d+),\n\s+("worst_ulps": \d+)\n\s+}'
    COUNTS.write_text(re.sub(field, r"{\1, \2, \3}", json.dumps(table, indent=2)) + "\n", encoding="utf-8")  # a line a field
    sys.exit(0)

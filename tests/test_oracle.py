"""Outputs checked against the benchmark's oracle, which shares no arithmetic with the package.

bench/oracle.py evaluates the closed forms in 50-digit mpmath (and the
weak values as exact integers); it is imported here by path, so the tests
and the benchmark read one reference. Each error is relative to the
reference times its condition number kappa, as in the benchmark's checks,
and must stay within ERROR_BOUND.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hardyions.protocol import run_third_ion, run_weak_gaussian, weak_values_postselected

pytest.importorskip("mpmath")

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

EPS = float(np.finfo(float).eps)
ERROR_BOUND = 16 * EPS

A_STAR = float(oracle.A_STAR)
WEAK_POINTS = [
    *np.linspace(0.01, 6.0, 400).tolist(),
    *(A_STAR + sign * 10.0**-k for k in range(1, 10) for sign in (-1.0, 1.0)),
]
THIRD_ION_ANGLES = [*np.linspace(-3.1, 3.1, 301).tolist(), -1e-8, 0.0, 1e-8]


def error(out, ref, kappa: float = 1.0) -> float:
    """|out - ref| / (|ref| kappa), or |out - ref| / kappa where the reference is 0."""
    ref = oracle.mpf(ref)
    diff = abs(oracle.mpf(out) - ref)
    return float(diff / (abs(ref) * kappa) if ref else diff / kappa)


def assert_within_bound(errors: dict) -> None:
    """errors maps each output name to a list of (error, input); every error is within the bound."""
    worst = {name: max(values) for name, values in errors.items()}
    failing = {name: (f"{err / EPS:.1f} eps", x) for name, (err, x) in worst.items() if err > ERROR_BOUND}
    assert not failing, f"errors beyond {ERROR_BOUND / EPS:.0f} eps: {failing}"


def check_weak_gaussian_against_oracle():
    errors = {"pointer_mean": [], "closed_form_mean": [], "pointer_variance": [], "P(gg)": []}
    for aos in WEAK_POINTS:
        report = run_weak_gaussian(aos)
        kappa = oracle.mean_condition(aos)
        mean = oracle.pointer_mean(aos)
        errors["pointer_mean"].append((error(report.pointer_mean, mean, kappa), aos))
        errors["closed_form_mean"].append((error(report.closed_form_mean, mean, kappa), aos))
        variance = oracle.pointer_variance(aos)
        errors["pointer_variance"].append((error(report.pointer_variance, variance), aos))
        probability = oracle.postselection_probability(aos)
        errors["P(gg)"].append((error(report.postselection_probability, probability), aos))
    assert_within_bound(errors)


def test_weak_gaussian_against_oracle():
    check_weak_gaussian_against_oracle()


def test_weak_gaussian_in_double_precision(double_precision):
    # a platform whose longdouble is a double gets these results: the bound holds there too
    assert run_weak_gaussian(1.0).conditional_pointer.meter.gram.dtype == np.float64
    check_weak_gaussian_against_oracle()


def test_third_ion_against_oracle():
    keys = ("excited_population", "reference_shift", "deviation", "relative_deviation", "postselection_probability")
    errors = {key: [] for key in keys}
    for theta in THIRD_ION_ANGLES:
        report = run_third_ion(theta)
        ref = oracle.third_ion(theta)
        for key in keys:
            out = getattr(report, key)
            if ref[key] is None:
                assert out is None, (key, theta)
                continue
            kappa = ref["deviation_kappa"] if key in ("deviation", "relative_deviation") else 1.0
            errors[key].append((error(out, ref[key], kappa), theta))
    assert_within_bound(errors)


def test_weak_values_are_exact():
    values = weak_values_postselected()
    assert values == {label: complex(value) for label, value in oracle.WEAK_VALUES.items()}
    assert all(math.isfinite(v.real) and v.imag == 0.0 for v in values.values())

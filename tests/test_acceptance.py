"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from hardyions.meter import (
    GaussianPointer,
    gaussian_mean_x,
    gaussian_norm_sq,
    gaussian_second_moment,
    grid_moments,
    to_grid,
)
from hardyions.protocol import (
    RunConfig,
    _ideal,
    closed_form_mean,
    intermediate_state,
    run_ideal,
    run_third_ion,
    run_weak_gaussian,
    third_ion_excited_population,
    weak_limit_check,
    weak_values_postselected,
)
from hardyions.pulses import (
    annihilation_pulse,
    beamsplitter,
    light_shift_meter,
    partial_ccnot,
)
from hardyions.shots import run_experiment_mc
from hardyions.statecore import (
    BASIS_LABELS,
    GaussianMeter,
    NoMeter,
    QubitMeter,
    SystemState,
    apply_unitary,
    init_ground,
    internal_probabilities,
    pointer_component,
)

SIGN_CHANGE = math.sqrt(8.0 * math.log(2.0))

POINTER_SCAN_POINTS = (0.01, 0.1, 0.5, 1.0, 2.0, 2.3548, 3.0, 5.0)

IDEAL_FINAL_AMPLITUDES = {
    "gg": -0.25,
    "ge": 0.25,
    "eg": 0.25,
    "ee": 0.75,
    "ff": 0.5,
}


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description} {detail}"


def _best_runtime(fn, repeats: int = 5) -> float:
    fn()  # warm up
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_ideal_sequence_exactness():
    result = run_ideal()
    amps = result.state.amplitudes[:, 0]
    worst = max(
        abs(amps[BASIS_LABELS.index(label)] - IDEAL_FINAL_AMPLITUDES.get(label, 0.0))
        for label in BASIS_LABELS
    )
    p_gg = result.probabilities["gg"]

    def cold_run_ideal():
        _ideal.cache_clear()  # time the evaluation, not the copy a warm call hands out
        return run_ideal()

    runtime = _best_runtime(cold_run_ideal)
    passed = worst < 1e-12 and abs(p_gg - 1.0 / 16.0) < 1e-12 and runtime < 1e-3
    _report(
        1,
        "ideal-sequence final state and P(gg) = 1/16",
        passed,
        f"amplitude deviation {worst:.2e}, |P-1/16| {abs(p_gg - 0.0625):.2e}, "
        f"runtime {runtime * 1e6:.0f} us",
    )


def test_criterion_2_weak_value_table():
    values = weak_values_postselected()
    expected = {"gg": -1.0, "ge": 1.0, "eg": 1.0, "ff": 0.0}
    worst = max(abs(values[k] - expected[k]) for k in expected)
    total = sum(values.values())
    runtime = _best_runtime(weak_values_postselected)
    passed = worst < 1e-12 and abs(total - 1.0) < 1e-12 and runtime < 1e-3
    _report(
        2,
        "post-selected weak values (-1, +1, +1, 0) summing to 1",
        passed,
        f"worst deviation {worst:.2e}, sum deviation {abs(total - 1.0):.2e}, "
        f"runtime {runtime * 1e6:.0f} us",
    )


def test_criterion_3_pointer_shift_formula():
    worst_analytic = 0.0
    worst_grid = 0.0
    for aos in POINTER_SCAN_POINTS:
        report = run_weak_gaussian(aos)
        reference = closed_form_mean(aos)
        worst_analytic = max(
            worst_analytic, abs(report.pointer_mean - reference) / abs(reference)
        )
        pointer = report.conditional_pointer
        lo = min(d for _, d in pointer.branches) - 12.0
        hi = max(d for _, d in pointer.branches) + 12.0
        grid_mean, _ = grid_moments(to_grid(pointer, lo, hi, 16384))
        worst_grid = max(worst_grid, abs(grid_mean - reference) / abs(reference))

    scan = np.linspace(0.01, 5.0, 100)
    means = [run_weak_gaussian(aos).pointer_mean for aos in scan]
    flips = [
        (scan[i], scan[i + 1])
        for i in range(len(scan) - 1)
        if means[i] > 0.0 >= means[i + 1]
    ]
    bracketed = len(flips) == 1 and flips[0][0] <= SIGN_CHANGE <= flips[0][1]

    passed = worst_analytic < 1e-12 and worst_grid < 1e-6 and bracketed
    _report(
        3,
        "conditional mean matches -a(1-2g)/(5-4g) on both paths; sign change bracketed",
        passed,
        f"analytic rel {worst_analytic:.2e}, grid rel {worst_grid:.2e}, "
        f"bracket {flips[0] if flips else 'none'}",
    )


def test_criterion_4_anomalous_displacement():
    a = 0.01
    conditional_mean = run_weak_gaussian(a).pointer_mean

    state = intermediate_state(GaussianMeter(1.0))
    state = apply_unitary(state, light_shift_meter(a))
    branch_mean = gaussian_mean_x(pointer_component(state, "gg"))

    passed = abs(conditional_mean - a) <= 1e-4 * a and branch_mean == -a
    _report(
        4,
        "post-selected pointer moves by +a while the pushed gg branch sits at -a",
        passed,
        f"conditional mean {conditional_mean!r}, gg branch mean {branch_mean!r}",
    )


def test_criterion_5_weak_limit_identity():
    ratios = np.geomspace(0.01, 0.2, 8)
    deviations = np.array([weak_limit_check(aos) for aos in ratios])
    slope = np.polyfit(np.log(ratios), np.log(deviations), 1)[0]
    passed = abs(slope - 2.0) <= 0.1
    _report(
        5,
        "L2 deviation of the conditional pointer from -phi(x - a) scales quadratically",
        passed,
        f"log-log slope {slope:.4f}",
    )


def test_criterion_6_third_ion_variant():
    worst = max(
        abs(run_third_ion(theta).excited_population - third_ion_excited_population(theta))
        for theta in (0.01, 0.1, 0.5, 1.0)
    )

    # the population decrease (1/2 - P_e) equals delta_p = sin(theta)/2 with a
    # relative remainder of order theta^2
    thetas = np.geomspace(0.01, 0.16, 5)
    relative = np.array([run_third_ion(t).relative_deviation for t in thetas])
    relative_slope = np.polyfit(np.log(thetas), np.log(relative), 1)[0]
    absolute = np.array([run_third_ion(t).deviation for t in thetas])
    absolute_slope = np.polyfit(np.log(thetas), np.log(absolute), 1)[0]

    passed = worst < 1e-12 and abs(relative_slope - 2.0) <= 0.1 and absolute_slope >= 1.9
    _report(
        6,
        "third-ion excited population matches the closed form; decreases by sin(theta)/2",
        passed,
        f"worst closed-form deviation {worst:.2e}, remainder slope {relative_slope:.4f}",
    )


def test_criterion_7_monte_carlo_consistency():
    config = RunConfig(a=0.05, sigma=1.0, shots=1_000_000, seed=1)
    start = time.perf_counter()
    result = run_experiment_mc(config)
    runtime = time.perf_counter() - start

    fraction = result.accepted / result.total
    binomial_sigma = math.sqrt((1.0 / 16.0) * (15.0 / 16.0) / config.shots)
    acceptance_ok = abs(fraction - 1.0 / 16.0) <= 5.0 * binomial_sigma

    reference = closed_form_mean(config.a, config.sigma)
    mean_ok = abs(result.sample_mean - reference) <= 5.0 * result.std_error

    passed = acceptance_ok and mean_ok and runtime < 60.0
    _report(
        7,
        "10^6-shot Monte-Carlo: acceptance near 1/16, mean near the closed form",
        passed,
        f"fraction {fraction:.6f}, mean {result.sample_mean:.5f} "
        f"(expected {reference:.5f} +- {result.std_error:.5f}), runtime {runtime:.1f} s",
    )


def test_criterion_8_property_suites():
    pulse_defects = [
        op.unitarity_defect()
        for op in (
            beamsplitter(1),
            beamsplitter(2),
            annihilation_pulse(),
            partial_ccnot(0.3),
            partial_ccnot(1.7),
            light_shift_meter(0.4),
        )
    ]
    unitarity_ok = max(pulse_defects) < 1e-12

    rng = np.random.default_rng(99)
    completeness_worst = 0.0
    for meter in (NoMeter(), GaussianMeter(1.0, (0.0, -0.4, 0.7)), QubitMeter()):
        for _ in range(20):
            amps = rng.normal(size=(9, meter.dim)) + 1j * rng.normal(size=(9, meter.dim))
            state = SystemState(amps, meter).normalized()
            total = sum(internal_probabilities(state).values())
            completeness_worst = max(completeness_worst, abs(total - 1.0))
    completeness_ok = completeness_worst < 1e-12

    moments_worst = 0.0
    checked = 0
    while checked < 100:
        nb = rng.integers(1, 6)
        branches = tuple(
            (complex(rng.normal(), rng.normal()), rng.uniform(-3, 3)) for _ in range(nb)
        )
        pointer = GaussianPointer(1.0, branches)
        if gaussian_norm_sq(pointer) < 1e-3:
            continue
        mean, var = grid_moments(to_grid(pointer))
        analytic_mean = gaussian_mean_x(pointer)
        analytic_second = gaussian_second_moment(pointer)
        moments_worst = max(
            moments_worst,
            abs(mean - analytic_mean) / max(abs(analytic_mean), 1e-9),
            abs(var + mean * mean - analytic_second) / analytic_second,
        )
        checked += 1
    moments_ok = moments_worst < 1e-6

    passed = unitarity_ok and completeness_ok and moments_ok
    _report(
        8,
        "pulse unitarity, probability completeness, analytic-vs-grid agreement",
        passed,
        f"unitarity {max(pulse_defects):.2e}, completeness {completeness_worst:.2e}, "
        f"moments rel {moments_worst:.2e} over 100 random pointers",
    )

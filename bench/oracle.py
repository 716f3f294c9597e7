"""Reference values that share no arithmetic with the package.

The Gaussian-meter and third-ion references are closed forms evaluated in
50-digit mpmath; the ideal and strong-comparison references are exact
rationals derived by hand below. Nothing here imports hardyions or numpy.

All lengths are in units of sigma (sigma = 1), as on the command line.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

_MP = mpmath.MPContext()
_MP.dps = 50

A_STAR = _MP.sqrt(8 * _MP.log(2))
"""Sign change of the conditional pointer mean, a* = sqrt(8 ln 2) sigma."""

WEAK_VALUES = {"gg": -1, "ge": 1, "eg": 1, "ff": 0}
"""Weak values of the intermediate projectors post-selected on |gg>
(Aharonov et al., Phys. Lett. A 301, 130 (2002))."""

LABELS = ("gg", "ge", "gf", "eg", "ee", "ef", "fg", "fe", "ff")

# |gg> -> BS1 BS2 -> (gg + ge + eg + ee)/2 -> annihilation (ee -> ff)
# -> (gg + ge + eg + ff)/2 at the intermediate time. The second pair of
# beamsplitters maps gg -> (gg+ge+eg+ee)/2, ge -> (ge-gg+ee-eg)/2,
# eg -> (eg+ee-gg-ge)/2 and leaves ff alone, giving the amplitudes below.
IDEAL_AMPLITUDES = {
    label: Fraction(0) for label in LABELS
} | {"gg": Fraction(-1, 4), "ge": Fraction(1, 4), "eg": Fraction(1, 4),
     "ee": Fraction(3, 4), "ff": Fraction(1, 2)}

IDEAL_PROBABILITIES = {label: amp * amp for label, amp in IDEAL_AMPLITUDES.items()}

# Projective gg-versus-rest measurement at the intermediate time: the gg
# branch (weight 1/4) leaves |gg>, which the beamsplitters spread evenly
# over gg, ge, eg, ee; the rest branch (weight 3/4) leaves
# (ge + eg + ff)/sqrt3, which ends as (-gg + ee + ff)/sqrt3.
_GG_BRANCH = {label: Fraction(0) for label in LABELS} | {
    "gg": Fraction(1, 4), "ge": Fraction(1, 4), "eg": Fraction(1, 4), "ee": Fraction(1, 4)}
_REST_BRANCH = {label: Fraction(0) for label in LABELS} | {
    "gg": Fraction(1, 3), "ee": Fraction(1, 3), "ff": Fraction(1, 3)}
STRONG_BRANCHES = (("gg", Fraction(1, 4), _GG_BRANCH), ("rest", Fraction(3, 4), _REST_BRANCH))
STRONG_DISTURBED = {
    label: sum(p * table[label] for _, p, table in STRONG_BRANCHES) for label in LABELS
}


def mpf(x):
    """The exact value of a float (or an exact rational) as a 50-digit number."""
    if isinstance(x, Fraction):
        return _MP.mpf(x.numerator) / x.denominator
    return _MP.mpf(x)


def _overlap(a):
    a = mpf(a)
    return _MP.exp(-a * a / 8)


def pointer_mean(a):
    """Conditional pointer mean -a (1 - 2g) / (5 - 4g), g = exp(-a^2/8)."""
    g = _overlap(a)
    return -mpf(a) * (1 - 2 * g) / (5 - 4 * g)


def pointer_variance(a):
    """Conditional pointer variance: <x^2> = 1 + a^2 (1 - g) / (5 - 4g), minus the mean squared.

    The pointer is proportional to phi(x + a) - 2 phi(x); with Gram kernel
    g between the two branches its norm is 5 - 4g and its second moment
    5 - 4g + a^2 (1 - g).
    """
    g = _overlap(a)
    a = mpf(a)
    return 1 + a * a * (1 - g) / (5 - 4 * g) - pointer_mean(a) ** 2


def postselection_probability(a):
    """P(gg) with the Gaussian meter attached: (5 - 4g) / 16, 1/16 at a = 0."""
    return (5 - 4 * _overlap(a)) / 16


def mean_condition(a) -> float:
    """Condition number of the pointer mean, |a / (a - a*)|, floored at 1.

    Near a* the mean is a difference of nearly equal terms, so its relative
    error grows like a / (a - a*) whatever the arithmetic. Far below a*
    that ratio tends to zero, but no output is more accurate than its own
    rounding, hence the floor.
    """
    a = mpf(a)
    return max(1.0, float(abs(a / (a - A_STAR))))


def third_ion(theta) -> dict:
    """Third-ion meter outputs and the condition number of the deviation.

    The post-selected meter state is proportional to
    ((c - s - 2), (c + s - 2)) with c = cos(theta/2), s = sin(theta/2),
    and has weight ((c-s-2)^2 + (c+s-2)^2) / 32.
    """
    theta = mpf(theta)
    c = _MP.cos(theta / 2)
    s = _MP.sin(theta / 2)
    plus = (c + s - 2) ** 2
    minus = (c - s - 2) ** 2
    excited = plus / (plus + minus)
    shift = _MP.sin(theta) / 2
    deviation = abs((_MP.mpf(1) / 2 - excited) - shift)
    # |(1/2 - P_e) - shift| cancels terms of size 1/2 + P_e + |shift|
    kappa = max(1.0, float((_MP.mpf(1) / 2 + excited + abs(shift)) / deviation)) if deviation else 1.0
    return {
        "excited_population": excited,
        "reference_shift": shift,
        "deviation": deviation,
        "relative_deviation": deviation / abs(shift) if shift else None,
        "postselection_probability": (plus + minus) / 32,
        "deviation_kappa": kappa,
    }

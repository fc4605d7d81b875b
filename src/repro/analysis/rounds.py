"""Scaling analysis: fit measured round counts against theory curves.

The claims under test are of the form ``rounds = O~(√n + D)``, so the
benchmarks fit ``log(rounds) = α·log(x) + c`` against ``x = √n + D`` (or
plain n) and report the exponent α.  An exponent near 1 against
``√n + D`` — equivalently near 0.5 against n at small D — reproduces the
theorem's shape; polylog slack pushes it slightly above.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import AlgorithmError


@dataclass(frozen=True)
class PowerLawFit:
    """``y ≈ exp(intercept) · x^exponent`` with an R² quality score."""

    exponent: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return math.exp(self.intercept) * (x ** self.exponent)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares line through ``(log x, log y)`` (pure Python)."""
    if len(xs) != len(ys):
        raise AlgorithmError("xs and ys must have equal length")
    if len(xs) < 2:
        raise AlgorithmError("need at least two points to fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise AlgorithmError("power-law fit needs positive data")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((x - mean_x) ** 2 for x in lx)
    if sxx == 0:
        raise AlgorithmError("all x values identical; cannot fit exponent")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ly)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=slope, intercept=intercept, r_squared=r_squared)


def normalized_rounds(rounds: int, n: int, diameter: int) -> float:
    """``rounds / (√n + D)`` — flat curves reproduce the theorem."""
    return rounds / (math.sqrt(max(1, n)) + max(1, diameter))

"""Least-squares fits for the two scaling laws used by the benchmarks.

Both models are fit linearly in base-10 log space:

* power law      y = A * d**B      (straight line on a log-log plot)
* exponential    y = A * 10**(B*d) (straight line on a semi-log plot)
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np


class InsufficientDataError(ValueError):
    """Usable points at fewer than two distances after filtering."""


@dataclass(frozen=True)
class FitResult:
    A: float            # positive prefactor
    B: float            # exponent (power law) or slope per unit d (exponential)
    residual: float     # sum of squared residuals in log10 space
    points_used: int


def _usable(points, d_min):
    used = []
    dropped = 0
    for d, y in points:
        if d < d_min:
            continue
        if y <= 0:
            dropped += 1
            continue
        used.append((d, y))
    if dropped:
        warnings.warn(f"dropped {dropped} non-positive y value(s); log undefined",
                      stacklevel=3)
    distances = len({d for d, _ in used})
    if distances < 2:
        raise InsufficientDataError(
            f"need usable points at 2 or more distances, got {distances}")
    return used


def _linear_fit(xs, ys):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = len(x)
    xm = x.mean()
    ym = y.mean()
    denom = ((x - xm) ** 2).sum()
    slope = ((x - xm) * (y - ym)).sum() / denom
    intercept = ym - slope * xm
    resid = float(((y - (intercept + slope * x)) ** 2).sum())
    return slope, intercept, resid, n


def fit_power_law(points, d_min: int = 0) -> FitResult:
    """Fit y = A * d**B by least squares of log10(y) against log10(d),
    using only points with d >= d_min."""
    used = _usable(points, d_min)
    xs = [math.log10(d) for d, _ in used]
    ys = [math.log10(y) for _, y in used]
    slope, intercept, resid, n = _linear_fit(xs, ys)
    return FitResult(A=10.0 ** intercept, B=slope, residual=resid, points_used=n)


def fit_exponential(points) -> FitResult:
    """Fit y = A * 10**(B*d) by least squares of log10(y) against d."""
    used = _usable(points, d_min=-math.inf)
    xs = [float(d) for d, _ in used]
    ys = [math.log10(y) for _, y in used]
    slope, intercept, resid, n = _linear_fit(xs, ys)
    return FitResult(A=10.0 ** intercept, B=slope, residual=resid, points_used=n)

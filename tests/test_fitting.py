import math
import random

import pytest
from scipy import stats

from softgap.fitting import InsufficientDataError, fit_exponential, fit_power_law


class TestPowerLaw:
    def test_exact_recovery(self):
        pts = [(d, 2.0 * d**3) for d in (3, 5, 7, 9, 11)]
        fit = fit_power_law(pts)
        assert abs(fit.A - 2.0) < 1e-9
        assert abs(fit.B - 3.0) < 1e-9
        assert fit.residual < 1e-18
        assert fit.points_used == 5

    def test_noisy_recovery_matches_linregress(self):
        rng = random.Random(99)
        pts = [(d, 5.0 * d**2.31 * (1.0 + 0.01 * (rng.random() - 0.5)))
               for d in (5, 7, 9, 11, 13, 15)]
        fit = fit_power_law(pts)
        assert abs(fit.B - 2.31) < 0.1
        ref = stats.linregress([math.log10(d) for d, _ in pts],
                               [math.log10(y) for _, y in pts])
        assert abs(fit.B - ref.slope) < 1e-12
        assert abs(math.log10(fit.A) - ref.intercept) < 1e-12

    def test_d_min_filter(self):
        pts = [(3, 999.0)] + [(d, 2.0 * d**3) for d in (7, 9, 11)]
        fit = fit_power_law(pts, d_min=7)
        assert fit.points_used == 3
        assert abs(fit.B - 3.0) < 1e-9

    def test_scale_equivariance(self):
        pts = [(d, 1.7 * d**2.5) for d in (3, 5, 7, 9)]
        base = fit_power_law(pts)
        scaled = fit_power_law([(d, 10.0 * y) for d, y in pts])
        assert abs(scaled.A - 10.0 * base.A) < 1e-9 * scaled.A
        assert abs(scaled.B - base.B) < 1e-9

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([(7, 3.0)])
        with pytest.raises(InsufficientDataError):
            fit_power_law([(3, 1.0), (5, 2.0)], d_min=5)
        # two points at one d: no slope to fit, not a NaN fit
        with pytest.raises(InsufficientDataError, match="^need usable points at 2 or more "
                           "distances, got 1$"):
            fit_power_law([(5, 1.0), (5, 2.0)])

    def test_zero_values_dropped_with_warning(self):
        pts = [(3, 0.0), (5, 2.0 * 5**3), (7, 2.0 * 7**3), (9, 2.0 * 9**3)]
        with pytest.warns(UserWarning):
            fit = fit_power_law(pts)
        assert fit.points_used == 3
        assert abs(fit.B - 3.0) < 1e-9


class TestExponential:
    def test_exact_recovery(self):
        pts = [(d, 0.5 * 10 ** (-0.4 * d)) for d in (3, 5, 7, 9, 11)]
        fit = fit_exponential(pts)
        assert abs(fit.A - 0.5) < 1e-9
        assert abs(fit.B - (-0.4)) < 1e-9

    def test_noisy_recovery(self):
        rng = random.Random(7)
        pts = [(d, 0.8 * 10 ** (-0.25 * d) * (1.0 + 0.02 * (rng.random() - 0.5)))
               for d in (3, 5, 7, 9, 11, 13, 15)]
        fit = fit_exponential(pts)
        assert abs(fit.B - (-0.25)) < 0.05

    def test_scale_equivariance(self):
        pts = [(d, 2.0 * 10 ** (0.1 * d)) for d in (1, 2, 3, 4)]
        base = fit_exponential(pts)
        scaled = fit_exponential([(d, 3.0 * y) for d, y in pts])
        assert abs(scaled.A - 3.0 * base.A) < 1e-9 * scaled.A
        assert abs(scaled.B - base.B) < 1e-9

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            fit_exponential([(5, 1.0)])
        with pytest.warns(UserWarning), pytest.raises(InsufficientDataError):
            fit_exponential([(5, 0.0), (7, 0.0)])
        with pytest.raises(InsufficientDataError, match="got 1$"):
            fit_exponential([(5, 1.0), (5, 2.0)])

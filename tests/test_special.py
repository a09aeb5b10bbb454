"""Special-function oracles: frozen references, identities, oracle chain."""

import mpmath as mp
import numpy as np
import pytest

from stablesub import special
from stablesub import (
    FracMomentQuery,
    QuadratureError,
    frac_moment_closed_form,
    frac_moment_quadrature,
    gamma_fn,
    levy_half_cdf,
)

mp.mp.dps = 40

# Frozen with mpmath at 40 digits.
SQRT_PI = 1.7724538509055160273
GAMMA_1_5 = 0.88622692545275801365
MOMENT_HALF_QUARTER = 1.4464090846320771425  # Gamma(0.5)/Gamma(0.75)
MOMENT_07_035 = 1.279939428087018775  # Gamma(0.5)/Gamma(0.65)
ERFC_1 = 0.15729920705028513066


class TestGamma:
    def test_reference_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-13)
        assert gamma_fn(1.5) == pytest.approx(GAMMA_1_5, rel=1e-13)

    def test_recurrence_identity(self):
        # Gamma(x+1) = x Gamma(x) over random arguments in (0.1, 10).
        rng = np.random.default_rng(2024)
        xs = 0.1 + 9.9 * rng.random(1000)
        for x in xs:
            lhs = gamma_fn(x + 1.0)
            rhs = x * gamma_fn(x)
            assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_accuracy_against_mpmath(self):
        xs = np.concatenate([np.linspace(1e-3, 0.5, 80), np.linspace(0.5, 20.0, 300)])
        for x in xs:
            ref = float(mp.gamma(mp.mpf(float(x))))
            assert abs(gamma_fn(float(x)) - ref) / abs(ref) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.5)


class TestFracMoment:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            FracMomentQuery(alpha=0.5, p=0.5, t=1.0)  # p == alpha
        with pytest.raises(ValueError):
            FracMomentQuery(alpha=0.5, p=0.6, t=1.0)
        with pytest.raises(ValueError):
            FracMomentQuery(alpha=1.2, p=0.3, t=1.0)
        with pytest.raises(ValueError):
            FracMomentQuery(alpha=0.5, p=0.25, t=0.0)

    def test_quadrature_error_carries_achieved_accuracy(self, monkeypatch):
        # Each half-line part reports an error estimate of 1e-6 of its value,
        # so the total reaches relative error 1e-6, above QUADRATURE_REL_TOL.
        real_quad = special.integrate.quad

        def coarse_quad(*args, **kwargs):
            value, _, *rest = real_quad(*args, **kwargs)
            return (value, 1e-6 * value, *rest)

        monkeypatch.setattr(special.integrate, "quad", coarse_quad)
        with pytest.raises(QuadratureError, match="reached relative error 1.000e-06") as info:
            frac_moment_quadrature(FracMomentQuery(0.5, 0.25))
        assert info.value.achieved == pytest.approx(1e-6, rel=1e-12)
        assert info.value.achieved > special.QUADRATURE_REL_TOL

    def test_closed_form_reference_cell(self):
        q = FracMomentQuery(0.5, 0.25, 1.0)
        assert frac_moment_closed_form(q) == pytest.approx(MOMENT_HALF_QUARTER, rel=1e-12)

    def test_closed_form_scaling_in_t(self):
        q4 = FracMomentQuery(0.5, 0.25, 4.0)
        assert frac_moment_closed_form(q4) == pytest.approx(2.0 * MOMENT_HALF_QUARTER, rel=1e-12)
        for alpha, p in ((0.3, 0.1), (0.7, 0.5), (0.9, 0.2)):
            base = frac_moment_closed_form(FracMomentQuery(alpha, p, 1.0))
            for t in (0.25, 1.0, 4.0, 13.7):
                ratio = frac_moment_closed_form(FracMomentQuery(alpha, p, t)) / base
                assert ratio == pytest.approx(t ** (p / alpha), rel=1e-12)

    def test_quadrature_reference_cell(self):
        # The quadrature is itself the brute-force oracle; value recorded at
        # build time and double-checked against the gamma closed form.
        q = FracMomentQuery(0.5, 0.25, 1.0)
        assert frac_moment_quadrature(q) == pytest.approx(1.4464090846, rel=1e-8)

    def test_quadrature_agrees_with_closed_form_on_grid(self):
        for alpha in (0.3, 0.5, 0.7, 0.9):
            for p in (alpha / 4.0, alpha / 2.0, 3.0 * alpha / 4.0):
                for t in (0.25, 1.0, 4.0):
                    q = FracMomentQuery(alpha, p, t)
                    closed = frac_moment_closed_form(q)
                    quad = frac_moment_quadrature(q)
                    assert abs(quad - closed) / closed <= 1e-6

    def test_quadrature_cross_cell(self):
        q = FracMomentQuery(0.7, 0.35, 1.0)
        assert frac_moment_quadrature(q) == pytest.approx(MOMENT_07_035, rel=1e-6)

    def test_moment_order_zero_limit(self):
        value = frac_moment_quadrature(FracMomentQuery(0.5, 1e-4, 1.0))
        assert value == pytest.approx(1.0, abs=1e-3)


class TestLevyHalfCdf:
    def test_limits(self):
        assert levy_half_cdf(1e12) == pytest.approx(1.0, abs=1e-6)
        assert levy_half_cdf(1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_erfc_reference(self):
        # levy_half_cdf(0.25) = erfc(1), frozen from an independent
        # high-precision evaluation.
        assert levy_half_cdf(0.25) == pytest.approx(ERFC_1, rel=1e-12)

    def test_monotone_into_unit_interval(self):
        xs = np.logspace(-6, 6, 500)
        values = levy_half_cdf(xs)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            levy_half_cdf(0.0)
        with pytest.raises(ValueError):
            levy_half_cdf(np.array([1.0, -2.0]))

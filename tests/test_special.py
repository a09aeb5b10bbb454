"""Special-function oracles: frozen references, identities, oracle chain."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp
from scipy.integrate import _quadpack

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
        real_dqagse = special._dqagse

        def coarse_dqagse(*args):
            value, _, ier = real_dqagse(*args)
            return value, 1e-6 * value, ier

        monkeypatch.setattr(special, "_dqagse", coarse_dqagse)
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


def scipy_qagse(f, a, b, epsabs, epsrel, limit):
    """The QUADPACK call inside scipy.integrate.quad, which also returns ier."""
    value, error, _, ier = _quadpack._qagse(f, a, b, (), 1, epsabs, epsrel, limit)
    return value, error, ier


def same_bits(x, y):
    return float(x).hex() == float(y).hex()


# Integrands for the sweep, each a family f(c, d) with c in (0, 1) and d in (0.05, 0.95).
INTEGRANDS = {
    "power": lambda c, d: lambda x: abs(x - c) ** -d if x != c else 0.0,
    "log": lambda c, d: lambda x: math.log(abs(x - c) + 1e-300),
    "oscillating": lambda c, d: lambda x: d * math.sin(1.0 / (x + 1e-3 * c + 1e-9)),
    "damped": lambda c, d: lambda x: math.cos(40.0 * d * x) * math.exp(-c * x),
    "peak": lambda c, d: lambda x: 1.0 / ((x - c) ** 2 + 1e-6 * d),
    "origin": lambda c, d: lambda x: x ** (d - 1.0),
    "step": lambda c, d: lambda x: 1.0 if x > c else -d,
    "exp_origin": lambda c, d: lambda x: math.exp(c * x) * x ** (-0.5 * d),
}
# Sweep cases that end in the rarer exits: (family, c, d, b, epsabs, epsrel, limit, ier).
RARE_EXITS = [
    ("damped", 0.7991983116749972, 0.49854192718300766, 1.8803678601478644, 0.0, 1e-13, 50, 2),
    ("power", 0.4499690014767196, 0.7462461334433894, 1.702521291376482, 1e-10, 1e-11, 500, 3),
    ("peak", 0.5536185430006574, 0.6339506920657435, 1.0906155289473212, 1e-10, 1e-4, 10, 5),
]


class TestQuadpackPort:
    """special._dqagse gives scipy.integrate.quad's bits: value, error and ier."""

    def test_oracle_chain_integrals(self, monkeypatch):
        calls = []
        real_dqagse = special._dqagse

        def recording(*args):
            calls.append(args)
            return real_dqagse(*args)

        monkeypatch.setattr(special, "_dqagse", recording)
        for alpha in (0.3, 0.5, 0.7, 0.9):
            for p in (alpha / 4.0, alpha / 2.0, 3.0 * alpha / 4.0):
                for t in (0.25, 1.0, 4.0):
                    frac_moment_quadrature(FracMomentQuery(alpha, p, t))
        assert len(calls) == 72
        for f, a, b, epsabs, epsrel, limit in calls:
            value, error, ier = real_dqagse(f, a, b, epsabs, epsrel, limit)
            ref_value, ref_error, ref_info = integrate.quad(
                f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
            assert ier == 0
            assert same_bits(value, ref_value) and same_bits(error, ref_error)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(29)
        exits = set()
        for index in range(1000):
            family = list(INTEGRANDS)[index % len(INTEGRANDS)]
            c, d = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.95))
            a = float(rng.uniform(-0.5, 0.2)) if family in ("damped", "peak", "step") else 0.0
            b = float(rng.uniform(0.5, 3.0))
            epsabs = float(rng.choice([0.0, 1e-14, 1e-10, 1e-6]))
            epsrel = float(rng.choice([1e-13, 1e-11, 1e-8, 1e-4]))
            limit = int(rng.choice([1, 2, 3, 5, 10, 50, 500]))
            f = INTEGRANDS[family](c, d)
            ours = special._dqagse(f, a, b, epsabs, epsrel, limit)
            ref = scipy_qagse(f, a, b, epsabs, epsrel, limit)
            assert ours[2] == ref[2], (family, c, d, a, b, epsabs, epsrel, limit)
            assert same_bits(ours[0], ref[0]) and same_bits(ours[1], ref[1]), (family, c, d, a, b)
            exits.add(ours[2])
        assert {0, 1} <= exits

    @pytest.mark.parametrize("family, c, d, b, epsabs, epsrel, limit, ier", RARE_EXITS)
    def test_rare_exits(self, family, c, d, b, epsabs, epsrel, limit, ier):
        f = INTEGRANDS[family](c, d)
        ours = special._dqagse(f, 0.0, b, epsabs, epsrel, limit)
        ref = scipy_qagse(f, 0.0, b, epsabs, epsrel, limit)
        assert ours[2] == ref[2] == ier
        assert same_bits(ours[0], ref[0]) and same_bits(ours[1], ref[1])

    def test_invalid_tolerance(self):
        assert special._dqagse(math.sin, 0.0, 1.0, 0.0, 1e-16, 50) == (0.0, 0.0, 6)


class TestErfcPort:
    """special._erfc gives scipy.special.erfc's bits on each Cephes branch."""

    @pytest.mark.parametrize("low, high", [
        (0.0, 1.0),  # 1 - erf, T/U
        (1.0, 8.0),  # P/Q
        (8.0, 26.7),  # R/S, up to the underflow
        (26.5, 30.0),  # the MAXLOG underflow past about 26.64
    ])
    def test_branches_match_scipy_bitwise(self, low, high):
        rng = np.random.default_rng(int(low * 100))
        x = rng.uniform(low, high, 20_000)
        x = np.concatenate([x, -x, [low, -low, np.nextafter(high, 0.0)]])
        assert np.array_equal(special._erfc(x).view(np.uint64), sp.erfc(x).view(np.uint64))

    def test_edges(self):
        x = np.array([0.0, -0.0, 1.0, -1.0, 8.0, -8.0, np.nextafter(1.0, 0.0), np.nextafter(8.0, 0.0),
                      26.64, 26.65, 1e-300, 5e-324, np.inf, -np.inf])
        assert np.array_equal(special._erfc(x).view(np.uint64), sp.erfc(x).view(np.uint64))
        assert special._erfc(np.array([27.0, -27.0])).tolist() == [0.0, 2.0]

    def test_levy_half_cdf_scalar_and_array(self):
        xs = np.logspace(-4, 4, 2001)
        expected = sp.erfc(0.5 / np.sqrt(xs))
        assert np.array_equal(levy_half_cdf(xs), expected)
        for x, ref in zip(xs[::100], expected[::100]):
            value = levy_half_cdf(float(x))
            assert type(value) is float and same_bits(value, ref)

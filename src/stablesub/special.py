"""Special functions and closed-form fractional-moment oracles.

Everything in this module is deterministic, cheap, and independent of the
samplers: these are the reference values the Monte Carlo machinery elsewhere
in the package is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special as sp

__all__ = [
    "FracMomentQuery",
    "QuadratureError",
    "frac_moment_closed_form",
    "frac_moment_quadrature",
    "gamma_fn",
    "levy_half_cdf",
]

# Lanczos approximation, g = 7 with 9 coefficients: close to full double
# precision on [0.5, ~100); the reflection formula covers (0, 0.5).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
# The relative error frac_moment_quadrature must reach; QUADPACK stops near 3e-12.
QUADRATURE_REL_TOL = 1e-8


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments.

    Lanczos rational approximation; arguments below 0.5 are routed through
    the reflection formula Gamma(x) Gamma(1-x) = pi / sin(pi x) so both
    factors stay in the well-conditioned range.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


@dataclass(frozen=True)
class FracMomentQuery:
    """Parameters of a fractional moment E S_t^p of the subordinator.

    Only orders strictly below the stability index have finite moments,
    hence the constraint 0 < p < alpha.
    """

    alpha: float
    p: float
    t: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.p < self.alpha:
            raise ValueError(f"p must lie in (0, alpha): got p={self.p}, alpha={self.alpha}")
        if not self.t > 0.0:
            raise ValueError(f"t must be > 0, got {self.t}")


def frac_moment_closed_form(q: FracMomentQuery) -> float:
    """E S_t^p = t^(p/alpha) * Gamma(1 - p/alpha) / Gamma(1 - p).

    The test suite cross-validates this expression against
    frac_moment_quadrature before anything else is allowed to rely on it.
    """
    return q.t ** (q.p / q.alpha) * gamma_fn(1.0 - q.p / q.alpha) / gamma_fn(1.0 - q.p)


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested relative error."""

    def __init__(self, message: str, achieved: float) -> None:
        super().__init__(message)
        self.achieved = achieved


def frac_moment_quadrature(q: FracMomentQuery) -> float:
    """E S_t^p by direct numerical integration of the Laplace transform.

    Uses the identity, valid for p in (0, 1) and X >= 0,

        E X^p = p / Gamma(1-p) * int_0^inf lam^(-p-1) (1 - E e^(-lam X)) dlam

    with E e^(-lam S_t) = e^(-lam^alpha t).  The half-line splits at lam = 1:
    the substitution lam = u^(1/(1-p)) softens the origin singularity and
    lam = 1/v maps the tail onto (0, 1].  Both transformed integrands keep an
    integrable power singularity at 0, which QUADPACK's extrapolation handles.
    """
    alpha, p, t = q.alpha, q.p, q.t
    one_m_p = 1.0 - p

    def near_origin(u: float) -> float:
        # lam = u**(1/(1-p)); written so the u -> 0 behavior t*u^((alpha-1)/(1-p))
        # is evaluated without the 0 * inf intermediate.
        x = t * u ** (alpha / one_m_p)
        frac = 1.0 - 0.5 * x if x < 1e-8 else -math.expm1(-x) / x
        return frac * t * u ** ((alpha - 1.0) / one_m_p) / one_m_p

    def tail(v: float) -> float:
        # lam = 1/v; integrable v^(p-1) singularity at 0.
        return -math.expm1(-t * v ** (-alpha)) * v ** (p - 1.0)

    part1 = integrate.quad(near_origin, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=500, full_output=1)
    part2 = integrate.quad(tail, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=500, full_output=1)
    total = part1[0] + part2[0]
    achieved = (part1[1] + part2[1]) / total if total > 0.0 else math.inf
    if not achieved <= QUADRATURE_REL_TOL:
        raise QuadratureError(
            f"quadrature for {q} reached relative error {achieved:.3e} (target {QUADRATURE_REL_TOL:.1e})",
            achieved=achieved,
        )
    # math.gamma rather than gamma_fn keeps this route independent of the
    # Lanczos evaluation it is used to validate.
    return p / math.gamma(one_m_p) * total


def levy_half_cdf(x):
    """CDF erfc(1 / (2 sqrt(x))) of the time-1 subordinator value at alpha = 1/2.

    Accepts scalars or arrays; every entry must be positive.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("levy_half_cdf requires x > 0")
    out = sp.erfc(0.5 / np.sqrt(arr))
    if arr.ndim == 0:
        return float(out)
    return out

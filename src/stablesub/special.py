"""Special functions and closed-form fractional-moment oracles.

Everything in this module is deterministic, cheap, and independent of the
samplers: these are the reference values the Monte Carlo machinery elsewhere
in the package is validated against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

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

    part1 = _dqagse(near_origin, 0.0, 1.0, 0.0, 1e-11, 500)
    part2 = _dqagse(tail, 0.0, 1.0, 0.0, 1e-11, 500)
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
    out = _erfc(0.5 / np.sqrt(arr))
    if arr.ndim == 0:
        return float(out)
    return out


# QUADPACK dqagse with dqk21, dqpsrt and dqelg (Piessens et al. 1983; public
# domain), transcribed line for line so that it returns scipy.integrate.quad's
# bits: the same 21-point Gauss-Kronrod constants, the same operation order and
# d1mach from sys.float_info.  The work lists are 1-based as in the Fortran
# (slot 0 is unused).  The integrand is called with one float at a time.
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
# Kronrod abscissae (entries 1, 3, ..., 9 are the 10-point Gauss abscissae) and weights.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980981238,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _dqk21(f, a, b):
    """21-point Kronrod rule on [a, b]: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in range(5):
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5), without the overflow of a huge r.
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio**1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """Keep iord[1..] in descending order of elist: (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # errmax goes in at i - 1; insert errmin bottom-up.
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n, epstab, res3la, nres):
    """One step of the epsilon algorithm on epstab[1..n]: (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged.
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                ib2 = ib + 2
                epstab[ib] = epstab[ib2]
                ib = ib2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, result, abserr, nres


def _dqagse(f, a, b, epsabs, epsrel, limit):
    """Adaptive integral of f over [a, b] with extrapolation: (result, abserr, ier),
    with QUADPACK's ier (0 on success)."""
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    ier = 0
    alist[1] = a
    blist[1] = b
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return 0.0, 0.0, 6
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0
    sum_intervals = False
    for last in range(2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = _dqk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_intervals = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Go on bisecting until the interval to bisect next is the smallest.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error: bisect the larger
            # intervals first while any of them is in the list.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not sum_intervals:
        # Choose between the extrapolated result and the sum of the intervals.
        if abserr == _OFLOW:
            sum_intervals = True
        else:
            divergence_test = True
            if ier + ierro != 0:
                if ierro == 3:
                    abserr = abserr + correc
                if ier == 0:
                    ier = 3
                if result != 0.0 and area != 0.0:
                    sum_intervals = abserr / abs(result) > errsum / abs(area)
                    divergence_test = not sum_intervals
                elif abserr > errsum:
                    sum_intervals = True
                    divergence_test = False
                elif area == 0.0:
                    divergence_test = False
            if divergence_test and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                if area == 0.0:
                    # result / area is infinite, or NaN where result is 0 or NaN.
                    diverges = (result != 0.0 and not math.isnan(result)) or errsum > 0.0
                else:
                    ratio = result / area
                    diverges = 0.01 > ratio or ratio > 100.0 or errsum > abs(area)
                if diverges:
                    ier = 6
    if sum_intervals:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier


# Cephes erfc (Moshier 1989; BSD, as shipped in scipy.special), transcribed for
# arrays: the same rational forms and MAXLOG underflow, so it returns
# scipy.special.erfc's bits.  exp(-x^2) is libm's (math.exp), not numpy's SIMD exp,
# which differs in the last bit.
_ERFC_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """_polevl with a leading coefficient of 1 left out of coef."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a: np.ndarray) -> np.ndarray:
    """Complementary error function of a float array, entry by entry."""
    a = np.asarray(a, dtype=float)
    x = np.abs(a)
    # Where -x^2 < -MAXLOG, Cephes returns the limits 0 and 2.
    out = np.where(a < 0.0, 2.0, 0.0)
    near = x < 1.0
    an = a[near]
    z = an * an
    out[near] = 1.0 - an * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    z = -a * a
    far = ~near & ~(z < -_ERFC_MAXLOG)
    af, xf = a[far], x[far]
    ez = _libm_exp(z[far]).astype(float)
    mid = xf < 8.0
    p = np.where(mid, _polevl(xf, _ERFC_P), _polevl(xf, _ERFC_R))
    q = np.where(mid, _p1evl(xf, _ERFC_Q), _p1evl(xf, _ERFC_S))
    y = (ez * p) / q
    out[far] = np.where(af < 0.0, 2.0 - y, y)
    return out

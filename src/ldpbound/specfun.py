"""Special functions for the bound computations.

Standard normal CDF and quantile, log-gamma, log-beta, the regularized
incomplete beta function and its inverse, in IEEE double precision, with no
dependency on scipy.

Every function accepts a Python float; ``std_normal_cdf``, ``std_normal_quantile``
and ``beta_cdf`` (in its first argument) also accept numpy arrays, which is
what the quadrature and Monte-Carlo layers rely on. The two normal functions
return a float for scalar input and an array otherwise.

Algorithm notes:

* The normal CDF is ``0.5 * erfc(-x / sqrt(2))`` with the C library's
  ``math.erfc``, applied lane by lane; relative error below 1e-13 on
  [-10, 10] against ``scipy.special.ndtr``.
* The normal quantile is ``statistics.NormalDist().inv_cdf``, Wichura's
  AS 241 (PPND16, Appl. Stat. 37, 1988); relative error below 1e-14 against
  ``scipy.special.ndtri`` for p from 1e-300 to 1 - 1e-15.
* log-gamma is the C library's ``math.lgamma``.
* The incomplete beta uses the standard continued fraction with the
  symmetry switch at x = (a+1)/(a+b+2); the inverse is a Newton iteration on
  the CDF, safeguarded by bisection, started from the distribution mean.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "log_gamma",
    "log_beta",
    "beta_cdf",
    "beta_quantile",
]

_SQRT2 = math.sqrt(2.0)

_TINY = 1e-300
# Lentz stop: |delta - 1| below this ends the fraction. Must sit a few ulps
# above eps(1.0) or converged iterates wobbling by one ulp never terminate.
_CF_TOL = 1e-15

# log_beta takes its exact product form when the smaller shape is an integer
# up to this
PRODUCT_FORM_MAX = 64

# lane-by-lane ufuncs over the stdlib calls; they return object arrays (or a
# bare float for 0-d input), converted back with np.asarray(..., dtype=float)
_erfc = np.frompyfunc(math.erfc, 1, 1)
_inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


def is_whole(x) -> bool:
    """True for a finite number with no fractional part (NaN and inf are not)."""
    try:
        return x == int(x)
    except (ValueError, OverflowError):  # int() of NaN, of +-inf
        return False


def check_shapes(caller: str, a, b) -> None:
    """Refuse beta shapes that are not both positive and finite."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"{caller}: shapes ({a!r}, {b!r}) must be positive and finite")


# ---------------------------------------------------------------------------
# standard normal
# ---------------------------------------------------------------------------

def std_normal_cdf(x):
    """Standard normal CDF.

    Scalar in, float out; array in, array out. The deep tail is relatively
    accurate, which the correlated-bound integrands depend on.
    """
    arr = np.asarray(x, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise DomainError(f"std_normal_cdf: x={float(arr[~finite].flat[0])!r} must be finite")
    out = 0.5 * np.asarray(_erfc(-arr / _SQRT2), dtype=float)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse of :func:`std_normal_cdf`.

    Requires 0 < p < 1 (strictly). Scalar in, float out; array in, array out.
    """
    arr = np.asarray(p, dtype=float)
    inside = (arr > 0.0) & (arr < 1.0)
    if not inside.all():
        raise DomainError(
            f"std_normal_quantile: p={float(arr[~inside].flat[0])!r} outside (0, 1)"
        )
    out = np.asarray(_inv_cdf(arr), dtype=float)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# log-gamma / log-beta
# ---------------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """Natural log of the gamma function for real x > 0.

    The C library's ``math.lgamma``; relative error about 1e-15 on the
    shapes this package uses.
    """
    xf = float(x)
    if not (math.isfinite(xf) and xf > 0.0):
        raise DomainError(f"log_gamma: x={x!r} must be finite and positive")
    return math.lgamma(xf)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), for finite a, b > 0.

    When the smaller shape is a modest integer m (every bound computation
    has one: the shapes are n-k and k+1), the gamma ratio collapses to a
    product, ln B = ln Gamma(m) - sum ln(other+i). That avoids cancelling
    two large log-gamma values and keeps the absolute error near 1e-14 even
    for shapes in the thousands.
    """
    check_shapes("log_beta", a, b)
    lo, hi = (a, b) if a <= b else (b, a)
    if is_whole(lo) and lo <= PRODUCT_FORM_MAX:
        m = int(lo)
        # one fsum, so the result is rounded once
        return math.fsum([log_gamma(float(m)), *(-math.log(hi + i) for i in range(m))])
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


# ---------------------------------------------------------------------------
# regularized incomplete beta
# ---------------------------------------------------------------------------

def _betacf_scalar(a: float, b: float, x: float) -> float:
    # continued fraction for I_x(a,b), modified Lentz
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise NumericError(
        f"incomplete beta continued fraction stalled (a={a!r}, b={b!r}, x={x!r})"
    )


def _betacf_array(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    # the same fraction in lockstep over lanes, each with its own shapes;
    # a converged lane keeps its h while the slowest lane finishes
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _TINY, where=np.abs(d) < _TINY)
    d = 1.0 / d
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
        c = 1.0 + aa / c
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
        d = 1.0 / d
        h = np.where(active, h * (d * c), h)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
        c = 1.0 + aa / c
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
        d = 1.0 / d
        delta = d * c
        h = np.where(active, h * delta, h)
        active &= np.abs(delta - 1.0) >= _CF_TOL
        if not active.any():
            return h
    raise NumericError("incomplete beta continued fraction stalled on array")


def _beta_cdf_scalar(x: float, a: float, b: float, lb: float) -> float:
    # lb = log_beta(a, b), passed in so Newton loops compute it once
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lfront = a * math.log(x) + b * math.log1p(-x) - lb
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(lfront) * _betacf_scalar(a, b, x) / a
    return 1.0 - math.exp(lfront) * _betacf_scalar(b, a, 1.0 - x) / b


def beta_cdf(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b).

    ``x`` may be a float or an array with entries in [0, 1]; shapes must be
    positive and finite. Endpoints return exactly 0 and 1. Continued
    fraction with the symmetric form used on whichever side of
    (a+1)/(a+b+2) converges fast; an array runs both sides in one lockstep
    call.
    """
    check_shapes("beta_cdf", a, b)
    # two paths on purpose: the scalar Lentz loop wins for the binomial
    # solves, the lockstep loop for quadrature nodes
    if np.ndim(x) == 0:
        xf = float(x)
        if not (0.0 <= xf <= 1.0):
            raise DomainError(f"beta_cdf: x={x!r} outside [0, 1]")
        return _beta_cdf_scalar(xf, a, b, log_beta(a, b))
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("beta_cdf: all x must lie in [0, 1]")
    # one lockstep for both sides of the switch: lanes at or past
    # (a+1)/(a+b+2) run the fraction as 1 - I_{1-x}(b, a). The front factor
    # is exp(-inf) = 0 at x = 0 and 1, so the endpoints come out exactly
    swap = arr >= (a + 1.0) / (a + b + 2.0)
    sa = np.where(swap, float(b), float(a))
    sb = np.where(swap, float(a), float(b))
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(arr) + b * np.log1p(-arr) - log_beta(a, b))
    try:
        part = front * _betacf_array(sa, sb, np.where(swap, 1.0 - arr, arr)) / sa
    except NumericError:
        raise NumericError(
            f"incomplete beta continued fraction stalled on array (a={a!r}, b={b!r})"
        ) from None
    return np.where(swap, 1.0 - part, part)


def _beta_quantile_steps(p: float, a: float, b: float) -> tuple[float, int]:
    # Newton on the CDF with bisection safeguard; bracket stays valid because
    # the CDF is strictly increasing on (0, 1)
    lo, hi = 1e-16, 1.0 - 1e-16
    x = a / (a + b)
    lb = log_beta(a, b)
    it = 0
    for it in range(1, 200):
        f = _beta_cdf_scalar(x, a, b, lb) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) < 1e-15:
            break
        ld = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - lb
        if ld > -700.0:
            xn = x - f / math.exp(ld)
        else:
            xn = 0.5 * (lo + hi)  # density underflowed; fall back to bisection
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) < 1e-16 * max(1e-10, x):
            x = xn
            break
        x = xn
    else:
        raise NumericError(
            f"beta_quantile did not converge (p={p!r}, a={a!r}, b={b!r})"
        )
    return x, it


def beta_quantile(p: float, a: float, b: float) -> float:
    """Inverse of :func:`beta_cdf` in its first argument.

    Requires 0 < p < 1. The result x satisfies |beta_cdf(x) - p| <= 1e-12.
    """
    check_shapes("beta_quantile", a, b)
    pf = float(p)
    if not 0.0 < pf < 1.0:
        raise DomainError(f"beta_quantile: p={p!r} outside (0, 1)")
    x, _ = _beta_quantile_steps(pf, a, b)
    return x

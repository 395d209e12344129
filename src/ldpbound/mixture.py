"""One-factor correlated default model and its auxiliary distribution.

Obligor i defaults when ``sqrt(rho)*S + sqrt(1-rho)*xi_i < Phi^-1(p)`` with a
shared systematic factor S and idiosyncratic xi_i, all standard normal. The
number of defaults is then a binomial mixed over the Vasicek-distributed
conditional default probability. This module computes:

* ``conditional_pd``        the conditional PD given S = x
* ``vasicek_cdf``           the law of the conditional PD
* ``mixture_tail_prob``     P(defaults <= k) under the mixture
* ``f_cdf`` / ``f_quantile``  the auxiliary CDF F_{a,b,rho} whose
  (1-gamma)-quantile yields the correlated bound, and its inverse
* ``pd_upper_bound_correlated``  the bound itself
* ``tilde_f_cdf``           the same tail probability viewed as a continuous
  CDF in p
* ``mixture_pmf`` / ``mixture_mgf``  the mixed binomial pmf and its
  moment-generating function
* ``copula_diagonal``       the k = 0 identity: the equicorrelated Gaussian
  copula evaluated on its diagonal
* ``equicorr_density``      closed-form equicorrelated multivariate normal
  density

All Gaussian-weight integrals use one trapezoid grid on the fixed window
[-8, 8] (512 intervals by default), its weights folded with the normal
density. Against that weight the trapezoid rule converges exponentially
(Trefethen & Weideman, SIAM Review 56(3), 2014) and nests: the half rule is
every other node with doubled weights, so one kernel evaluation gives both,
and NumericError is raised if they disagree beyond the quadrature spec's
abs_tol. ``f_cdf_unit_interval`` evaluates the defining unit-interval
integral directly (graded Gauss-Legendre panels) and exists as an
independent cross-check route for the Gaussian-weight evaluation;
production code paths use the Gaussian-weight form.

Two kernels evaluate the beta-normal integrand I_u(a, b). When both shapes
are integers and b <= 64 (every bound with k < 64), I_u(a, b) is the finite
binomial tail P(Bin(a+b-1, 1-u) <= b-1), summed in log space over b terms
whose coefficients are the logarithms of the exact integers C(n, i);
``mixture_tail_prob`` uses the same sum. Otherwise (b > 64, or non-integer
shapes) the incomplete-beta continued fraction ``specfun.beta_cdf`` runs.
The correlated bound re-checks its root on the kernel its solve did not use
and refuses a residual beyond 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .binomial import VACUOUS_BOUND, BoundQuery, BoundResult, check_counts, check_residual
from .errors import DegenerateModelError, DomainError, NumericError

__all__ = [
    "FactorModelParams",
    "MixtureShape",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "conditional_pd",
    "vasicek_cdf",
    "mixture_tail_prob",
    "f_cdf",
    "f_cdf_unit_interval",
    "f_quantile",
    "pd_upper_bound_correlated",
    "tilde_f_cdf",
    "mixture_pmf",
    "mixture_mgf",
    "copula_diagonal",
    "equicorr_density",
]

_INV_SQRT_TWO_PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FactorModelParams:
    """Unconditional default probability p and asset correlation rho."""

    p: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"FactorModelParams: p={self.p!r} outside (0, 1)")
        if not 0.0 <= self.rho < 1.0:
            raise DomainError(f"FactorModelParams: rho={self.rho!r} outside [0, 1)")


@dataclass(frozen=True)
class MixtureShape:
    """Shape triple (a, b, rho) of the auxiliary distribution F_{a,b,rho}.

    Both shapes are positive and finite. Bound computations construct it
    from integer (n, k) as a = n-k, b = k+1; real-valued shapes are allowed
    so the density plots can sweep them.
    """

    a: float
    b: float
    rho: float

    def __post_init__(self) -> None:
        specfun.check_shapes("MixtureShape", self.a, self.b)
        if not 0.0 <= self.rho < 1.0:
            raise DomainError(f"MixtureShape: rho={self.rho!r} outside [0, 1)")


# The window [-T, T] with T = 8 truncates at most 2*Phi(-8) ~ 1.2e-15 of
# mass from an integrand bounded by 1, far below abs_tol (mixture_mgf at
# t > 0 is unbounded and checks its own cut). The trapezoid spacing is
# 2T / node_count, so a wider window only coarsens the grid that resolves
# the kernel's transition.
_TRUNCATION = 8.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid settings for the Gaussian-weight integrals on [-8, 8].

    node_count counts intervals. 512 leaves the half rule at 256, whose
    worst measured error at shape 1493, rho = 0.5 is ~3e-13 (the floor of a
    4096-node Gauss-Legendre reference), two orders inside the default
    abs_tol. At the steeper (9800, 64) the half rule is off by ~5e-7, and
    the check refuses values whose full rule is still at that floor.
    """

    node_count: int = 512
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (specfun.is_whole(self.node_count) and self.node_count >= 2):
            raise DomainError(f"QuadratureSpec: node_count={self.node_count!r} must be >= 2")
        if not self.abs_tol > 0.0:
            raise DomainError(f"QuadratureSpec: abs_tol={self.abs_tol!r} must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=64)
def _grid(node_count: int):
    # node_count + 1 equispaced nodes on [-T, T]; trapezoid weights folded
    # with the normal density so the integrand never sees the weight function
    x = np.linspace(-_TRUNCATION, _TRUNCATION, node_count + 1)
    w = (2.0 * _TRUNCATION / node_count) * np.exp(-0.5 * x * x) * _INV_SQRT_TWO_PI
    w[[0, -1]] *= 0.5
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _integrate(vals: np.ndarray, spec: QuadratureSpec):
    """Integrate f(x) * phi(x) dx over [-T, T] from f's values on the grid.

    ``vals`` holds f at the nodes ``_grid(spec.node_count)[0]`` on its LAST
    axis, so a whole grid of integrals can share one call. Accuracy control:
    the node_count-interval rule against its half rule (the even-indexed
    nodes, weights doubled) on the same values; disagreement beyond abs_tol
    raises NumericError.
    """
    w = _grid(spec.node_count)[1]
    full = vals @ w
    half = 2.0 * (vals[..., ::2] @ w[::2])
    err = float(np.max(np.abs(full - half)))
    if err > spec.abs_tol:
        raise NumericError(
            f"quadrature no longer converging: |I_{spec.node_count} - "
            f"I_{spec.node_count // 2}| = {err:.3e} exceeds abs_tol="
            f"{spec.abs_tol:.1e}; raise node_count or loosen abs_tol"
        )
    return full


def conditional_pd(m: FactorModelParams, x):
    """Default probability conditional on the systematic factor taking value x.

    Phi((Phi^-1(p) - sqrt(rho)*x) / sqrt(1-rho)); decreasing in x when
    rho > 0. Accepts scalar or array x.
    """
    xp = specfun.std_normal_quantile(m.p)
    return specfun.std_normal_cdf(
        (xp - math.sqrt(m.rho) * x) / math.sqrt(1.0 - m.rho)
    )


def vasicek_cdf(v, m: FactorModelParams):
    """CDF of the conditional default probability: P(conditional_pd(S) <= v).

    Equals Phi((sqrt(1-rho)*Phi^-1(v) - Phi^-1(p)) / sqrt(rho)). Accepts
    scalar or array v with entries in (0, 1). rho = 0 collapses the law to a
    point mass at p and is refused (DegenerateModelError) instead of being
    approximated by a step function.
    """
    if m.rho == 0.0:
        raise DegenerateModelError(
            f"vasicek_cdf: rho=0 degenerates the law to a point mass at p={m.p!r}"
        )
    vv = np.asarray(v, dtype=float)
    if not np.all((vv > 0.0) & (vv < 1.0)):
        raise DomainError("vasicek_cdf: v must lie in (0, 1)")
    xp = specfun.std_normal_quantile(m.p)
    arg = (math.sqrt(1.0 - m.rho) * specfun.std_normal_quantile(vv) - xp) / math.sqrt(m.rho)
    return specfun.std_normal_cdf(arg)


def _log_choose_row(n: int, k: int) -> list[float]:
    # log C(n, i) for i = 0..k, each the log of an exact integer (rounded once)
    c = 1
    row = [0.0]
    for i in range(k):
        c = c * (n - i) // (i + 1)
        row.append(math.log(c))
    return row


def _binom_tail(lg: np.ndarray, lgc: np.ndarray, n: int, k: int) -> np.ndarray:
    """P(Bin(n, g) <= k) per lane, from lg = log g and lgc = log(1 - g).

    The k+1 terms C(n,i) g^i (1-g)^(n-i) are formed in log space, with
    log C(n,i) taken from the exact integer, and summed one term at a time,
    so memory stays at one lane array. g may be exactly 0 or 1 at the far
    quadrature nodes (lg or lgc = -inf), so the i = 0 term keeps i*lg out
    (0 * -inf is NaN, not 0).
    """
    lc = _log_choose_row(n, k)
    acc = np.exp(lc[0] + n * lgc)
    for i in range(1, k + 1):
        acc += np.exp(lc[i] + i * lg + (n - i) * lgc)
    return acc


def mixture_tail_prob(
    n: int, k: int, m: FactorModelParams, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """P(defaults <= k) when the default probability is mixed by the factor.

    The Gaussian-weight integral of the conditional binomial tail. k = n
    returns 1 exactly (any p satisfies the defining inequality there).
    """
    check_counts("mixture_tail_prob", n, k)
    if k == n:
        return 1.0
    g = conditional_pd(m, _grid(q.node_count)[0])
    with np.errstate(divide="ignore"):
        vals = _binom_tail(np.log(g), np.log1p(-g), n, k)
    val = float(_integrate(vals, q))
    return min(max(val, 0.0), 1.0)


# integer shapes with b up to this evaluate F by the b-term binomial sum,
# the rest by the continued fraction; the bound re-checks on the other one
_SUM_MAX_B = 64


def _summable(s: MixtureShape) -> bool:
    return specfun.is_whole(s.a) and specfun.is_whole(s.b) and s.b <= _SUM_MAX_B


def _f_pass(yv: np.ndarray, s: MixtureShape, q: QuadratureSpec, summed: bool):
    """One checked quadrature pass of F at every y in ``yv``.

    The kernel I_u(a, b) at the inner values u = Phi(c1*x + y) is the
    binomial sum P(Bin(a+b-1, 1-u) <= b-1) when ``summed``, exact for every
    integer shape, and the continued fraction ``specfun.beta_cdf``
    otherwise. The solve prefers the sum only where :func:`_summable`
    (b <= 64); the bound's re-check takes the kernel its solve did not.
    Returns F (clipped to [0, 1], one value per y) and, one row per y, the
    inner arguments z = c1*x + y and values u = Phi(z) at every node, from
    which the solver forms F'.
    """
    c1 = math.sqrt(s.rho / (1.0 - s.rho))
    z = c1 * _grid(q.node_count)[0] + yv.reshape(-1, 1)
    u = specfun.std_normal_cdf(z)
    if summed:
        with np.errstate(divide="ignore"):
            vals = _binom_tail(np.log1p(-u), np.log(u), int(s.a + s.b) - 1, int(s.b) - 1)
    else:
        vals = specfun.beta_cdf(u, s.a, s.b)
    return np.clip(_integrate(vals, q), 0.0, 1.0), z, u


def f_cdf(y, s: MixtureShape, q: QuadratureSpec = DEFAULT_QUADRATURE):
    """The auxiliary CDF F_{a,b,rho} at y.

    Defined by the unit-interval integral of the shifted beta-normal kernel;
    evaluated here in its Gaussian-weight form (the x = Phi(u) substitution),
    which has no endpoint singularities:

        F(y) = integral phi(x) * B_{a,b}(Phi(sqrt(rho/(1-rho))*x + y)) dx

    Accepts scalar or array y. Non-decreasing in y; 0 and 1 in the limits.
    """
    yv = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(yv)):
        raise DomainError("f_cdf: y must be finite")
    out = _f_pass(yv, s, q, _summable(s))[0].reshape(yv.shape)
    return float(out) if out.ndim == 0 else out


# panel edges graded toward both endpoints; the integrand is a CDF value, so
# the skipped mass below 1e-16 is itself below 1e-16
_UNIT_EDGES: tuple[float, ...] = tuple(
    [0.0] + [10.0 ** e for e in range(-16, -4, 2)] + [1e-4, 1e-3, 0.01, 0.05]
    + [0.1 * i for i in range(1, 10)]
    + [0.95, 0.99, 1.0 - 1e-3, 1.0 - 1e-4]
    + [1.0 - 10.0 ** e for e in range(-6, -18, -2)] + [1.0]
)
# Gauss-Legendre points per panel
_UNIT_ORDER = 32


@lru_cache(maxsize=1)
def _unit_panel_nodes():
    xg, wg = np.polynomial.legendre.leggauss(_UNIT_ORDER)
    nodes = []
    weights = []
    for lo, hi in zip(_UNIT_EDGES[:-1], _UNIT_EDGES[1:]):
        mid = 0.5 * (lo + hi)
        halfw = 0.5 * (hi - lo)
        nodes.append(mid + halfw * xg)
        weights.append(halfw * wg)
    x = np.concatenate(nodes)
    w = np.concatenate(weights)
    # rounding can push the outermost panel's nodes onto 0.0 or 1.0 exactly,
    # where the inner normal quantile is undefined
    x = np.clip(x, 1e-300, 1.0 - 2.0 ** -53)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def f_cdf_unit_interval(y: float, s: MixtureShape) -> float:
    """F_{a,b,rho}(y) by direct integration over the unit interval.

    Same defining integral as :func:`f_cdf` but evaluated on (0, 1) with
    endpoint-graded 32-point Gauss-Legendre panels instead of the
    Gaussian-weight substitution. Kept as an algorithmically independent
    route; the property tests compare the two.
    """
    yf = float(y)
    if not math.isfinite(yf):
        raise DomainError(f"f_cdf_unit_interval: y={y!r} must be finite")
    c1 = math.sqrt(s.rho / (1.0 - s.rho))
    x, w = _unit_panel_nodes()
    inner = specfun.std_normal_cdf(c1 * specfun.std_normal_quantile(x) + yf)
    vals = specfun.beta_cdf(inner, s.a, s.b)
    return min(max(float(vals @ w), 0.0), 1.0)


# the bracket window: outward steps visit the doubling sequence +-2, ..., +-32,
# so a root beyond |y| = 32 is refused, not extrapolated
_BRACKET_STEPS = (2.0, 4.0, 8.0, 16.0, 32.0)
_WINDOW = _BRACKET_STEPS[-1]


def _f_quantile_start(t_prob: float, s: MixtureShape) -> float:
    # F is the law of V - c1*X with V = Phi^-1(Beta(a, b)) and X standard
    # normal: centre on V's median, Phi^-1 of the beta median (Kerman's
    # closed form (a - 1/3)/(a + b - 2/3), which needs a, b >= 1; the mean
    # otherwise), take V's spread by the delta method (the beta sd over phi
    # there) and widen it by c1
    c1 = math.sqrt(s.rho / (1.0 - s.rho))
    ab = s.a + s.b
    median = (s.a - 1.0 / 3.0) / (ab - 2.0 / 3.0) if min(s.a, s.b) >= 1.0 else s.a / ab
    v50 = specfun.std_normal_quantile(median)
    sd = math.sqrt(s.a * s.b / (ab * ab * (ab + 1.0)))
    sigma = sd / (_INV_SQRT_TWO_PI * math.exp(-0.5 * v50 * v50))
    return v50 + t_prob * math.sqrt(sigma * sigma + c1 * c1)


def _f_slope(
    z: np.ndarray, u: np.ndarray, s: MixtureShape, q: QuadratureSpec, lb: float
) -> float:
    # F'(y) = integral phi(x) b_{a,b}(u) phi(z) dx with z = c1*x + y and
    # u = Phi(z) at every node from the same pass of F at one y. It only
    # steers the step, so it is never checked. Nodes where u is exactly 0 or
    # 1 contribute 0 (phi(z) has underflowed there, and a = 1 or b = 1 would
    # otherwise give 0 * log 0).
    w = _grid(q.node_count)[1]
    inside = (u > 0.0) & (u < 1.0)
    uc = np.where(inside, u, 0.5)
    log_dens = (s.a - 1.0) * np.log(uc) + (s.b - 1.0) * np.log1p(-uc) - lb - 0.5 * z * z
    return _INV_SQRT_TWO_PI * float(np.where(inside, np.exp(log_dens), 0.0) @ w)


def _fallback_step(lo: float, hi: float, prob: float) -> float:
    # outward to the next bracket point while a side is open, else bisection
    if lo == -math.inf:
        for edge in _BRACKET_STEPS:
            if -edge < hi:
                return -edge
        raise NumericError(f"f_quantile: no lower bracket above y={-_WINDOW:g} for prob={prob!r}")
    if hi == math.inf:
        for edge in _BRACKET_STEPS:
            if edge > lo:
                return edge
        raise NumericError(f"f_quantile: no upper bracket below y={_WINDOW:g} for prob={prob!r}")
    return 0.5 * (lo + hi)


def _f_quantile_steps(
    prob: float, s: MixtureShape, q: QuadratureSpec
) -> tuple[float, int]:
    # Safeguarded Newton (the rtsafe pattern) on G(y) = Phi^-1(F(y)) -
    # Phi^-1(prob), which is nearly linear in y because F is close to a
    # normal law; G' = F' / phi(Phi^-1(F)). Each evaluation is one checked
    # pass of F that also yields F', and tightens the bracket
    # F(lo) < prob <= F(hi), valid because F is monotone. A Newton step that
    # leaves the bracket or the window, has no slope, or (once both sides are
    # known) fails to halve the previous move is replaced by _fallback_step.
    # Returns y and the number of F evaluations.
    lb = specfun.log_beta(s.a, s.b)
    summed = _summable(s)
    t_prob = specfun.std_normal_quantile(prob)
    lo, hi = -math.inf, math.inf
    y = min(max(_f_quantile_start(t_prob, s), -_WINDOW), _WINDOW)
    last_move = math.inf
    evals = 0
    while True:
        f, z, u = _f_pass(np.array([y]), s, q, summed)
        f = float(f[0])
        evals += 1
        if f == prob:
            return y, evals
        if f < prob:
            lo = y
        else:
            hi = y
        slope = _f_slope(z[0], u[0], s, q, lb)
        step = math.nan
        if slope > 0.0 and 0.0 < f < 1.0:
            t = specfun.std_normal_quantile(f)
            step = (t - t_prob) * _INV_SQRT_TWO_PI * math.exp(-0.5 * t * t) / slope
        if abs(step) <= 1e-12 * max(1.0, abs(y)):
            return y - step, evals
        y_new = y - step
        stalled = hi - lo < math.inf and abs(step) >= 0.5 * last_move
        if stalled or not (lo < y_new < hi and abs(y_new) <= _WINDOW):
            y_new = _fallback_step(lo, hi, prob)
        last_move = abs(y_new - y)
        y = y_new
        if hi - lo <= 1e-10:
            return y, evals


def f_quantile(
    prob: float, s: MixtureShape, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Inverse of :func:`f_cdf`: the y with F(y) = prob, for prob in (0, 1).

    Safeguarded Newton on Phi^-1(F(y)) = Phi^-1(prob), started from a
    normal approximation of F: centred on Phi^-1 of the beta median, with
    the beta spread carried through Phi^-1 by the delta method and widened
    by the factor loading (no beta quantile is solved).
    Each step is one quadrature pass of F, with its half-rule check, that
    also yields F' and tightens a bracket. A step that leaves the bracket
    falls back to stepping outward along +-2, 4, ..., 32 while one side is
    open, and to bisection otherwise. The solve stops when the Newton step
    is below 1e-12 * max(1, |y|) or the bracket is below 1e-10 wide; a root
    beyond |y| = 32 raises NumericError. |f_cdf(result) - prob| stays below
    1e-8.
    """
    pf = float(prob)
    if not 0.0 < pf < 1.0:
        raise DomainError(f"f_quantile: prob={prob!r} outside (0, 1)")
    y, _ = _f_quantile_steps(pf, s, q)
    return y


def pd_upper_bound_correlated(
    query: BoundQuery, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> BoundResult:
    """Upper confidence bound for p in the one-factor correlated model.

    p_upper = 1 - Phi(sqrt(1-rho) * F^-1(1-gamma)). The residual is F at the
    returned quantile minus (1-gamma), re-evaluated by one more quadrature
    pass of F (with its half-rule check) on the kernel the solve did not
    use: the continued fraction after a binomial-sum solve (k < 64), the
    binomial sum after a continued-fraction solve. |residual| > 1e-8 raises
    NumericError. k = n is vacuous.
    """
    if query.rho is None:
        raise DomainError(
            "pd_upper_bound_correlated: query has no correlation; "
            "use pd_upper_bound_independent"
        )
    if query.k == query.n:
        return VACUOUS_BOUND
    shape = MixtureShape(
        a=float(query.n - query.k), b=float(query.k + 1), rho=query.rho
    )
    y, steps = _f_quantile_steps(1.0 - query.gamma, shape, q)
    # 1 - Phi(z) computed as Phi(-z) to keep the small-p cases accurate
    p_upper = specfun.std_normal_cdf(-math.sqrt(1.0 - query.rho) * y)
    check = float(_f_pass(np.array([y]), shape, q, not _summable(shape))[0][0])
    residual = check - (1.0 - query.gamma)
    check_residual("pd_upper_bound_correlated", query, residual)
    return BoundResult(p_upper=p_upper, residual=residual, iterations=steps, quantile=y)


def tilde_f_cdf(p, s: MixtureShape, q: QuadratureSpec = DEFAULT_QUADRATURE):
    """The mixture tail probability seen as a continuous CDF in p.

    tilde_F(p) = 1 - F(-Phi^-1(p) / sqrt(1-rho)); non-decreasing in p. The
    bound condition tilde_F(p) <= gamma is equivalent to p <= p_upper of
    :func:`pd_upper_bound_correlated`. Accepts scalar or array p in (0, 1).
    """
    y = -specfun.std_normal_quantile(p) / math.sqrt(1.0 - s.rho)
    out = np.clip(1.0 - np.asarray(f_cdf(y, s, q)), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def mixture_pmf(
    n: int, i: int, m: FactorModelParams, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """P(defaults = i) under the factor mixture."""
    check_counts("mixture_pmf", n, i)
    g = conditional_pd(m, _grid(q.node_count)[0])
    with np.errstate(divide="ignore"):
        lg = np.log(g)
        lgc = np.log1p(-g)
    e = math.log(math.comb(n, i)) + (n - i) * lgc
    if i:
        e = e + i * lg
    val = float(_integrate(np.exp(e), q))
    return min(max(val, 0.0), 1.0)


def mixture_mgf(
    t: float, n: int, m: FactorModelParams, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Moment-generating function of the mixed default count at t."""
    tf = float(t)
    if not math.isfinite(tf):
        raise DomainError(f"mixture_mgf: t={t!r} must be finite")
    check_counts("mixture_mgf", n)
    # for t > 0 the integrand grows like e^(t*n) as x falls, so the mass the
    # window drops is bounded by Phi(-T) * (1 + e^(n*max(t, 0))), not by
    # 2*Phi(-T); refuse where that bound passes abs_tol (compared in logs)
    log_cut = math.log(specfun.std_normal_cdf(-_TRUNCATION)) + float(
        np.logaddexp(0.0, n * max(tf, 0.0)))
    if log_cut > math.log(q.abs_tol):
        raise NumericError(
            f"mixture_mgf: the window [-{_TRUNCATION:g}, {_TRUNCATION:g}] may drop up to "
            f"10^{log_cut / math.log(10.0):.1f} of the integral at t={t!r}, n={n}, "
            f"beyond abs_tol={q.abs_tol:.1e}"
        )
    # cap the exponential: beyond this the power below overflows to inf
    # anyway, and a finite et avoids 0*inf at nodes where g underflows
    et = math.exp(min(tf, 700.0))
    g = conditional_pd(m, _grid(q.node_count)[0])
    with np.errstate(over="ignore"):
        vals = (1.0 - g + g * et) ** n
    return float(_integrate(vals, q))


def copula_diagonal(
    n: int, m: FactorModelParams, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Equicorrelated Gaussian copula diagonal: P(all n events survive).

    E[(1 - conditional_pd(S))^n]; identical to mixture_tail_prob with k = 0
    and to the n-variate equicorrelated normal orthant probability at
    -Phi^-1(p).
    """
    check_counts("copula_diagonal", n)
    g = conditional_pd(m, _grid(q.node_count)[0])
    val = float(_integrate((1.0 - g) ** n, q))
    return min(max(val, 0.0), 1.0)


def equicorr_density(point, rho: float, n: int | None = None) -> float:
    """Density of the n-variate standard normal with equicorrelation rho.

    Closed form: determinant (1-rho)^(n-1) * (1+(n-1)rho), inverse matrix
    with diagonal (1+(n-2)rho) and off-diagonal -rho over the same
    denominator. ``n`` is optional and cross-checked against len(point).
    """
    pt = np.asarray(point, dtype=float).ravel()
    dim = pt.size
    if dim < 1:
        raise DomainError("equicorr_density: point must have at least one coordinate")
    if not np.all(np.isfinite(pt)):
        raise DomainError("equicorr_density: point must be finite")
    if n is not None and n != dim:
        raise DomainError(f"equicorr_density: n={n!r} disagrees with len(point)={dim}")
    if dim == 1:
        # 1x1 correlation matrix: rho never enters
        return math.exp(-0.5 * pt[0] * pt[0]) * _INV_SQRT_TWO_PI
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"equicorr_density: rho={rho!r} outside [0, 1) (singular at 1)")
    det = (1.0 - rho) ** (dim - 1) * (1.0 + (dim - 1) * rho)
    s_sq = float(pt @ pt)
    s_cross = float(pt.sum()) ** 2 - s_sq
    qform = ((1.0 + (dim - 2) * rho) * s_sq - rho * s_cross) / (
        (1.0 - rho) * (1.0 + (dim - 1) * rho)
    )
    return math.exp(-0.5 * qform) / math.sqrt((2.0 * math.pi) ** dim * det)

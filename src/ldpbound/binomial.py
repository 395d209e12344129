"""Independent-obligor upper confidence bound on the default probability.

With n obligors, k observed defaults and independence across obligors, the
number of defaults is binomial. The most conservative default probability
compatible with the observation at confidence gamma is the p solving
``P(defaults <= k) = 1 - gamma``; through the binomial/beta CDF identity this
is ``p_upper = 1 - beta_quantile(1 - gamma, n - k, k + 1)`` (the one-sided
upper Clopper-Pearson limit). k = n admits any p, reported as a vacuous bound
rather than solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun
from .errors import DomainError, NumericError

__all__ = [
    "BoundQuery",
    "BoundResult",
    "binomial_cdf",
    "pd_upper_bound_independent",
    "pd_upper_bound_zero_defaults",
]

# the largest |residual| a bound may carry; beyond it the solve is refused
RESIDUAL_TOL = 1e-8


def check_counts(caller: str, n, k=0) -> None:
    """Refuse counts that are not n >= 1 obligors with k in [0, n] defaults."""
    if not (specfun.is_whole(n) and n >= 1):
        raise DomainError(f"{caller}: n={n!r} must be a positive integer")
    if not (specfun.is_whole(k) and 0 <= k <= n):
        raise DomainError(f"{caller}: k={k!r} must be an integer in [0, n]")


@dataclass(frozen=True)
class BoundQuery:
    """A single bound request: n obligors, k defaults, confidence gamma.

    ``rho`` is the asset correlation; leave it ``None`` for the independence
    model, set it in [0, 1) for the one-factor correlated model.
    """

    n: int
    k: int
    gamma: float
    rho: float | None = None

    def __post_init__(self) -> None:
        check_counts("BoundQuery", self.n, self.k)
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"BoundQuery: gamma={self.gamma!r} outside (0, 1)")
        if self.rho is not None and not 0.0 <= self.rho < 1.0:
            raise DomainError(f"BoundQuery: rho={self.rho!r} outside [0, 1)")


@dataclass(frozen=True)
class BoundResult:
    """A computed bound plus its diagnostics.

    ``residual`` is the defining-equation check, re-evaluated at the returned
    bound: the tail probability at ``p_upper`` minus the target 1 - gamma in
    the independent model, and one quadrature pass of F at ``quantile``
    minus 1 - gamma in the correlated model, made with the incomplete-beta
    kernel the solve did not use (the continued fraction after a
    binomial-sum solve, the binomial sum otherwise). It is enforced: a
    bound whose |residual| exceeds 1e-8 raises NumericError instead of
    being returned. ``quantile`` is the inner quantile
    the inversion produced (beta quantile here, factor-mixture quantile in the
    correlated model); NaN when the bound is vacuous. ``iterations`` counts
    solver steps: Newton steps in the independent model, evaluations of F
    (bracketing included) in the correlated model.
    """

    p_upper: float
    residual: float
    iterations: int
    quantile: float
    vacuous: bool = False


# k = n admits every p; both models return this instead of solving
VACUOUS_BOUND = BoundResult(
    p_upper=1.0, residual=0.0, iterations=0, quantile=math.nan, vacuous=True
)


def binomial_cdf(n: int, k: int, p: float) -> float:
    """P(defaults <= k) among n independent obligors defaulting w.p. p.

    Evaluated through the identity with the regularized incomplete beta,
    I_{1-p}(n-k, k+1), which stays stable for n in the thousands; k = n
    returns 1 exactly.
    """
    check_counts("binomial_cdf", n, k)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binomial_cdf: p={p!r} outside [0, 1]")
    if k == n:
        return 1.0
    return specfun.beta_cdf(1.0 - p, n - k, k + 1)


def pd_upper_bound_independent(query: BoundQuery) -> BoundResult:
    """Upper confidence bound for p under obligor independence.

    Solves P(defaults <= k) = 1 - gamma for p. The result's residual is that
    equation re-evaluated at the returned bound (typically below 1e-14); a
    residual beyond 1e-8 raises NumericError.
    """
    if query.rho is not None:
        raise DomainError(
            "pd_upper_bound_independent: query carries a correlation; "
            "use pd_upper_bound_correlated"
        )
    if query.k == query.n:
        return VACUOUS_BOUND
    x, iters = specfun._beta_quantile_steps(
        1.0 - query.gamma, float(query.n - query.k), float(query.k + 1)
    )
    p_upper = 1.0 - x
    residual = binomial_cdf(query.n, query.k, p_upper) - (1.0 - query.gamma)
    check_residual("pd_upper_bound_independent", query, residual)
    return BoundResult(p_upper=p_upper, residual=residual, iterations=iters, quantile=x)


def check_residual(caller: str, query: BoundQuery, residual: float) -> None:
    """Refuse a bound whose re-checked defining equation is off by > 1e-8."""
    if not abs(residual) <= RESIDUAL_TOL:
        raise NumericError(
            f"{caller}: re-checked residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"(n={query.n}, k={query.k}, gamma={query.gamma!r}, rho={query.rho!r})"
        )


def pd_upper_bound_zero_defaults(n: int, gamma: float) -> float:
    """Closed form for the no-defaults case: 1 - (1-gamma)^(1/n)."""
    check_counts("pd_upper_bound_zero_defaults", n)
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"pd_upper_bound_zero_defaults: gamma={gamma!r} outside (0, 1)")
    # 1 - exp(log(1-gamma)/n), written to keep precision for small gamma
    return -math.expm1(math.log1p(-gamma) / n)

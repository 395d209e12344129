"""Most-prudent-estimation across rating grades.

Grades are ordered from lowest to highest risk. Each grade's bound is
estimated not from its own obligors alone but from the pooled tail of all
equal-or-riskier grades: grade j uses n = sum of obligor counts from j
through the end, k = the matching default-count sum. The safest grade
therefore uses the whole portfolio. Deliberately conservative, and the only
way to say anything at confidence when individual grades have no defaults.

Because a riskier pool can still produce a smaller bound (fewer pooled
obligors can beat a slightly larger default count), the report carries
explicit reversal flags, and ``remediate_reversal`` applies the standard
fix-up: raise the flagged riskier grade's default count one step at a time
until its bound clears the grades above it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .binomial import BoundQuery, BoundResult, pd_upper_bound_independent
from .errors import DomainError, NumericError
from .mixture import DEFAULT_QUADRATURE, QuadratureSpec, pd_upper_bound_correlated
from .specfun import is_whole

__all__ = [
    "Grade",
    "Portfolio",
    "GradeBound",
    "GradeBoundReport",
    "allocate",
    "estimate_grades",
    "remediate_reversal",
]


@dataclass(frozen=True)
class Grade:
    """One rating class: its label, obligor count and observed defaults."""

    name: str
    n_obligors: int
    k_defaults: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise DomainError(f"Grade: name {self.name!r} must be a non-empty string")
        if not (is_whole(self.n_obligors) and self.n_obligors >= 1):
            raise DomainError(
                f"Grade {self.name}: n_obligors={self.n_obligors!r} must be a positive integer"
            )
        if not (is_whole(self.k_defaults) and 0 <= self.k_defaults <= self.n_obligors):
            raise DomainError(
                f"Grade {self.name}: k_defaults={self.k_defaults!r} must be an "
                f"integer in [0, n_obligors]"
            )


@dataclass(frozen=True)
class Portfolio:
    """Ordered grades, lowest risk first."""

    grades: tuple[Grade, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "grades", tuple(self.grades))
        if not self.grades:
            raise DomainError("Portfolio: needs at least one grade")
        names = [g.name for g in self.grades]
        if len(set(names)) != len(names):
            raise DomainError(f"Portfolio: duplicate grade names in {names!r}")


def allocate(pf: Portfolio) -> list[tuple[str, int, int]]:
    """Pooled (n, k) per grade: suffix sums over equal-or-riskier grades."""
    out: list[tuple[str, int, int]] = []
    n_used = 0
    k_used = 0
    for g in reversed(pf.grades):
        n_used += g.n_obligors
        k_used += g.k_defaults
        out.append((g.name, n_used, k_used))
    out.reverse()
    return out


@dataclass(frozen=True)
class GradeBound:
    """One grade's pooled allocation and resulting bound."""

    name: str
    n_used: int
    k_used: int
    p_upper: float
    vacuous: bool = False


@dataclass(frozen=True)
class GradeBoundReport:
    """Per-grade bounds at one confidence level, with ordering diagnostics.

    ``reversal_flags`` lists (safer_name, riskier_name) pairs where the
    riskier grade's bound came out strictly smaller, at full precision.
    ``adjusted_k`` maps grade name to the number of default-count increments
    remediation applied (None when remediation was not run). ``unresolved``
    names grades whose reversal survived even the k = n cap.
    """

    gamma: float
    rho: float | None
    entries: tuple[GradeBound, ...]
    reversal_flags: tuple[tuple[str, str], ...]
    adjusted_k: dict[str, int] | None = None
    unresolved: tuple[str, ...] = ()


def _bound_for(
    name: str, n: int, k: int, gamma: float, rho: float | None, q: QuadratureSpec
) -> BoundResult:
    # grade ``name``'s bound; a numeric failure is re-raised naming the grade
    query = BoundQuery(n=n, k=k, gamma=gamma, rho=rho)
    try:
        if rho is None:
            return pd_upper_bound_independent(query)
        return pd_upper_bound_correlated(query, q)
    except NumericError as err:
        raise NumericError(f"grade {name}: {err}") from err


def _detect_reversals(entries: list[GradeBound]) -> tuple[tuple[str, str], ...]:
    flags = []
    for i, safer in enumerate(entries):
        for riskier in entries[i + 1 :]:
            if riskier.p_upper < safer.p_upper:
                flags.append((safer.name, riskier.name))
    return tuple(flags)


def estimate_grades(
    pf: Portfolio,
    gamma: float,
    rho: float | None = None,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
) -> GradeBoundReport:
    """Bound every grade of the portfolio at confidence gamma.

    ``rho`` absent selects the independence model, present the one-factor
    correlated model, integrated with ``q``. Numeric failures are re-raised
    naming the grade.
    """
    entries: list[GradeBound] = []
    for name, n_used, k_used in allocate(pf):
        res = _bound_for(name, n_used, k_used, gamma, rho, q)
        entries.append(
            GradeBound(
                name=name, n_used=n_used, k_used=k_used,
                p_upper=res.p_upper, vacuous=res.vacuous,
            )
        )
    return GradeBoundReport(
        gamma=gamma, rho=rho, entries=tuple(entries),
        reversal_flags=_detect_reversals(entries),
    )


def remediate_reversal(
    report: GradeBoundReport, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> GradeBoundReport:
    """Raise flagged riskier grades' default counts until order is restored.

    Each grade whose bound sits below the running maximum of the grades above
    it gets its pooled k incremented by one (capped at its pooled n, where
    the bound turns vacuous) and its bound recomputed, until the bounds are
    non-decreasing from safest to riskiest. Only the offending grades are
    touched. A report without flags is returned unchanged.
    """
    if not report.reversal_flags:
        return report
    entries = list(report.entries)
    increments: dict[str, int] = {}
    unresolved: list[str] = []
    prefix_max = entries[0].p_upper
    for j in range(1, len(entries)):
        entry = entries[j]
        k_new = entry.k_used
        p_new = entry.p_upper
        vac = entry.vacuous
        while p_new < prefix_max and k_new < entry.n_used:
            k_new += 1
            res = _bound_for(entry.name, entry.n_used, k_new, report.gamma, report.rho, q)
            p_new = res.p_upper
            vac = res.vacuous
        if k_new > entry.k_used:
            increments[entry.name] = k_new - entry.k_used
            entries[j] = replace(
                entry, k_used=k_new, p_upper=p_new, vacuous=vac
            )
        if p_new < prefix_max:
            unresolved.append(entry.name)
        prefix_max = max(prefix_max, p_new)
    return GradeBoundReport(
        gamma=report.gamma,
        rho=report.rho,
        entries=tuple(entries),
        reversal_flags=_detect_reversals(entries),
        adjusted_k=increments,
        unresolved=tuple(unresolved),
    )

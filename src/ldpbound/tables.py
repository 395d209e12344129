"""The six benchmark tables the package reproduces, plus their builders.

Two worked example portfolios, bounded at six confidence levels: independent
bounds, the auxiliary-distribution quantiles at the benchmark correlation
0.12, and the correlated bounds built from those quantiles. Expected values
are embedded verbatim as printed in the benchmark source (2-decimal percent
or 2-decimal quantile), so ``--diff`` in the CLI and the acceptance tests can
report deviations against fixed targets. Known blemishes in the printed
values are documented beside the embedded values, not patched over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binomial import BoundQuery, pd_upper_bound_independent
from .conservatism import Grade, Portfolio, allocate
from .errors import DomainError
from .mixture import (
    DEFAULT_QUADRATURE,
    MixtureShape,
    QuadratureSpec,
    f_quantile,
    pd_upper_bound_correlated,
)

__all__ = [
    "GAMMAS",
    "BENCHMARK_RHO",
    "EXAMPLE_PORTFOLIO_ONE",
    "EXAMPLE_PORTFOLIO_TWO",
    "TABLE_IDS",
    "TableSpec",
    "table_spec",
    "compute_table",
    "max_abs_deviation",
]

GAMMAS: tuple[float, ...] = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
BENCHMARK_RHO: float = 0.12

EXAMPLE_PORTFOLIO_ONE = Portfolio(
    (Grade("A", 100, 0), Grade("B", 400, 2), Grade("C", 300, 1))
)
EXAMPLE_PORTFOLIO_TWO = Portfolio(
    (Grade("A", 400, 2), Grade("B", 700, 1), Grade("C", 250, 3), Grade("D", 150, 1))
)

@dataclass(frozen=True)
class TableSpec:
    """One benchmark table: its kind, its portfolio and its printed cells.

    ``kind`` is one of "independent" (bounds, percent), "quantile"
    (auxiliary-distribution quantiles at 1-gamma, at BENCHMARK_RHO) or
    "correlated" (bounds, percent, at BENCHMARK_RHO). ``expected`` rows are
    in percent for bound tables and plain units for quantile tables. The
    layout follows from the kind: ``rho``, ``row_labels`` (grade names, or
    the pooled shapes "(n-k,k+1)" of a quantile table) and ``tolerance``,
    the acceptance tolerance in the table's units.
    """

    kind: str
    portfolio: Portfolio
    expected: tuple[tuple[float, ...], ...]

    @property
    def rho(self) -> float | None:
        return None if self.kind == "independent" else BENCHMARK_RHO

    @property
    def row_labels(self) -> tuple[str, ...]:
        if self.kind == "quantile":
            return tuple(f"({n - k},{k + 1})" for _, n, k in allocate(self.portfolio))
        return tuple(g.name for g in self.portfolio.grades)

    @property
    def tolerance(self) -> float:
        return 0.02 if self.kind == "correlated" else 0.01


_SPECS: dict[int, TableSpec] = {
    1: TableSpec("independent", EXAMPLE_PORTFOLIO_ONE, (
        (0.46, 0.64, 0.83, 0.97, 1.25, 1.62),
        (0.52, 0.73, 0.95, 1.10, 1.43, 1.85),
        (0.56, 0.90, 1.29, 1.57, 2.19, 3.04),
    )),
    2: TableSpec("quantile", EXAMPLE_PORTFOLIO_ONE, (
        (2.61, 2.34, 2.09, 1.94, 1.67, 1.36),
        (2.57, 2.29, 2.04, 1.90, 1.62, 1.31),
        (2.55, 2.25, 1.98, 1.82, 1.52, 1.19),
    )),
    3: TableSpec("correlated", EXAMPLE_PORTFOLIO_ONE, (
        (0.71, 1.41, 2.49, 3.41, 5.88, 10.08),
        (0.80, 1.58, 2.76, 3.77, 6.43, 10.91),
        (0.84, 1.75, 3.18, 4.41, 7.67, 13.13),
    )),
    4: TableSpec("independent", EXAMPLE_PORTFOLIO_TWO, (
        (0.51, 0.65, 0.78, 0.87, 1.06, 1.30),
        (0.52, 0.67, 0.84, 0.95, 1.19, 1.49),
        (1.17, 1.56, 1.99, 2.27, 2.87, 3.65),
        (1.12, 1.78, 2.57, 3.12, 4.34, 5.99),
    )),
    5: TableSpec("quantile", EXAMPLE_PORTFOLIO_TWO, (
        (2.57, 2.31, 2.07, 1.93, 1.67, 1.37),
        (2.57, 2.30, 2.06, 1.92, 1.65, 1.35),
        (2.27, 2.00, 1.75, 1.61, 1.33, 1.02),
        (2.30, 1.98, 1.71, 1.54, 1.24, 0.91),
    )),
    6: TableSpec("correlated", EXAMPLE_PORTFOLIO_TWO, (
        (0.79, 1.51, 2.59, 3.49, 5.58, 9.90),
        (0.79, 1.53, 2.64, 3.58, 6.06, 10.23),
        (1.64, 3.04, 5.01, 6.60, 10.61, 16.87),
        (1.56, 3.13, 5.45, 7.36, 12.21, 19.76),
    )),
}

TABLE_IDS = tuple(_SPECS)

# the printed source is known to carry one bad cell: table 6, first row at
# gamma = 0.99 reads 5.58. Its printed quantile (table 5) is 1.67, which
# through p = Phi(-sqrt(1 - rho) * q) and 2-decimal rounding confines the
# bound to [5.81, 5.92] %; the recomputed value is 5.8796. Kept verbatim so
# deviation reports stay honest. Acceptance criterion 4 reads this dict: it
# exempts exactly these cells from the tolerance and asserts they disagree
# with their printed quantile.
KNOWN_SUSPECT_CELLS: dict[int, tuple[tuple[int, int], ...]] = {
    6: ((0, 4),),
}


def table_spec(table_id: int) -> TableSpec:
    if table_id not in _SPECS:
        raise DomainError(f"table_spec: table_id must be one of {TABLE_IDS}, got {table_id!r}")
    return _SPECS[table_id]


def compute_table(
    table_id: int, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> list[list[float]]:
    """Recompute one benchmark table; same layout and units as ``expected``.

    The correlated and quantile tables integrate with ``q``.
    """
    spec = table_spec(table_id)
    rows: list[list[float]] = []
    for _, n_used, k_used in allocate(spec.portfolio):
        row: list[float] = []
        for gamma in GAMMAS:
            if spec.kind == "independent":
                res = pd_upper_bound_independent(
                    BoundQuery(n=n_used, k=k_used, gamma=gamma)
                )
                row.append(100.0 * res.p_upper)
            elif spec.kind == "quantile":
                shape = MixtureShape(
                    a=float(n_used - k_used), b=float(k_used + 1), rho=spec.rho
                )
                row.append(f_quantile(1.0 - gamma, shape, q))
            else:
                res = pd_upper_bound_correlated(
                    BoundQuery(n=n_used, k=k_used, gamma=gamma, rho=spec.rho), q
                )
                row.append(100.0 * res.p_upper)
        rows.append(row)
    return rows


def max_abs_deviation(
    computed: list[list[float]], expected: tuple[tuple[float, ...], ...]
) -> tuple[float, int, int]:
    """Largest |computed - expected| over all cells, with its (row, col)."""
    worst = -1.0
    where = (0, 0)
    for i, row in enumerate(expected):
        for j, val in enumerate(row):
            dev = abs(computed[i][j] - val)
            if dev > worst:
                worst = dev
                where = (i, j)
    return worst, where[0], where[1]

"""Command-line surface.

Subcommands:

* ``bound``      one (n, k, gamma[, rho]) upper bound with diagnostics
* ``portfolio``  per-grade bounds for a CSV portfolio across gammas
* ``quantile``   a quantile of the auxiliary distribution F_{a,b,rho}
* ``density``    plot data: CDF-derived densities and the conditional-PD CDF
* ``tables``     regenerate one of the six embedded benchmark tables
* ``mc-check``   quadrature vs Monte-Carlo cross-check with a z-score

Exit codes: 0 success, 2 usage, 3 portfolio parse failure, 4 numeric or
domain failure, 5 Monte-Carlo disagreement (|z| > 4). Results go to stdout,
errors to stderr. Percentages are rounded half-away-from-zero to two
decimals of a percent.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .binomial import BoundQuery, pd_upper_bound_independent
from .conservatism import GradeBoundReport, Grade, Portfolio, estimate_grades, remediate_reversal
from .errors import DomainError, NumericError
from .mc import McConfig, simulate_default_count_tail
from .mixture import (
    DEFAULT_QUADRATURE,
    FactorModelParams,
    MixtureShape,
    QuadratureSpec,
    f_cdf,
    f_quantile,
    mixture_tail_prob,
    pd_upper_bound_correlated,
    tilde_f_cdf,
    vasicek_cdf,
)
from .tables import GAMMAS, TABLE_IDS, compute_table, max_abs_deviation, table_spec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4
EXIT_MC_DISAGREE = 5

PORTFOLIO_TEMPLATE = """\
grade,obligors,defaults
A,100,0
B,400,2
C,300,1
"""


class PortfolioParseError(ValueError):
    """Portfolio file rejected; message carries the 1-based line number."""


def round_half_up(x: float, places: int = 2) -> str:
    quantum = Decimal(1).scaleb(-places)
    return str(Decimal(repr(float(x))).quantize(quantum, rounding=ROUND_HALF_UP))


def fmt_percent(p: float) -> str:
    return round_half_up(100.0 * p) + "%"


def parse_portfolio_file(path: str) -> Portfolio:
    """Read a grade,obligors,defaults CSV; errors name the offending line."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise PortfolioParseError(f"cannot open {path!r}: {err}") from err
    grades: list[Grade] = []
    seen: set[str] = set()
    with handle:
        reader = csv.reader(handle)
        header = None
        for row in reader:
            line = reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            cells = [cell.strip() for cell in row]
            if header is None:
                header = [cell.lower() for cell in cells]
                if header != ["grade", "obligors", "defaults"]:
                    raise PortfolioParseError(
                        f"line {line}: header must be 'grade,obligors,defaults', got {','.join(cells)!r}"
                    )
                continue
            if len(cells) != 3:
                raise PortfolioParseError(
                    f"line {line}: expected 3 fields, got {len(cells)}"
                )
            name, obligors_s, defaults_s = cells
            try:
                obligors = int(obligors_s)
                defaults = int(defaults_s)
            except ValueError as err:
                raise PortfolioParseError(
                    f"line {line}: obligors and defaults must be integers "
                    f"(got {obligors_s!r}, {defaults_s!r})"
                ) from err
            if name in seen:
                raise PortfolioParseError(f"line {line}: duplicate grade name {name!r}")
            seen.add(name)
            try:
                grades.append(Grade(name, obligors, defaults))
            except DomainError as err:
                raise PortfolioParseError(f"line {line}: {err}") from err
    if header is None:
        raise PortfolioParseError("line 1: empty file; expected a 'grade,obligors,defaults' header")
    if not grades:
        raise PortfolioParseError("line 2: no grade rows after the header")
    return Portfolio(tuple(grades))


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(node_count=args.nodes, abs_tol=args.tol)


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    query = BoundQuery(n=args.n, k=args.k, gamma=args.gamma, rho=args.rho)
    if args.rho is None:
        result = pd_upper_bound_independent(query)
    else:
        result = pd_upper_bound_correlated(query, _quad_spec(args))
    if result.vacuous:
        print("bound is vacuous: k equals n, so the defining inequality holds for every p")
        print(f"p_upper: {fmt_percent(result.p_upper)} ({result.p_upper!r})")
        return EXIT_OK
    print(f"p_upper: {fmt_percent(result.p_upper)} ({result.p_upper!r})")
    print(f"quantile: {result.quantile!r}")
    print(f"residual: {result.residual:.3e}")
    print(f"iterations: {result.iterations}")
    return EXIT_OK


def cmd_portfolio(args) -> int:
    if args.emit_template:
        sys.stdout.write(PORTFOLIO_TEMPLATE)
        return EXIT_OK
    if not args.file:
        return _usage("portfolio: a portfolio CSV path is required (or --emit-template)")
    if not args.gamma:
        return _usage("portfolio: at least one --gamma is required")
    for g in args.gamma:
        if not 0.0 < g < 1.0:
            return _usage(f"portfolio: gamma={g!r} outside (0, 1)")
    if args.rho is not None and not 0.0 <= args.rho < 1.0:
        return _usage(f"portfolio: rho={args.rho!r} outside [0, 1)")
    pf = parse_portfolio_file(args.file)
    quad = _quad_spec(args)

    reports: list[GradeBoundReport] = []
    for gamma in args.gamma:
        report = estimate_grades(pf, gamma, args.rho, quad)
        if args.remediate and report.reversal_flags:
            report = remediate_reversal(report, quad)
        reports.append(report)

    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(
            ["gamma", "grade", "n_used", "k_used", "p_upper", "percent", "flags"]
        )
        for report in reports:
            flagged = {riskier: safer for safer, riskier in report.reversal_flags}
            adjusted = report.adjusted_k or {}
            for e in report.entries:
                notes = []
                if e.name in flagged:
                    notes.append(f"below-{flagged[e.name]}")
                if e.name in adjusted:
                    notes.append(f"k+{adjusted[e.name]}")
                if e.vacuous:
                    notes.append("vacuous")
                writer.writerow(
                    [
                        report.gamma, e.name, e.n_used, e.k_used,
                        repr(e.p_upper), fmt_percent(e.p_upper), ";".join(notes),
                    ]
                )
        return EXIT_OK

    for report in reports:
        rho_txt = "independent" if report.rho is None else f"rho={report.rho}"
        print(f"gamma={report.gamma} ({rho_txt})")
        print(f"  {'grade':<8}{'n_used':>8}{'k_used':>8}{'p_upper':>10}")
        for e in report.entries:
            suffix = "  (vacuous)" if e.vacuous else ""
            print(
                f"  {e.name:<8}{e.n_used:>8}{e.k_used:>8}"
                f"{fmt_percent(e.p_upper):>10}{suffix}"
            )
        for safer, riskier in report.reversal_flags:
            print(f"  reversal: {riskier} bounds below {safer}")
        if report.adjusted_k:
            for name, inc in report.adjusted_k.items():
                print(f"  remediated: {name} default count raised by {inc}")
        for name in report.unresolved:
            print(f"  unresolved: {name} still reversed at its k = n cap")
    return EXIT_OK


def cmd_quantile(args) -> int:
    shape = MixtureShape(a=args.alpha, b=args.beta, rho=args.rho)
    y = f_quantile(args.prob, shape, _quad_spec(args))
    print(f"{round_half_up(y)} ({y!r})")
    return EXIT_OK


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"grid bounds ({lo!r}, {hi!r}) must be finite with lo < hi")
    if not 0.0 < step <= hi - lo:
        raise DomainError(f"grid step {step!r} must be positive and span the range")
    # end at the last point <= hi; the slack absorbs 0.998 / 0.001 = 997.99...
    count = math.floor((hi - lo) / step + 1e-9)
    return lo + step * np.arange(count + 1)


def cmd_density(args) -> int:
    quad = _quad_spec(args)
    h = 1e-4
    if args.kind == "f-density":
        if args.alpha is None or args.beta is None:
            return _usage("f-density needs --alpha and --beta")
        shape = MixtureShape(a=args.alpha, b=args.beta, rho=args.rho)
        lo = -4.0 if args.lo is None else args.lo
        hi = 4.0 if args.hi is None else args.hi
        step = 0.01 if args.step is None else args.step
        xs = _grid(lo, hi, step)
        cdf = f_cdf(np.concatenate([xs + h, xs - h]), shape, quad)
        vals = np.maximum((cdf[: xs.size] - cdf[xs.size :]) / (2.0 * h), 0.0)
    elif args.kind == "tilde-f-density":
        if args.alpha is None or args.beta is None:
            return _usage("tilde-f-density needs --alpha and --beta")
        shape = MixtureShape(a=args.alpha, b=args.beta, rho=args.rho)
        lo = 0.001 if args.lo is None else args.lo
        hi = 0.999 if args.hi is None else args.hi
        step = 0.001 if args.step is None else args.step
        xs = _grid(lo, hi, step)
        if xs[0] - h <= 0.0 or xs[-1] + h >= 1.0:
            return _usage("tilde-f-density grid must keep p +/- 1e-4 inside (0, 1)")
        cdf = tilde_f_cdf(np.concatenate([xs + h, xs - h]), shape, quad)
        vals = np.maximum((cdf[: xs.size] - cdf[xs.size :]) / (2.0 * h), 0.0)
    else:  # vasicek: CDF curve, not a density
        if args.p is None:
            return _usage("vasicek needs --p")
        model = FactorModelParams(p=args.p, rho=args.rho)
        lo = 0.001 if args.lo is None else args.lo
        hi = 0.999 if args.hi is None else args.hi
        step = 0.001 if args.step is None else args.step
        xs = _grid(lo, hi, step)
        if xs[0] <= 0.0 or xs[-1] >= 1.0:
            return _usage("vasicek grid must stay inside (0, 1)")
        vals = vasicek_cdf(xs, model)
    for x, v in zip(xs, vals):
        print(f"{x:.10g},{v:.10g}")
    return EXIT_OK


def cmd_tables(args) -> int:
    spec = table_spec(args.which)
    computed = compute_table(args.which, _quad_spec(args))
    percent = spec.kind != "quantile"

    def cell(v: float) -> str:
        return round_half_up(v) + ("%" if percent else "")

    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["row"] + [str(g) for g in GAMMAS])
        for label, row in zip(spec.row_labels, computed):
            writer.writerow([label] + [cell(v) for v in row])
    else:
        width = max(len(label) for label in spec.row_labels) + 2
        print(f"{'gamma':<{width}}" + "".join(f"{g:>9}" for g in GAMMAS))
        for label, row in zip(spec.row_labels, computed):
            print(f"{label:<{width}}" + "".join(f"{cell(v):>9}" for v in row))
    if args.diff:
        worst, i, j = max_abs_deviation(computed, spec.expected)
        unit = " pp" if percent else ""
        print(
            f"max deviation vs expected: {worst:.4f}{unit} at row {spec.row_labels[i]}, "
            f"gamma={GAMMAS[j]} (expected {spec.expected[i][j]}, "
            f"computed {computed[i][j]:.4f}); tolerance {spec.tolerance}{unit}"
        )
    return EXIT_OK


def cmd_mc_check(args) -> int:
    model = FactorModelParams(p=args.p, rho=args.rho)
    quad_val = mixture_tail_prob(args.n, args.k, model, _quad_spec(args))
    estimate = simulate_default_count_tail(
        args.n, args.k, model,
        McConfig(trials=args.trials, seed=args.seed, chunk_size=args.chunk_size),
    )
    if estimate.std_error > 0.0:
        z = (estimate.mean - quad_val) / estimate.std_error
    elif estimate.mean == quad_val:
        z = 0.0
    else:
        z = math.copysign(math.inf, estimate.mean - quad_val)
    print(f"quadrature: {quad_val!r}")
    print(f"mc_mean: {estimate.mean!r}")
    print(f"std_error: {estimate.std_error!r}")
    print(f"trials: {estimate.trials}")
    print(f"z_score: {z:.3f}")
    if abs(z) > 4.0:
        print("disagreement: |z| > 4 between quadrature and simulation", file=sys.stderr)
        return EXIT_MC_DISAGREE
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpbound",
        description=(
            "Upper confidence bounds for default probability in low-default "
            "portfolios: independent and one-factor correlated models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quad_parent = argparse.ArgumentParser(add_help=False)
    nodes, tol = DEFAULT_QUADRATURE.node_count, DEFAULT_QUADRATURE.abs_tol
    quad_parent.add_argument(
        "--nodes", type=int, default=nodes, help=f"trapezoid intervals on [-8, 8] (default {nodes})"
    )
    quad_parent.add_argument(
        "--tol", type=float, default=tol,
        help=f"quadrature convergence tolerance (default {tol})",
    )

    p_bound = sub.add_parser(
        "bound", parents=[quad_parent],
        help="single upper bound for (n, k, gamma[, rho])",
    )
    p_bound.add_argument("--n", type=int, required=True, help="obligor count")
    p_bound.add_argument("--k", type=int, required=True, help="observed defaults")
    p_bound.add_argument("--gamma", type=float, required=True, help="confidence level in (0,1)")
    p_bound.add_argument("--rho", type=float, default=None, help="asset correlation in [0,1); omit for independence")
    p_bound.set_defaults(handler=cmd_bound)

    p_pf = sub.add_parser(
        "portfolio", parents=[quad_parent],
        help="per-grade bounds for a portfolio CSV",
    )
    p_pf.add_argument("file", nargs="?", help="CSV with header grade,obligors,defaults, lowest risk first")
    p_pf.add_argument("--gamma", action="append", type=float, help="confidence level; repeatable")
    p_pf.add_argument("--rho", type=float, default=None, help="asset correlation; omit for independence")
    p_pf.add_argument("--remediate", action="store_true", help="raise flagged grades' defaults until order holds")
    p_pf.add_argument("--format", choices=("table", "csv"), default="table")
    p_pf.add_argument("--emit-template", action="store_true", help="print a template portfolio CSV and exit")
    p_pf.set_defaults(handler=cmd_portfolio)

    p_q = sub.add_parser(
        "quantile", parents=[quad_parent],
        help="quantile of the auxiliary distribution F_{a,b,rho}",
    )
    p_q.add_argument("--prob", type=float, required=True, help="probability in (0,1)")
    p_q.add_argument("--alpha", type=float, required=True, help="first shape (n-k on bound paths)")
    p_q.add_argument("--beta", type=float, required=True, help="second shape (k+1 on bound paths)")
    p_q.add_argument("--rho", type=float, required=True, help="asset correlation in [0,1)")
    p_q.set_defaults(handler=cmd_quantile)

    p_d = sub.add_parser(
        "density", parents=[quad_parent],
        help="emit (x, value) plot data for the model distributions",
    )
    p_d.add_argument(
        "--kind", choices=("f-density", "tilde-f-density", "vasicek"), required=True,
        help="f-density/tilde-f-density: finite-difference densities; vasicek: CDF curve",
    )
    p_d.add_argument("--alpha", type=float, help="first shape (density kinds)")
    p_d.add_argument("--beta", type=float, help="second shape (density kinds)")
    p_d.add_argument("--p", type=float, help="unconditional PD (vasicek kind)")
    p_d.add_argument("--rho", type=float, required=True, help="asset correlation in [0,1)")
    p_d.add_argument("--lo", type=float, help="grid start")
    p_d.add_argument("--hi", type=float, help="grid end")
    p_d.add_argument("--step", type=float, help="grid step")
    p_d.set_defaults(handler=cmd_density)

    p_t = sub.add_parser(
        "tables", parents=[quad_parent],
        help="regenerate one of the six embedded benchmark tables",
    )
    p_t.add_argument("which", type=int, choices=TABLE_IDS)
    p_t.add_argument("--diff", action="store_true", help="report max deviation vs embedded expected values")
    p_t.add_argument("--format", choices=("table", "csv"), default="table")
    p_t.set_defaults(handler=cmd_tables)

    p_mc = sub.add_parser(
        "mc-check", parents=[quad_parent],
        help="cross-check the mixture tail probability against simulation",
    )
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--p", type=float, required=True, help="unconditional PD")
    p_mc.add_argument("--rho", type=float, required=True, help="asset correlation in [0,1)")
    p_mc.add_argument("--trials", type=int, default=1_000_000)
    p_mc.add_argument("--seed", type=int, default=1)
    p_mc.add_argument("--chunk-size", type=int, default=250_000, dest="chunk_size")
    p_mc.set_defaults(handler=cmd_mc_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PortfolioParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, NumericError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

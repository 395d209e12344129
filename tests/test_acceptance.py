"""Acceptance gate: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every criterion is asserted at its full tolerance; nothing is skipped
or loosened. Two criteria check the printed source against itself as well as
against the computation:

* criterion 4: the correlated bound tables are built from the printed
  quantile tables by p = Phi(-sqrt(1 - rho) * q), so every printed bound must
  agree with its printed quantile within 2-decimal rounding. All do except
  one, table 6 row A at gamma = 0.99: its quantile prints 1.67, which puts
  the bound in [5.81, 5.92] %, yet it prints 5.58. That cell is the one entry
  of ``KNOWN_SUSPECT_CELLS``; it must stay inconsistent with its quantile and
  the computed 5.8796 must lie inside that interval. The other 41 cells are
  held to +-0.02 pp, and the exemption list is asserted exactly, so it cannot
  grow unnoticed.
* criterion 5: the quoted tail value 0.869 (n = 6, k = 1, p = 0.1) is the
  rho = 0.12 value (0.869125, equal to the frozen mpmath value). At
  rho = 0.5 quadrature, a 10^7-trial simulation and the frozen mpmath value
  agree on 0.849664, and that agreement is asserted too.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from ldpbound import (
    BoundQuery,
    FactorModelParams,
    McConfig,
    MixtureShape,
    PROP3_FORMS,
    binomial_cdf,
    copula_diagonal,
    equicorr_density,
    estimate_grades,
    f_cdf,
    f_cdf_unit_interval,
    mixture_mgf,
    mixture_pmf,
    mixture_tail_prob,
    pd_upper_bound_correlated,
    pd_upper_bound_independent,
    simulate_copula_diagonal,
    simulate_default_count_tail,
    simulate_prop3_form,
    std_normal_quantile,
    table_spec,
    compute_table,
    vasicek_cdf,
)
from ldpbound.cli import main
from ldpbound.tables import KNOWN_SUSPECT_CELLS

from _frozen import MIX_TAIL_6_1_P01_RHO012, MIX_TAIL_6_1_P01_RHO05


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_independent_bound_table():
    start = time.perf_counter()
    spec = table_spec(1)
    computed = compute_table(1)
    cells = [
        (abs(c - e), label, gamma)
        for label, crow, erow in zip(spec.row_labels, computed, spec.expected)
        for gamma, c, e in zip((0.5, 0.75, 0.9, 0.95, 0.99, 0.999), crow, erow)
    ]
    elapsed = time.perf_counter() - start
    worst = max(cells)
    count = len(cells)
    ok = worst[0] <= 0.01 and count == 18 and elapsed < 1.0
    report(1, "independent bound table", ok,
           f"{count} cells, worst |dev| {worst[0]:.4f} pp at ({worst[1]}, "
           f"gamma={worst[2]}) vs tol 0.01, runtime {elapsed:.2f} s")
    assert count == 18
    assert worst[0] <= 0.01, worst
    assert elapsed < 1.0


def test_criterion_2_independent_stress_table_and_reversal_flag():
    start = time.perf_counter()
    spec = table_spec(4)
    computed = compute_table(4)
    gammas = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    cells = [
        (abs(c - e), label, gamma)
        for label, crow, erow in zip(spec.row_labels, computed, spec.expected)
        for gamma, c, e in zip(gammas, crow, erow)
    ]
    # the reversal cell: D at gamma = 0.5 prints 1.12 despite C printing 1.17
    d_idx = spec.row_labels.index("D")
    reversal_cell = computed[d_idx][0]
    from ldpbound import EXAMPLE_PORTFOLIO_TWO
    flags = estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.5).reversal_flags
    elapsed = time.perf_counter() - start
    worst = max(cells)
    ok = (
        len(cells) == 24
        and worst[0] <= 0.01
        and abs(reversal_cell - 1.12) <= 0.01
        and ("C", "D") in flags
        and elapsed < 1.0
    )
    report(2, "stress table and reversal flag", ok,
           f"{len(cells)} cells, worst |dev| {worst[0]:.4f} pp at ({worst[1]}, "
           f"gamma={worst[2]}) vs tol 0.01, reversal flags {flags}, "
           f"runtime {elapsed:.2f} s")
    assert len(cells) == 24
    assert worst[0] <= 0.01, worst
    assert abs(reversal_cell - 1.12) <= 0.01
    assert ("C", "D") in flags
    assert elapsed < 1.0


def test_criterion_3_quantile_tables():
    start = time.perf_counter()
    gammas = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    worst = (0.0, None, None)
    count = 0
    for which in (2, 5):
        spec = table_spec(which)
        computed = compute_table(which)
        for label, crow, erow in zip(spec.row_labels, computed, spec.expected):
            for gamma, c, e in zip(gammas, crow, erow):
                count += 1
                dev = abs(c - e)
                if dev > worst[0]:
                    worst = (dev, f"table {which} row {label}", gamma)
    # the two named spot values
    named_median = compute_table(2)[0][0]
    named_tail = compute_table(5)[table_spec(5).row_labels.index("(149,2)")][5]
    elapsed = time.perf_counter() - start
    ok = (
        count == 42
        and worst[0] <= 0.01
        and abs(named_median - 2.61) <= 0.01
        and abs(named_tail - 0.91) <= 0.01
        and elapsed < 30.0
    )
    report(3, "auxiliary quantile tables", ok,
           f"{count} cells, worst |dev| {worst[0]:.4f} at ({worst[1]}, "
           f"gamma={worst[2]}) vs tol 0.01, median quantile {named_median:.4f}, "
           f"deep tail quantile {named_tail:.4f}, runtime {elapsed:.2f} s")
    assert count == 42
    assert worst[0] <= 0.01, worst
    assert abs(named_median - 2.61) <= 0.01
    assert abs(named_tail - 0.91) <= 0.01
    assert elapsed < 30.0


# the printed source rounds every bound (percent) and quantile to 2 decimals
PRINTED_HALF_STEP = 0.005


def printed_quantile_interval(quantile: float, rho: float) -> tuple[float, float]:
    """Bound interval (percent) set by a printed quantile and its rounding.

    The correlated bound is p = Phi(-sqrt(1 - rho) * q), decreasing in q, so
    a quantile printed as ``quantile`` confines the bound to the returned
    interval. Only ``math.erfc`` and printed numbers enter, not the code
    under test.
    """

    def bound_percent(q: float) -> float:
        return 50.0 * math.erfc(math.sqrt(1.0 - rho) * q / math.sqrt(2.0))

    return (bound_percent(quantile + PRINTED_HALF_STEP),
            bound_percent(quantile - PRINTED_HALF_STEP))


def test_criterion_4_correlated_bound_tables():
    start = time.perf_counter()
    gammas = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    # the correlated tables and the printed quantile tables they are built from
    quantile_table_of = {3: 2, 6: 5}
    assert KNOWN_SUSPECT_CELLS == {6: ((0, 4),)}
    worst = (0.0, None, None)
    count = 0
    inconsistent = []
    suspects = []
    for which in (3, 6):
        spec = table_spec(which)
        qspec = table_spec(quantile_table_of[which])
        assert qspec.kind == "quantile" and qspec.rho == spec.rho
        computed = compute_table(which)
        suspect = KNOWN_SUSPECT_CELLS.get(which, ())
        for i, (label, crow, erow, qrow) in enumerate(
                zip(spec.row_labels, computed, spec.expected, qspec.expected)):
            for j, (gamma, c, e, q) in enumerate(zip(gammas, crow, erow, qrow)):
                count += 1
                lo, hi = printed_quantile_interval(q, spec.rho)
                consistent = (lo - PRINTED_HALF_STEP <= e
                              <= hi + PRINTED_HALF_STEP)
                where = f"table {which} row {label}"
                if (i, j) in suspect:
                    suspects.append((where, gamma, e, c, lo, hi, consistent))
                    continue
                if not consistent:
                    inconsistent.append((where, gamma, e, q))
                dev = abs(c - e)
                if dev > worst[0]:
                    worst = (dev, where, gamma)
    # bold reversal cell of the correlated stress table: D at gamma = 0.5
    spec6 = table_spec(6)
    reversal_cell = compute_table(6)[spec6.row_labels.index("D")][0]
    from ldpbound import EXAMPLE_PORTFOLIO_TWO
    flags = estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.5, rho=0.12).reversal_flags
    elapsed = time.perf_counter() - start
    suspects_ok = all(
        not consistent and lo <= c <= hi
        for _, _, _, c, lo, hi, consistent in suspects
    )
    ok = (
        count == 42
        and worst[0] <= 0.02
        and not inconsistent
        and suspects_ok
        and abs(reversal_cell - 1.56) <= 0.02
        and ("C", "D") in flags
        and elapsed < 30.0
    )
    suspect_notes = "; ".join(
        f"misprint at ({where}, gamma={gamma}): printed {e:.2f} outside, "
        f"computed {c:.4f} inside [{lo:.2f}, {hi:.2f}] set by its printed quantile"
        for where, gamma, e, c, lo, hi, _ in suspects
    )
    report(4, "correlated bound tables", ok,
           f"{count} cells, {count - len(suspects)} checked: worst |dev| "
           f"{worst[0]:.4f} pp at ({worst[1]}, gamma={worst[2]}) vs tol 0.02, "
           f"{len(inconsistent)} inconsistent with their printed quantile; "
           f"{suspect_notes}; reversal cell {reversal_cell:.4f} "
           f"(want 1.56 +- 0.02), flags {flags}, runtime {elapsed:.2f} s")
    assert count == 42
    assert abs(reversal_cell - 1.56) <= 0.02
    assert ("C", "D") in flags
    assert elapsed < 30.0
    assert worst[0] <= 0.02, (
        f"{worst[1]} gamma={worst[2]} deviates {worst[0]:.4f} pp")
    # every printed cell agrees with its printed quantile within rounding,
    # except the documented misprint, which must not
    assert not inconsistent, inconsistent
    for where, gamma, e, c, lo, hi, consistent in suspects:
        assert not consistent, f"{where} gamma={gamma} is not a misprint"
        assert lo <= c <= hi, (
            f"{where} gamma={gamma}: computed {c:.4f} outside "
            f"[{lo:.4f}, {hi:.4f}] set by the printed quantile")


def test_criterion_5_small_portfolio_tail_value():
    start = time.perf_counter()
    m = FactorModelParams(p=0.1, rho=0.5)
    quad_val = mixture_tail_prob(6, 1, m)
    est = simulate_default_count_tail(6, 1, m, McConfig(trials=10_000_000, seed=1))
    z = (est.mean - quad_val) / est.std_error
    elapsed = time.perf_counter() - start
    at_012 = mixture_tail_prob(6, 1, FactorModelParams(p=0.1, rho=0.12))
    ok = (
        abs(at_012 - 0.869) <= 0.002
        and abs(at_012 - MIX_TAIL_6_1_P01_RHO012) <= 1e-10
        and abs(z) <= 3.0
        and abs(quad_val - MIX_TAIL_6_1_P01_RHO05) <= 1e-10
        and elapsed < 10.0
    )
    report(5, "small-portfolio tail value", ok,
           f"quadrature at rho = 0.12 {at_012:.6f} vs quoted 0.869 +- 0.002; "
           f"at rho = 0.5 quadrature {quad_val:.6f}, MC at 1e7 "
           f"{est.mean:.6f} (z = {z:+.2f}); runtime {elapsed:.2f} s")
    assert abs(z) <= 3.0, "simulation disagrees with quadrature"
    assert quad_val == pytest.approx(MIX_TAIL_6_1_P01_RHO05, abs=1e-10)
    assert elapsed < 10.0
    # the quoted 0.869 is the rho = 0.12 value (see module docstring)
    assert at_012 == pytest.approx(MIX_TAIL_6_1_P01_RHO012, abs=1e-10)
    assert abs(at_012 - 0.869) <= 0.002, (
        f"quadrature gives {at_012:.6f} at rho = 0.12")


def test_criterion_6_property_suite():
    start = time.perf_counter()
    notes = []

    # first identity: count CDF equals the regularized beta route, checked
    # against exact direct summation for every small case
    ps = np.linspace(0.01, 0.99, 99)
    worst1 = 0.0
    for n in range(1, 31):
        pows_p = np.ones((n + 1, ps.size))
        pows_q = np.ones((n + 1, ps.size))
        for i in range(1, n + 1):
            pows_p[i] = pows_p[i - 1] * ps
            pows_q[i] = pows_q[i - 1] * (1.0 - ps)
        for k in range(n):
            direct = np.zeros(ps.size)
            for i in range(k + 1):
                direct += math.comb(n, i) * pows_p[i] * pows_q[n - i]
            got = np.array([binomial_cdf(n, k, float(p)) for p in ps])
            worst1 = max(worst1, float(np.max(np.abs(got - direct))))
    notes.append(f"count-vs-beta worst {worst1:.2e} (tol 1e-12)")
    assert_1 = worst1 <= 1e-12

    # second identity: three expressions of the mixed tail across the grid
    worst2 = 0.0
    for n in (6, 150, 800):
        for k in (0, 1, 3):
            for p in (0.01, 0.1, 0.3):
                for rho in (0.05, 0.12, 0.5):
                    m = FactorModelParams(p=p, rho=rho)
                    s = MixtureShape(a=float(n - k), b=float(k + 1), rho=rho)
                    y = -std_normal_quantile(p) / math.sqrt(1.0 - rho)
                    count_route = mixture_tail_prob(n, k, m)
                    worst2 = max(
                        worst2,
                        abs(count_route - f_cdf(y, s)),
                        abs(count_route - f_cdf_unit_interval(y, s)),
                    )
    notes.append(f"three-form worst {worst2:.2e} (tol 1e-8)")
    assert_2 = worst2 <= 1e-8

    # third identity: the three samplers estimate the same number
    m = FactorModelParams(p=0.1, rho=0.5)
    ests = [
        simulate_prop3_form(form, 6, 1, m, McConfig(trials=1_000_000, seed=s))
        for form, s in zip(PROP3_FORMS, (11, 12, 13))
    ]
    worst3 = 0.0
    for i, e1 in enumerate(ests):
        for e2 in ests[i + 1:]:
            worst3 = max(
                worst3,
                abs(e1.mean - e2.mean) / math.hypot(e1.std_error, e2.std_error),
            )
    notes.append(f"sampler pairwise worst |z| {worst3:.2f} (tol 4)")
    assert_3 = worst3 < 4.0

    # copula corollary: diagonal equals the k=0 tail; closed-form density
    # equals the dense-matrix evaluation; simulated orthant agrees
    worst4 = 0.0
    for n in (2, 5, 10):
        for p in (0.05, 0.3):
            for rho in (0.12, 0.5):
                mm = FactorModelParams(p=p, rho=rho)
                worst4 = max(
                    worst4,
                    abs(copula_diagonal(n, mm) - mixture_tail_prob(n, 0, mm)),
                )
    rng = np.random.Generator(np.random.Philox(key=7))
    worst4d = 0.0
    for dim in (2, 3, 6):
        pts = rng.standard_normal((3, dim)) * 1.5
        for rho in (0.0, 0.12, 0.5, 0.9):
            cov = (1.0 - rho) * np.eye(dim) + rho * np.ones((dim, dim))
            _, logdet = np.linalg.slogdet(cov)
            for pt in pts:
                qform = float(pt @ np.linalg.solve(cov, pt))
                want = math.exp(-0.5 * (qform + logdet + dim * math.log(2.0 * math.pi)))
                got = equicorr_density(pt, rho=rho, n=dim)
                worst4d = max(worst4d, abs(got - want) / want)
    mo = FactorModelParams(p=0.1, rho=0.3)
    orthant = simulate_copula_diagonal(5, mo, McConfig(trials=1_000_000, seed=8))
    z_orthant = abs(orthant.mean - copula_diagonal(5, mo)) / orthant.std_error
    notes.append(
        f"copula worst {worst4:.2e} (tol 1e-10), density worst rel "
        f"{worst4d:.2e} (tol 1e-10), orthant |z| {z_orthant:.2f} (tol 3)"
    )
    assert_4 = worst4 <= 1e-10 and worst4d <= 1e-10 and z_orthant <= 3.0

    # reductions and sanity identities
    red = max(
        abs(mixture_tail_prob(n, k, FactorModelParams(p=p, rho=0.0)) - binomial_cdf(n, k, p))
        for n, k, p in ((10, 3, 0.2), (800, 3, 0.0083), (6, 1, 0.1))
    )
    vac_i = pd_upper_bound_independent(BoundQuery(n=4, k=4, gamma=0.9))
    vac_c = pd_upper_bound_correlated(BoundQuery(n=4, k=4, gamma=0.9, rho=0.12))
    mean_dev = 0.0
    for p in (0.01, 0.1, 0.3):
        for rho in (0.05, 0.12, 0.5):
            mm = FactorModelParams(p=p, rho=rho)
            mean, _ = quad(lambda v: 1.0 - vasicek_cdf(v, mm), 0.0, 1.0,
                           limit=200, epsabs=1e-12, epsrel=1e-12)
            mean_dev = max(mean_dev, abs(mean - p))
    m6 = FactorModelParams(p=0.1, rho=0.5)
    pmf_dev = abs(math.fsum(mixture_pmf(6, i, m6) for i in range(7)) - 1.0)
    mgf_dev = abs(mixture_mgf(0.0, 6, m6) - 1.0)
    notes.append(
        f"rho-0 reduction {red:.2e} (tol 1e-12), vacuous bounds "
        f"({vac_i.p_upper}, {vac_c.p_upper}), mean dev {mean_dev:.2e} "
        f"(tol 1e-8), pmf dev {pmf_dev:.2e} (tol 1e-9), mgf dev {mgf_dev:.2e} "
        f"(tol 1e-10)"
    )
    assert_5 = (
        red <= 1e-12
        and vac_i.vacuous and vac_i.p_upper == 1.0
        and vac_c.vacuous and vac_c.p_upper == 1.0
        and mean_dev <= 1e-8
        and pmf_dev <= 1e-9
        and mgf_dev <= 1e-10
    )

    elapsed = time.perf_counter() - start
    ok = assert_1 and assert_2 and assert_3 and assert_4 and assert_5
    report(6, "property suite", ok, "; ".join(notes) + f"; runtime {elapsed:.2f} s")
    assert assert_1, notes[0]
    assert assert_2, notes[1]
    assert assert_3, notes[2]
    assert assert_4, notes[3]
    assert assert_5, notes[4]


def test_criterion_7_mc_determinism(capsys):
    start = time.perf_counter()
    argv = ["mc-check", "--n", "6", "--k", "1", "--p", "0.1", "--rho", "0.5",
            "--trials", "200000", "--seed", "5"]
    outputs = []
    for _ in range(2):
        code = main(list(argv))
        outputs.append(capsys.readouterr().out)
        assert code == 0
    same_process = outputs[0] == outputs[1]

    # thread-count independence: the chunked counter-based streams cannot
    # depend on BLAS/OpenMP pool sizes, demonstrated across subprocesses
    script = (
        "import sys; from ldpbound.cli import main; "
        "sys.exit(main(['mc-check','--n','6','--k','1','--p','0.1',"
        "'--rho','0.5','--trials','200000','--seed','5']))"
    )
    # the children import the same ldpbound as this process, also when it
    # came from pytest's pythonpath setting rather than the environment
    src = str(Path(main.__code__.co_filename).resolve().parents[1])
    runs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    across_threads = runs[0] == runs[1]
    matches_in_process = runs[0].decode() == outputs[0]
    elapsed = time.perf_counter() - start
    ok = same_process and across_threads and matches_in_process
    report(7, "simulation determinism", ok,
           f"same-process identical: {same_process}; across thread counts "
           f"identical: {across_threads}; subprocess matches in-process: "
           f"{matches_in_process}; runtime {elapsed:.2f} s")
    assert same_process
    assert across_threads
    assert matches_in_process

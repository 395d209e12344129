"""Tests for the one-factor mixture distributions and the correlated bound.

Oracles: the frozen high-precision constants in _frozen, stdlib/scipy
integration (test-side only) for the Vasicek mean, 40-digit decimal
logarithms for the binomial coefficients, dense numpy linear algebra for the
equicorrelated density, and structural identities that tie independently
implemented routes to each other.
"""

import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from ldpbound import mixture
from ldpbound import (
    DEFAULT_QUADRATURE,
    GAMMAS,
    BoundQuery,
    DegenerateModelError,
    DomainError,
    FactorModelParams,
    MixtureShape,
    NumericError,
    QuadratureSpec,
    allocate,
    beta_cdf,
    beta_quantile,
    binomial_cdf,
    compute_table,
    conditional_pd,
    copula_diagonal,
    equicorr_density,
    f_cdf,
    f_cdf_unit_interval,
    f_quantile,
    mixture_mgf,
    mixture_pmf,
    mixture_tail_prob,
    pd_upper_bound_correlated,
    pd_upper_bound_independent,
    std_normal_cdf,
    std_normal_quantile,
    table_spec,
    tilde_f_cdf,
    vasicek_cdf,
)

from _frozen import (
    COPULA_DIAG_5_P01_R03,
    CORR_BOUND_150_1_G0999_R012,
    CORR_BOUND_800_3_G09_R012,
    F_CDF_091_149_2_012,
    F_CDF_261_797_4_012,
    F_QUANT_0001_149_2_012,
    F_QUANT_001_396_5_012,
    F_QUANT_05_797_4_012,
    MIX_MGF_T1_6_P01_R05,
    MIX_TAIL_6_1_P01_RHO012,
    MIX_TAIL_6_1_P01_RHO05,
    MIX_TAIL_800_3_P00249_RHO012,
    TILDE_F_00249_797_4_012,
)

RHO_BENCH = 0.12

# p_upper of every correlated cell of tables 3 and 6 (rows in allocation
# order, columns in GAMMAS order), as the earlier bisection solver returned
# them: a 36-step bisection of the same F to a 1e-10 bracket, an independent
# route to the same roots
BISECTION_CELLS = {
    3: (
        (0.0071055261453654315, 0.01414873741195986, 0.02490958278598845,
         0.03412076599620974, 0.05875800132354897, 0.1007535619894824),
        (0.008005687521513892, 0.015807938516147625, 0.027616895756436066,
         0.037653069356243046, 0.06427160256472692, 0.1091211265622882),
        (0.008351685566508879, 0.017536168405625323, 0.0318133064800089,
         0.04407758131081026, 0.07671387363578706, 0.13133263068863238),
    ),
    6: (
        (0.007902428988263755, 0.015120709742902794, 0.025861603227693226,
         0.03491342522552612, 0.05879578640895629, 0.09899089724597859),
        (0.007932259053074434, 0.015338549834720154, 0.026425660072769093,
         0.035798300191418456, 0.06057892534301166, 0.10231972222017255),
        (0.01643106295848869, 0.030360827483399248, 0.050078732880311706,
         0.06603253267731664, 0.10605911508893233, 0.16868039223357106),
        (0.015551802796963093, 0.031297412229852, 0.05451236553044463,
         0.07364305711776331, 0.12207773405963415, 0.19764886041250998),
    ),
}
# F evaluations one correlated solve may take on the paper's cells
SOLVE_BUDGET = 8


class TestConditionalPd:
    def test_zero_correlation_is_flat(self):
        m = FactorModelParams(p=0.07, rho=0.0)
        xs = np.linspace(-5.0, 5.0, 11)
        assert np.max(np.abs(conditional_pd(m, xs) - 0.07)) <= 1e-15

    def test_decreasing_in_factor(self):
        m = FactorModelParams(p=0.1, rho=0.3)
        xs = np.linspace(-6.0, 6.0, 101)
        vals = conditional_pd(m, xs)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all((vals > 0.0) & (vals < 1.0))

    def test_value_at_origin(self):
        m = FactorModelParams(p=0.1, rho=0.12)
        want = std_normal_cdf(std_normal_quantile(0.1) / math.sqrt(0.88))
        assert conditional_pd(m, 0.0) == pytest.approx(want, rel=1e-14)

    def test_scalar_matches_array(self):
        m = FactorModelParams(p=0.1, rho=0.12)
        xs = np.linspace(-4.0, 4.0, 17)
        arr = conditional_pd(m, xs)
        sca = np.array([conditional_pd(m, float(x)) for x in xs])
        assert np.max(np.abs(arr - sca)) <= 1e-15

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            FactorModelParams(p=0.0, rho=0.1)
        with pytest.raises(DomainError):
            FactorModelParams(p=0.5, rho=1.0)
        inf, nan = math.inf, math.nan
        for a, b, rho in ((0.0, 2.0, 0.1), (5.0, -1.0, 0.1), (5.0, 2.0, -0.1), (5.0, 2.0, 1.0),
                          (inf, 4.0, 0.1), (5.0, inf, 0.1), (nan, 4.0, 0.1), (5.0, nan, 0.1),
                          (-inf, 4.0, 0.1), (5.0, -inf, 0.1)):
            with pytest.raises(DomainError):
                MixtureShape(a=a, b=b, rho=rho)


class TestVasicekCdf:
    def test_closed_form_at_v_equal_p(self):
        # at v = p the argument collapses to Phi^-1(p)(sqrt(1-rho)-1)/sqrt(rho)
        for p in (0.01, 0.1, 0.3):
            m = FactorModelParams(p=p, rho=0.5)
            xp = std_normal_quantile(p)
            want = std_normal_cdf(xp * (math.sqrt(0.5) - 1.0) / math.sqrt(0.5))
            assert vasicek_cdf(p, m) == pytest.approx(want, rel=1e-14)

    def test_mean_is_p(self):
        # E[L] = integral_0^1 (1 - V(v)) dv must equal p; scipy adaptive
        # quadrature is the independent oracle here (test-side only)
        for p in (0.01, 0.1, 0.3):
            for rho in (0.05, 0.12, 0.5):
                m = FactorModelParams(p=p, rho=rho)
                mean, err = quad(lambda v: 1.0 - vasicek_cdf(v, m), 0.0, 1.0,
                                 limit=200, epsabs=1e-12, epsrel=1e-12)
                assert err < 1e-9
                assert mean == pytest.approx(p, abs=1e-8), (p, rho)

    def test_median_against_simulation(self):
        # empirical CDF of 1e6 simulated conditional PDs, evaluated at the
        # closed-form median Phi(Phi^-1(p)/sqrt(1-rho)), must sit at 1/2
        # within 3 standard errors (3 * 0.5/1000 = 0.0015)
        m = FactorModelParams(p=0.1, rho=0.12)
        median = std_normal_cdf(std_normal_quantile(0.1) / math.sqrt(0.88))
        assert vasicek_cdf(median, m) == pytest.approx(0.5, abs=1e-12)
        rng = np.random.Generator(np.random.Philox(key=20260819))
        losses = conditional_pd(m, rng.standard_normal(1_000_000))
        frac = np.mean(losses <= median)
        assert abs(frac - 0.5) <= 0.0015

    def test_monotone_and_bounded(self):
        m = FactorModelParams(p=0.1, rho=0.12)
        vs = np.linspace(0.001, 0.999, 200)
        vals = vasicek_cdf(vs, m)
        # the far upper tail saturates to 1.0 in doubles, so strictness
        # only holds away from it
        assert np.all(np.diff(vals) >= 0.0)
        inner = vasicek_cdf(np.linspace(0.01, 0.9, 90), m)
        assert np.all(np.diff(inner) > 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_refuses_degenerate_rho(self):
        with pytest.raises(DegenerateModelError):
            vasicek_cdf(0.1, FactorModelParams(p=0.1, rho=0.0))

    def test_rejects_v_outside_open_interval(self):
        m = FactorModelParams(p=0.1, rho=0.12)
        for v in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                vasicek_cdf(v, m)
        with pytest.raises(DomainError):
            vasicek_cdf(np.array([0.5, 1.0]), m)


class TestMixtureTail:
    def test_all_defaults_is_one(self):
        m = FactorModelParams(p=0.37, rho=0.3)
        assert mixture_tail_prob(5, 5, m) == 1.0

    def test_zero_correlation_reduces_to_binomial(self):
        for n, k, p in ((10, 3, 0.2), (800, 3, 0.0083), (150, 1, 0.01), (6, 1, 0.1)):
            m = FactorModelParams(p=p, rho=0.0)
            assert mixture_tail_prob(n, k, m) == pytest.approx(
                binomial_cdf(n, k, p), abs=1e-12), (n, k, p)

    def test_frozen_values(self):
        assert mixture_tail_prob(6, 1, FactorModelParams(p=0.1, rho=0.5)) == \
            pytest.approx(MIX_TAIL_6_1_P01_RHO05, abs=1e-10)
        assert mixture_tail_prob(6, 1, FactorModelParams(p=0.1, rho=0.12)) == \
            pytest.approx(MIX_TAIL_6_1_P01_RHO012, abs=1e-10)
        assert mixture_tail_prob(800, 3, FactorModelParams(p=0.0249, rho=0.12)) == \
            pytest.approx(MIX_TAIL_800_3_P00249_RHO012, abs=1e-10)

    def test_decreasing_in_p(self):
        ps = np.linspace(0.005, 0.6, 40)
        vals = [
            mixture_tail_prob(50, 2, FactorModelParams(p=float(p), rho=0.12))
            for p in ps
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_count_tail_matches_beta_route_everywhere(self):
        # for k < 64 the count route and the F route both sum _binom_tail on
        # the same nodes (g against 1 - u); the unit-interval route is the
        # independent one. All three must agree to 1e-8 across the whole
        # admissible box, including the stressed rho = 0.5 corner
        for n in (6, 150, 800):
            for k in (0, 1, 3):
                for p in (0.01, 0.1, 0.3):
                    for rho in (0.05, 0.12, 0.5):
                        m = FactorModelParams(p=p, rho=rho)
                        s = MixtureShape(a=float(n - k), b=float(k + 1), rho=rho)
                        y = -std_normal_quantile(p) / math.sqrt(1.0 - rho)
                        count_route = mixture_tail_prob(n, k, m)
                        beta_route = f_cdf(y, s)
                        unit_route = f_cdf_unit_interval(y, s)
                        assert count_route == pytest.approx(beta_route, abs=1e-8), \
                            (n, k, p, rho)
                        assert count_route == pytest.approx(unit_route, abs=1e-8), \
                            (n, k, p, rho)

    def test_rejects_bad_counts(self):
        m = FactorModelParams(p=0.1, rho=0.12)
        with pytest.raises(DomainError):
            mixture_tail_prob(0, 0, m)
        with pytest.raises(DomainError):
            mixture_tail_prob(5, 6, m)


class TestBinomialSumKernel:
    # (n, k) of portfolio-like bound shapes up to the b = k + 1 <= 64 cutoff
    SHAPES = ((800, 3), (2900, 40), (5405, 28), (9800, 63), (100_000, 63))

    def test_matches_betainc_across_transition(self):
        # I_u(n-k, k+1) = P(Bin(n, 1-u) <= k) on 768 lanes with g = 1 - u
        # within 8 sd of the mean of the Beta(k+1, n-k) law that the tail
        # turns over; scipy's betainc is the oracle (test-only)
        for n, k in self.SHAPES:
            mean = (k + 1) / (n + 1)
            sd = math.sqrt(mean * (1.0 - mean) / (n + 2))
            g = np.linspace(max(mean - 8.0 * sd, mean / 64.0), mean + 8.0 * sd, 768)
            u = 1.0 - g
            got = mixture._binom_tail(np.log1p(-u), np.log(u), n, k)
            want = betainc(n - k, k + 1, u)
            assert np.max(np.abs(got - want)) <= 1e-13, (n, k)

    def test_log_coefficients_match_exact_integers(self):
        # oracle: the 40-digit decimal logarithm of the same exact integer
        for n, k in self.SHAPES:
            got = mixture._log_choose_row(n, k)
            with localcontext() as ctx:
                ctx.prec = 40
                want = [float(Decimal(math.comb(n, i)).ln()) for i in range(k + 1)]
            assert len(got) == k + 1
            assert max(abs(c - w) for c, w in zip(got, want)) <= 1e-13, (n, k)


class TestFCdf:
    def test_frozen_values(self):
        s = MixtureShape(a=797.0, b=4.0, rho=RHO_BENCH)
        assert f_cdf(2.61, s) == pytest.approx(F_CDF_261_797_4_012, abs=1e-10)
        s = MixtureShape(a=149.0, b=2.0, rho=RHO_BENCH)
        assert f_cdf(0.91, s) == pytest.approx(F_CDF_091_149_2_012, rel=1e-7)

    def test_zero_correlation_composition(self):
        # rho = 0 freezes the factor: F(y) = I_{Phi(y)}(a, b)
        s = MixtureShape(a=5.0, b=2.0, rho=0.0)
        for y in (-2.0, -0.5, 0.0, 1.0, 2.5):
            want = beta_cdf(std_normal_cdf(y), 5.0, 2.0)
            assert f_cdf(y, s) == pytest.approx(want, abs=1e-12)

    def test_cdf_axioms(self):
        ys = np.linspace(-6.0, 6.0, 200)
        for a, b, rho in ((797.0, 4.0, 0.12), (5.0, 2.0, 0.5), (149.0, 2.0, 0.12)):
            s = MixtureShape(a=a, b=b, rho=rho)
            vals = f_cdf(ys, s)
            assert np.all(np.diff(vals) >= 0.0), (a, b, rho)
            assert np.all((vals >= 0.0) & (vals <= 1.0))
        s = MixtureShape(a=797.0, b=4.0, rho=0.12)
        assert f_cdf(-12.0, s) <= 1e-8
        assert f_cdf(12.0, s) >= 1.0 - 1e-8

    def test_scalar_matches_array(self):
        s = MixtureShape(a=797.0, b=4.0, rho=0.12)
        ys = np.linspace(1.0, 4.0, 13)
        arr = f_cdf(ys, s)
        sca = np.array([f_cdf(float(y), s) for y in ys])
        assert np.max(np.abs(arr - sca)) <= 1e-13

    def test_unit_interval_route_agrees(self):
        s = MixtureShape(a=797.0, b=4.0, rho=0.12)
        for y in (1.5, 2.61, 3.5):
            assert f_cdf_unit_interval(y, s) == pytest.approx(f_cdf(y, s), abs=1e-8)

    def test_rejects_non_finite_y(self):
        s = MixtureShape(a=797.0, b=4.0, rho=0.12)
        for y in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                f_cdf(y, s)
            with pytest.raises(DomainError):
                f_cdf(np.array([0.0, y]), s)
            with pytest.raises(DomainError):
                f_cdf_unit_interval(y, s)


class TestFQuantile:
    def test_frozen_values(self):
        assert f_quantile(0.5, MixtureShape(797.0, 4.0, RHO_BENCH)) == \
            pytest.approx(F_QUANT_05_797_4_012, abs=1e-9)
        assert f_quantile(0.01, MixtureShape(396.0, 5.0, RHO_BENCH)) == \
            pytest.approx(F_QUANT_001_396_5_012, abs=1e-9)
        assert f_quantile(0.001, MixtureShape(149.0, 2.0, RHO_BENCH)) == \
            pytest.approx(F_QUANT_0001_149_2_012, abs=1e-9)

    def test_residual_contract(self):
        # |F(F^-1(prob)) - prob| <= 1e-8 across the benchmark shapes
        shapes = ((797.0, 4.0), (697.0, 4.0), (299.0, 2.0),
                  (1493.0, 8.0), (1095.0, 6.0), (396.0, 5.0), (149.0, 2.0))
        probs = (0.5, 0.25, 0.1, 0.05, 0.01, 0.001)
        for a, b in shapes:
            s = MixtureShape(a=a, b=b, rho=RHO_BENCH)
            for prob in probs:
                y = f_quantile(prob, s)
                assert abs(f_cdf(y, s) - prob) <= 1e-8, (a, b, prob)

    def test_zero_correlation_composition(self):
        # F^-1 = Phi^-1 composed with the beta quantile when rho = 0
        s = MixtureShape(a=5.0, b=2.0, rho=0.0)
        want = std_normal_quantile(beta_quantile(0.5, 5.0, 2.0))
        assert f_quantile(0.5, s) == pytest.approx(want, abs=1e-8)

    def test_monotone_in_prob(self):
        s = MixtureShape(a=149.0, b=2.0, rho=0.12)
        qs = [f_quantile(p, s) for p in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_rejects_out_of_range(self):
        s = MixtureShape(a=5.0, b=2.0, rho=0.12)
        for prob in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(DomainError):
                f_quantile(prob, s)

    def test_staircase_falls_back_to_bisection(self):
        # near prob = 1 the computed F flattens into a staircase on which the
        # Newton steps stall; the solve must bisect its bracket down to the
        # 1e-10 exit (a 0.9 split in place of the midpoint takes 81 passes)
        prob = 1.0 - 1e-9
        s = MixtureShape(a=0.5, b=0.5, rho=0.12)
        y, evals = mixture._f_quantile_steps(prob, s, DEFAULT_QUADRATURE)
        assert evals <= 40
        assert abs(f_cdf(y, s) - prob) <= 1e-8

    def test_root_beyond_window_is_refused(self):
        # F(y) = Phi(sqrt(1-rho)*y) here, so the root for 1e-300 lies near
        # y = -39, beyond the +-32 bracket window, where the integrand's peak
        # has left the [-8, 8] quadrature window; for 1 - 1e-16 the truncated
        # rule never reaches prob (its weights sum to 1 - 1.2e-15)
        s = MixtureShape(a=1.0, b=1.0, rho=0.12)
        with pytest.raises(NumericError, match=r"no lower bracket above y=-32 "):
            f_quantile(1e-300, s)
        with pytest.raises(NumericError, match=r"no upper bracket below y=32 "):
            f_quantile(1.0 - 1e-16, s)


class TestCorrelatedBound:
    def test_frozen_example(self):
        res = pd_upper_bound_correlated(BoundQuery(n=800, k=3, gamma=0.9, rho=0.12))
        assert res.p_upper == pytest.approx(CORR_BOUND_800_3_G09_R012, abs=1e-9)
        assert res.quantile == pytest.approx(2.09098029028829779, abs=1e-9)
        assert 100.0 * res.p_upper == pytest.approx(2.49, abs=0.005)

    def test_frozen_stress_cell(self):
        res = pd_upper_bound_correlated(BoundQuery(n=150, k=1, gamma=0.999, rho=0.12))
        assert res.p_upper == pytest.approx(CORR_BOUND_150_1_G0999_R012, abs=1e-9)
        # a steep transition (k = 200) that the default grid must resolve;
        # the value is a 4096-node Gauss-Legendre solve
        res = pd_upper_bound_correlated(BoundQuery(n=10000, k=200, gamma=0.99, rho=0.12))
        assert res.p_upper == pytest.approx(0.13196125896300973, abs=1e-9)
        assert abs(res.residual) <= 1e-8

    def test_defining_equation_across_benchmark_cells(self):
        # P(D <= k at p_upper) must equal 1-gamma to 1e-6 on every grid cell
        cells = ((800, 3), (700, 3), (300, 1), (1500, 7), (1100, 5), (400, 4), (150, 1))
        gammas = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
        for n, k in cells:
            for gamma in gammas:
                res = pd_upper_bound_correlated(
                    BoundQuery(n=n, k=k, gamma=gamma, rho=RHO_BENCH))
                assert abs(res.residual) <= 1e-6, (n, k, gamma)
        # spot-check the residual definition itself on one cell
        res = pd_upper_bound_correlated(BoundQuery(n=400, k=4, gamma=0.9, rho=0.12))
        tail = mixture_tail_prob(400, 4, FactorModelParams(p=res.p_upper, rho=0.12))
        assert res.residual == pytest.approx(tail - 0.1, abs=1e-12)

    def test_paper_cells_within_solve_budget(self):
        for table_id, cells in BISECTION_CELLS.items():
            spec = table_spec(table_id)
            rows = [(n, k) for _, n, k in allocate(spec.portfolio)]
            for (n, k), want_row in zip(rows, cells, strict=True):
                for gamma, want in zip(GAMMAS, want_row, strict=True):
                    res = pd_upper_bound_correlated(
                        BoundQuery(n=n, k=k, gamma=gamma, rho=spec.rho))
                    assert res.iterations <= SOLVE_BUDGET, (table_id, n, k, gamma)
                    assert res.p_upper == pytest.approx(want, abs=1e-9), \
                        (table_id, n, k, gamma)

    def test_portfolio_shapes_within_five_evaluations(self):
        for n, k in ((5405, 28), (3486, 13)):
            for rho in (0.05, 0.12, 0.24):
                for gamma in GAMMAS:
                    res = pd_upper_bound_correlated(BoundQuery(n=n, k=k, gamma=gamma, rho=rho))
                    assert res.iterations <= 5, (n, k, rho, gamma)

    def test_recheck_is_independent_and_enforced(self, monkeypatch):
        # the re-check runs on the kernel the solve did not use: k < 64
        # solves on the binomial sum and re-checks on the continued fraction,
        # k >= 64 the other way round. Biasing the solve's kernel by 1e-7
        # moves the root, the re-check sees the bias and the bound is refused
        cases = (
            (BoundQuery(n=800, k=3, gamma=0.9, rho=0.12), mixture, "_binom_tail"),
            (BoundQuery(n=3000, k=80, gamma=0.5, rho=0.12), mixture.specfun, "beta_cdf"),
        )
        for query, module, name in cases:
            assert abs(pd_upper_bound_correlated(query).residual) <= 1e-12, query
            kernel = getattr(module, name)
            with monkeypatch.context() as patch:
                patch.setattr(module, name, lambda *args, f=kernel: f(*args) + 1e-7)
                with pytest.raises(NumericError, match="residual"):
                    pd_upper_bound_correlated(query)

    def test_exact_root_hit_ends_solve(self):
        # plain Newton on F lands on F == prob to the last bit here; a zero
        # step must end the solve instead of being retried
        res = pd_upper_bound_correlated(BoundQuery(n=10, k=5, gamma=0.5, rho=0.12))
        assert res.iterations <= SOLVE_BUDGET
        assert abs(res.residual) <= 1e-8

    def test_unit_shapes(self):
        # shapes a = 1 (k = n - 1) or b = 1 (k = 0) give the density's log a
        # 0 * log 0 term wherever Phi reaches 0 or 1 exactly, which it does at
        # the upper nodes for (1000, 0, rho = .5); the slope must stay quiet
        # there. With n = 1 the tail P(D <= 0) = 1 - p, so the bound is gamma
        cases = ((800, 799, 0.9, 0.12), (1, 0, 0.5, 0.12), (1, 0, 0.999, 0.12),
                 (1000, 0, 0.5, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n, k, gamma, rho in cases:
                res = pd_upper_bound_correlated(BoundQuery(n=n, k=k, gamma=gamma, rho=rho))
                assert res.iterations <= SOLVE_BUDGET, (n, k, gamma, rho)
                assert abs(res.residual) <= 1e-8, (n, k, gamma, rho)
                if n == 1:
                    assert res.p_upper == pytest.approx(gamma, abs=1e-9)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=3000),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        rho=st.sampled_from((0.05, 0.12, 0.24)),
    )
    def test_envelope_properties(self, n, k_frac, rho):
        # every paper gamma gives a value whose quantile solves F = 1 - gamma
        # to 1e-8, or a typed error; the values never decrease in gamma
        k = int(k_frac * min(n - 1, 40))
        shape = MixtureShape(a=float(n - k), b=float(k + 1), rho=rho)
        bounds = []
        for gamma in GAMMAS:
            try:
                res = pd_upper_bound_correlated(BoundQuery(n=n, k=k, gamma=gamma, rho=rho))
            except (NumericError, DomainError):
                bounds.append(None)
                continue
            assert abs(f_cdf(res.quantile, shape) - (1.0 - gamma)) <= 1e-8, (n, k, gamma)
            bounds.append(res.p_upper)
        solved = [b for b in bounds if b is not None]
        assert all(b >= a for a, b in zip(solved, solved[1:])), (n, k, rho, bounds)

    def test_zero_correlation_matches_independent(self):
        for n, k, gamma in ((800, 3, 0.9), (150, 1, 0.95), (100, 0, 0.95)):
            corr = pd_upper_bound_correlated(BoundQuery(n=n, k=k, gamma=gamma, rho=0.0))
            indep = pd_upper_bound_independent(BoundQuery(n=n, k=k, gamma=gamma))
            assert abs(corr.p_upper - indep.p_upper) <= 1e-9, (n, k, gamma)

    def test_monotone_in_rho(self):
        # more systematic risk widens the bound
        bounds = [
            pd_upper_bound_correlated(BoundQuery(n=800, k=3, gamma=0.9, rho=r)).p_upper
            for r in (0.0, 0.05, 0.12, 0.3, 0.5)
        ]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_vacuous_when_every_obligor_defaulted(self):
        res = pd_upper_bound_correlated(BoundQuery(n=3, k=3, gamma=0.9, rho=0.12))
        assert res.vacuous and res.p_upper == 1.0 and math.isnan(res.quantile)

    def test_rejects_query_without_rho(self):
        with pytest.raises(DomainError):
            pd_upper_bound_correlated(BoundQuery(n=800, k=3, gamma=0.9))


class TestTildeFCdf:
    def test_frozen_value(self):
        s = MixtureShape(a=797.0, b=4.0, rho=RHO_BENCH)
        assert tilde_f_cdf(0.0249, s) == pytest.approx(TILDE_F_00249_797_4_012, abs=1e-9)

    def test_threshold_equivalence_with_bound(self):
        # tilde_F(p) <= gamma exactly when p <= p_upper: checked at the
        # bound itself and one step to either side
        for n, k, gamma in ((800, 3, 0.9), (150, 1, 0.95), (400, 4, 0.5)):
            res = pd_upper_bound_correlated(BoundQuery(n=n, k=k, gamma=gamma, rho=0.12))
            s = MixtureShape(a=float(n - k), b=float(k + 1), rho=0.12)
            assert tilde_f_cdf(res.p_upper, s) == pytest.approx(gamma, abs=1e-6)
            assert tilde_f_cdf(res.p_upper * (1.0 - 1e-4), s) < gamma
            assert tilde_f_cdf(res.p_upper * (1.0 + 1e-4), s) > gamma

    def test_matches_count_route(self):
        # tilde_F at integer shapes is the complementary count probability
        s = MixtureShape(a=5.0, b=2.0, rho=0.3)
        m = FactorModelParams(p=0.08, rho=0.3)
        assert tilde_f_cdf(0.08, s) == pytest.approx(
            1.0 - mixture_tail_prob(6, 1, m), abs=1e-9)

    def test_monotone_in_p(self):
        s = MixtureShape(a=149.0, b=2.0, rho=0.12)
        ps = np.linspace(0.001, 0.5, 150)
        vals = tilde_f_cdf(ps, s)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestMixturePmf:
    def test_normalizes(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        total = math.fsum(mixture_pmf(6, i, m) for i in range(7))
        assert total == pytest.approx(1.0, abs=1e-9)
        m = FactorModelParams(p=0.05, rho=0.12)
        total = math.fsum(mixture_pmf(20, i, m) for i in range(21))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_partial_sums_match_tail(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        for k in range(6):
            partial = math.fsum(mixture_pmf(6, i, m) for i in range(k + 1))
            assert partial == pytest.approx(mixture_tail_prob(6, k, m), abs=1e-9), k

    def test_zero_correlation_is_binomial(self):
        m = FactorModelParams(p=0.2, rho=0.0)
        for i in range(11):
            want = math.comb(10, i) * 0.2**i * 0.8 ** (10 - i)
            assert mixture_pmf(10, i, m) == pytest.approx(want, abs=1e-12), i

    def test_rejects_bad_index(self):
        m = FactorModelParams(p=0.1, rho=0.12)
        with pytest.raises(DomainError):
            mixture_pmf(5, 6, m)
        with pytest.raises(DomainError):
            mixture_pmf(5, -1, m)


class TestMixtureMgf:
    def test_value_at_zero(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        assert mixture_mgf(0.0, 6, m) == pytest.approx(1.0, abs=1e-10)

    def test_zero_correlation_closed_form(self):
        m = FactorModelParams(p=0.1, rho=0.0)
        for t in (-1.0, 0.5, 1.0):
            want = (0.9 + 0.1 * math.exp(t)) ** 6
            assert mixture_mgf(t, 6, m) == pytest.approx(want, rel=1e-9), t

    def test_frozen_value(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        assert mixture_mgf(1.0, 6, m) == pytest.approx(MIX_MGF_T1_6_P01_R05, rel=1e-8)

    def test_matches_pmf_weighted_sum(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        t = 0.5
        want = math.fsum(mixture_pmf(6, i, m) * math.exp(t * i) for i in range(7))
        assert mixture_mgf(t, 6, m) == pytest.approx(want, rel=1e-8)

    def test_rejects_non_finite_t(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        with pytest.raises(DomainError):
            mixture_mgf(float("inf"), 6, m)

    def test_window_cut_beyond_tolerance_is_refused(self):
        # for t > 0 the integrand grows like e^(t*n) as x falls, so the mass
        # beyond x = -8 is not bounded by Phi(-8). At t = 0.1, n = 300 a
        # 65536-interval grid gives 2.9740142767 against scipy's quad over
        # (-40, 40) 2.9740315089; a finer grid cannot mend a cut window
        m = FactorModelParams(p=0.02, rho=0.12)
        for q in (DEFAULT_QUADRATURE, QuadratureSpec(node_count=65536)):
            with pytest.raises(NumericError, match=r"window \[-8, 8\]"):
                mixture_mgf(0.1, 300, m, q)


class TestCopulaDiagonal:
    def test_single_event(self):
        m = FactorModelParams(p=0.1, rho=0.3)
        assert copula_diagonal(1, m) == pytest.approx(0.9, abs=1e-12)

    def test_zero_correlation_is_power(self):
        m = FactorModelParams(p=0.1, rho=0.0)
        assert copula_diagonal(4, m) == pytest.approx(0.9**4, abs=1e-12)

    def test_frozen_value(self):
        m = FactorModelParams(p=0.1, rho=0.3)
        assert copula_diagonal(5, m) == pytest.approx(COPULA_DIAG_5_P01_R03, abs=1e-10)

    def test_matches_zero_default_tail(self):
        for n in (2, 5, 10):
            for p in (0.05, 0.3):
                for rho in (0.12, 0.5):
                    m = FactorModelParams(p=p, rho=rho)
                    assert copula_diagonal(n, m) == pytest.approx(
                        mixture_tail_prob(n, 0, m), abs=1e-10), (n, p, rho)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            copula_diagonal(0, FactorModelParams(p=0.1, rho=0.3))


class TestEquicorrDensity:
    def test_univariate_is_standard_normal(self):
        for x in (-2.0, 0.0, 1.3):
            want = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            assert equicorr_density([x], rho=0.77) == pytest.approx(want, rel=1e-15)

    def test_independent_trivariate_origin(self):
        want = (2.0 * math.pi) ** -1.5
        assert equicorr_density([0.0, 0.0, 0.0], rho=0.0) == pytest.approx(want, rel=1e-15)

    def test_against_dense_linear_algebra(self):
        # full matrix inverse and determinant from numpy as the oracle
        rng = np.random.Generator(np.random.Philox(key=7))
        for dim in (2, 3, 6):
            pts = rng.standard_normal((4, dim)) * 1.5
            for rho in (0.0, 0.12, 0.5, 0.9):
                cov = (1.0 - rho) * np.eye(dim) + rho * np.ones((dim, dim))
                _, logdet = np.linalg.slogdet(cov)
                for pt in pts:
                    qform = float(pt @ np.linalg.solve(cov, pt))
                    want = math.exp(
                        -0.5 * (qform + logdet + dim * math.log(2.0 * math.pi))
                    )
                    got = equicorr_density(pt, rho=rho, n=dim)
                    assert got == pytest.approx(want, rel=1e-10), (dim, rho)

    def test_rejects_singular_or_invalid(self):
        with pytest.raises(DomainError):
            equicorr_density([0.0, 0.0], rho=1.0)
        with pytest.raises(DomainError):
            equicorr_density([0.0, 0.0], rho=-0.2)
        with pytest.raises(DomainError):
            equicorr_density([0.0, 0.0], rho=0.3, n=3)
        with pytest.raises(DomainError):
            equicorr_density([], rho=0.3)
        with pytest.raises(DomainError):
            equicorr_density([0.0, float("inf")], rho=0.3)


class TestQuadratureControls:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(node_count=1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                QuadratureSpec(node_count=bad)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1e-9)

    def test_self_check_trips_on_starved_grid(self):
        # 128 nodes cannot resolve the steepest admissible integrand; the
        # half-size comparison must refuse the answer rather than return it
        starved = QuadratureSpec(node_count=128, abs_tol=1e-10)
        with pytest.raises(NumericError, match="node_count"):
            f_cdf(2.0, MixtureShape(a=1493.0, b=8.0, rho=0.5), starved)
        # the table builder hands its rule to every solve it makes
        with pytest.raises(NumericError, match="quadrature no longer converging"):
            compute_table(3, QuadratureSpec(node_count=16, abs_tol=1e-12))

    def test_gaussian_weight_paths_build_no_gauss_legendre_rule(self):
        # a fresh process, so no node cache is warm: with leggauss refused,
        # every Gaussian-weight integral still runs, and only the
        # unit-interval reference route needs it
        script = (
            "import numpy as np\n"
            "def refuse(*args):\n"
            "    raise RuntimeError('leggauss refused')\n"
            "np.polynomial.legendre.leggauss = refuse\n"
            "from ldpbound import *\n"
            "m = FactorModelParams(p=0.01, rho=0.12)\n"
            "s = MixtureShape(a=797.0, b=4.0, rho=0.12)\n"
            "print(pd_upper_bound_correlated(BoundQuery(n=800, k=3, gamma=0.9, rho=0.12)).p_upper)\n"
            "print(f_quantile(0.5, s))\n"
            "print(mixture_tail_prob(800, 3, m))\n"
            "print(mixture_pmf(800, 3, m))\n"
            "print(copula_diagonal(5, m))\n"
            "try:\n"
            "    f_cdf_unit_interval(2.61, s)\n"
            "except RuntimeError:\n"
            "    print('refused')\n"
        )
        src = str(Path(mixture.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        lines = proc.stdout.decode().split()
        assert lines[-1] == "refused"
        assert all(math.isfinite(float(v)) for v in lines[:-1]) and len(lines) == 6

    def test_generous_grid_matches_default(self):
        s = MixtureShape(a=797.0, b=4.0, rho=0.12)
        rich = QuadratureSpec(node_count=1024, abs_tol=1e-10)
        assert f_cdf(2.61, s, rich) == pytest.approx(f_cdf(2.61, s), abs=1e-12)

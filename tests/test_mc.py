"""Tests for the simulation cross-checks.

Statistical assertions use 3 (or, for the three-route comparison, 4)
standard errors; with the seeds pinned here they are deterministic, and the
margins were chosen so a correct implementation passes with room while a
misrouted formula fails by far more than one margin.
"""

import math

import numpy as np
import pytest

from ldpbound import (
    DomainError,
    FactorModelParams,
    McConfig,
    PROP3_FORMS,
    beta_cdf,
    binomial_cdf,
    copula_diagonal,
    simulate_copula_diagonal,
    simulate_default_count_tail,
    simulate_prop3_form,
)
from ldpbound.mc import _beta_sample

from _frozen import COPULA_DIAG_5_P01_R03, MIX_TAIL_6_1_P01_RHO05


def z_against(estimate, truth: float) -> float:
    if estimate.std_error == 0.0:
        return 0.0 if estimate.mean == truth else math.inf
    return (estimate.mean - truth) / estimate.std_error


class TestMcConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            McConfig(trials=0, seed=1)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=-1)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=2**64)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                McConfig(trials=bad, seed=1)
            with pytest.raises(DomainError):
                McConfig(trials=10, seed=bad)

    def test_std_error_formula(self):
        m = FactorModelParams(p=0.1, rho=0.3)
        est = simulate_default_count_tail(
            5, 1, m, McConfig(trials=4_000, seed=9))
        want = math.sqrt(est.mean * (1.0 - est.mean) / 4_000)
        assert est.std_error == pytest.approx(want, rel=1e-12)
        assert est.trials == 4_000


class TestPinnedStreams:
    # exact estimates: any change to the draw order, the batching or the
    # per-chunk substreams moves them
    @pytest.mark.parametrize("sampler, args, mean", [
        # one chunk, several row batches
        (simulate_default_count_tail, (100, 2, FactorModelParams(0.01, 0.12),
                                       McConfig(100_000, 1)), 0.87995),
        # four chunks
        (simulate_default_count_tail, (6, 1, FactorModelParams(0.1, 0.5),
                                       McConfig(1_000_000, 4)), 0.849857),
        # a row batch smaller than a chunk
        (simulate_default_count_tail, (50_000, 5, FactorModelParams(0.001, 0.2),
                                       McConfig(300, 3)), 0.29333333333333333),
        (simulate_copula_diagonal, (5, FactorModelParams(0.1, 0.3),
                                    McConfig(1_000_000, 8)), 0.659851),
    ])
    def test_estimate_is_fixed_by_trials_and_seed(self, sampler, args, mean):
        assert sampler(*args).mean == mean


class TestDefaultCountTail:
    def test_single_obligor_zero_defaults(self):
        # P(D <= 0) for one obligor is just the survival probability 1-p
        m = FactorModelParams(p=0.3, rho=0.3)
        est = simulate_default_count_tail(1, 0, m, McConfig(trials=100_000, seed=1))
        assert abs(z_against(est, 0.7)) <= 3.0

    def test_independent_case_matches_binomial(self):
        m = FactorModelParams(p=0.05, rho=0.0)
        est = simulate_default_count_tail(10, 2, m, McConfig(trials=200_000, seed=2))
        assert abs(z_against(est, binomial_cdf(10, 2, 0.05))) <= 3.0

    def test_matches_quadrature_small_portfolio(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        est = simulate_default_count_tail(6, 1, m, McConfig(trials=1_000_000, seed=4))
        assert abs(z_against(est, MIX_TAIL_6_1_P01_RHO05)) <= 3.0

    def test_matches_quadrature_large_portfolio(self):
        from _frozen import MIX_TAIL_800_3_P00249_RHO012
        m = FactorModelParams(p=0.0249, rho=0.12)
        est = simulate_default_count_tail(800, 3, m, McConfig(trials=100_000, seed=5))
        assert abs(z_against(est, MIX_TAIL_800_3_P00249_RHO012)) <= 3.0

    def test_deterministic_for_fixed_config(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        cfg = McConfig(trials=100_000, seed=42)
        first = simulate_default_count_tail(6, 1, m, cfg)
        second = simulate_default_count_tail(6, 1, m, cfg)
        assert first == second

    def test_rejects_bad_counts(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        cfg = McConfig(trials=10, seed=1)
        with pytest.raises(DomainError):
            simulate_default_count_tail(0, 0, m, cfg)
        with pytest.raises(DomainError):
            simulate_default_count_tail(5, 6, m, cfg)


class TestCopulaDiagonal:
    def test_single_event(self):
        m = FactorModelParams(p=0.1, rho=0.3)
        est = simulate_copula_diagonal(1, m, McConfig(trials=100_000, seed=6))
        assert abs(z_against(est, 0.9)) <= 3.0

    def test_independent_case_is_power(self):
        m = FactorModelParams(p=0.1, rho=0.0)
        est = simulate_copula_diagonal(4, m, McConfig(trials=200_000, seed=7))
        assert abs(z_against(est, 0.9**4)) <= 3.0

    def test_matches_quadrature(self):
        m = FactorModelParams(p=0.1, rho=0.3)
        est = simulate_copula_diagonal(5, m, McConfig(trials=1_000_000, seed=8))
        assert abs(z_against(est, COPULA_DIAG_5_P01_R03)) <= 3.0
        assert COPULA_DIAG_5_P01_R03 == pytest.approx(copula_diagonal(5, m), abs=1e-10)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            simulate_copula_diagonal(0, FactorModelParams(p=0.1, rho=0.3),
                                     McConfig(trials=10, seed=1))


class TestProp3Forms:
    def test_independent_case_reduces_to_beta(self):
        # with rho = 0 every route collapses to P(W < 1-p) for a
        # Beta(n-k, k+1) variable, i.e. the plain binomial tail
        truth = beta_cdf(0.9, 5.0, 2.0)
        m = FactorModelParams(p=0.1, rho=0.0)
        for seed, form in enumerate(PROP3_FORMS, start=20):
            est = simulate_prop3_form(form, 6, 1, m, McConfig(trials=200_000, seed=seed))
            assert abs(z_against(est, truth)) <= 3.0, form

    def test_three_routes_agree_and_match_quadrature(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        estimates = {
            form: simulate_prop3_form(form, 6, 1, m, McConfig(trials=1_000_000, seed=s))
            for form, s in zip(PROP3_FORMS, (11, 12, 13))
        }
        for form, est in estimates.items():
            assert abs(z_against(est, MIX_TAIL_6_1_P01_RHO05)) <= 3.0, form
        forms = list(PROP3_FORMS)
        for i, f1 in enumerate(forms):
            for f2 in forms[i + 1:]:
                e1, e2 = estimates[f1], estimates[f2]
                z = abs(e1.mean - e2.mean) / math.hypot(e1.std_error, e2.std_error)
                assert z <= 4.0, (f1, f2)

    def test_rejects_unknown_form_and_degenerate_k(self):
        m = FactorModelParams(p=0.1, rho=0.5)
        cfg = McConfig(trials=10, seed=1)
        with pytest.raises(DomainError):
            simulate_prop3_form("antithetic", 6, 1, m, cfg)
        with pytest.raises(DomainError):
            simulate_prop3_form(PROP3_FORMS[0], 6, 6, m, cfg)


class TestBetaSampler:
    @pytest.mark.parametrize("a,b", [(797.0, 4.0), (5.0, 2.0)])
    def test_kolmogorov_smirnov(self, a, b):
        # one-sample KS against the package's own beta CDF; 1% critical
        # value for n = 1e5 is 1.628 / sqrt(n)
        n = 100_000
        rng = np.random.Generator(np.random.Philox(key=31))
        sample = np.sort(_beta_sample(rng, a, b, n))
        cdf = beta_cdf(sample, a, b)
        grid = np.arange(1, n + 1) / n
        d_plus = np.max(grid - cdf)
        d_minus = np.max(cdf - (grid - 1.0 / n))
        assert max(d_plus, d_minus) < 1.628 / math.sqrt(n), (a, b)

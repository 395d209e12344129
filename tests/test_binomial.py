"""Tests for the independent-obligor binomial machinery.

Oracle for the CDF identity: direct summation of C(n,i) p^i (1-p)^(n-i)
with math.comb, exact integer coefficients.
"""

import math

import numpy as np
import pytest

import ldpbound.binomial
from ldpbound import (
    BoundQuery,
    DomainError,
    NumericError,
    binomial_cdf,
    pd_upper_bound_independent,
    pd_upper_bound_zero_defaults,
)

from _frozen import BINOM_CDF_800_3_P0083, ZERO_DEFAULT_100_095


def direct_binomial_cdf(n: int, k: int, p: float) -> float:
    return math.fsum(
        math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1)
    )


class TestQueryValidation:
    def test_accepts_integral_floats(self):
        q = BoundQuery(n=800.0, k=3.0, gamma=0.95)
        assert q.n == 800 and q.k == 3

    def test_rejects_bad_n(self):
        for n in (0, -5, 800.5):
            with pytest.raises(DomainError):
                BoundQuery(n=n, k=0, gamma=0.9)

    def test_rejects_bad_k(self):
        for k in (-1, 6, 2.5):
            with pytest.raises(DomainError):
                BoundQuery(n=5, k=k, gamma=0.9)

    def test_rejects_bad_gamma(self):
        for gamma in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                BoundQuery(n=5, k=0, gamma=gamma)

    def test_rejects_bad_rho(self):
        for rho in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                BoundQuery(n=5, k=0, gamma=0.9, rho=rho)
        BoundQuery(n=5, k=0, gamma=0.9, rho=0.0)  # boundary 0 is legal


class TestBinomialCdf:
    def test_all_defaults_is_one(self):
        assert binomial_cdf(5, 5, 0.37) == 1.0

    def test_matches_direct_sum_small(self):
        got = binomial_cdf(10, 3, 0.2)
        assert got == pytest.approx(direct_binomial_cdf(10, 3, 0.2), abs=1e-13)

    def test_frozen_large_case(self):
        got = binomial_cdf(800, 3, 0.0083)
        assert got == pytest.approx(0.10, abs=5e-3)
        assert got == pytest.approx(BINOM_CDF_800_3_P0083, rel=1e-13)

    def test_endpoint_p(self):
        assert binomial_cdf(10, 3, 0.0) == 1.0
        assert binomial_cdf(10, 3, 1.0) == 0.0

    def test_beta_identity_exhaustive_small_n(self):
        # P(D <= k) must match the direct sum for every n <= 30, k < n,
        # across a 99-point p grid, to 1e-12
        ps = np.linspace(0.01, 0.99, 99)
        for n in range(1, 31):
            for k in range(n):
                direct = np.array([direct_binomial_cdf(n, k, float(p)) for p in ps])
                got = np.array([binomial_cdf(n, k, float(p)) for p in ps])
                worst = np.max(np.abs(got - direct))
                assert worst <= 1e-12, f"n={n} k={k} worst={worst:.3e}"

    def test_monotone_decreasing_in_p(self):
        ps = np.linspace(0.0, 1.0, 101)
        vals = [binomial_cdf(800, 3, float(p)) for p in ps]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            binomial_cdf(0, 0, 0.5)
        with pytest.raises(DomainError):
            binomial_cdf(5, 6, 0.5)
        with pytest.raises(DomainError):
            binomial_cdf(5, -1, 0.5)
        with pytest.raises(DomainError):
            binomial_cdf(5, 2, 1.5)


class TestIndependentBound:
    def test_example_800_3(self):
        res = pd_upper_bound_independent(BoundQuery(n=800, k=3, gamma=0.95))
        assert 100.0 * res.p_upper == pytest.approx(0.97, abs=0.005)

    def test_example_1500_7(self):
        res = pd_upper_bound_independent(BoundQuery(n=1500, k=7, gamma=0.99))
        assert 100.0 * res.p_upper == pytest.approx(1.06, abs=0.005)

    def test_zero_default_closed_form_agreement(self):
        res = pd_upper_bound_independent(BoundQuery(n=100, k=0, gamma=0.95))
        want = 1.0 - 0.05 ** (1.0 / 100.0)
        assert res.p_upper == pytest.approx(want, abs=1e-12)

    def test_defining_equation_residual(self):
        # the returned bound must satisfy P(D <= k) = 1 - gamma to 1e-10
        cells = [(800, 3), (700, 3), (300, 1), (1500, 7), (1100, 5), (400, 4), (150, 1)]
        for n, k in cells:
            for gamma in (0.5, 0.9, 0.95, 0.99, 0.999):
                res = pd_upper_bound_independent(BoundQuery(n=n, k=k, gamma=gamma))
                achieved = binomial_cdf(n, k, res.p_upper)
                assert abs(achieved - (1.0 - gamma)) <= 1e-10, (n, k, gamma)
                assert abs(res.residual) <= 1e-10

    def test_large_residual_is_refused(self, monkeypatch):
        # a re-check that disagrees with the solve by 1e-7 must raise, not
        # hand back the bound with the disagreement as a diagnostic
        query = BoundQuery(n=800, k=3, gamma=0.9)
        cdf = ldpbound.binomial.binomial_cdf
        monkeypatch.setattr(ldpbound.binomial, "binomial_cdf",
                            lambda n, k, p: cdf(n, k, p) + 1e-7)
        with pytest.raises(NumericError, match="residual"):
            pd_upper_bound_independent(query)

    def test_monotone_in_gamma(self):
        gammas = np.linspace(0.05, 0.995, 40)
        bounds = [
            pd_upper_bound_independent(BoundQuery(n=250, k=2, gamma=float(g))).p_upper
            for g in gammas
        ]
        assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_monotone_in_k(self):
        bounds = [
            pd_upper_bound_independent(BoundQuery(n=250, k=k, gamma=0.9)).p_upper
            for k in range(0, 12)
        ]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_monotone_in_n(self):
        bounds = [
            pd_upper_bound_independent(BoundQuery(n=n, k=2, gamma=0.9)).p_upper
            for n in (50, 100, 200, 400, 800, 1600)
        ]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_vacuous_when_every_obligor_defaulted(self):
        res = pd_upper_bound_independent(BoundQuery(n=4, k=4, gamma=0.9))
        assert res.vacuous
        assert res.p_upper == 1.0

    def test_rejects_correlated_query(self):
        with pytest.raises(DomainError):
            pd_upper_bound_independent(BoundQuery(n=800, k=3, gamma=0.95, rho=0.12))


class TestZeroDefaultBound:
    def test_single_obligor(self):
        assert pd_upper_bound_zero_defaults(1, 0.9) == pytest.approx(0.9, abs=1e-15)

    def test_frozen_value(self):
        got = pd_upper_bound_zero_defaults(100, 0.95)
        assert got == pytest.approx(0.029513, abs=1e-6)
        assert got == pytest.approx(ZERO_DEFAULT_100_095, abs=1e-15)

    def test_consistent_with_general_bound(self):
        for n, gamma in ((50, 0.99), (1, 0.5), (10, 0.9), (100, 0.95), (1000, 0.999)):
            closed = pd_upper_bound_zero_defaults(n, gamma)
            general = pd_upper_bound_independent(BoundQuery(n=n, k=0, gamma=gamma))
            assert abs(closed - general.p_upper) <= 1e-12, (n, gamma)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            pd_upper_bound_zero_defaults(0, 0.9)
        with pytest.raises(DomainError):
            pd_upper_bound_zero_defaults(10, 1.0)

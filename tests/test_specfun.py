"""Tests for the special functions.

Oracles: scipy.special.ndtr/ndtri (test-only) for the normal CDF and quantile
on dense grids, scipy.special.gammaln (test-only) for log-gamma, math.fsum log
sums for integer-shape log-beta identities, and the frozen high-precision
constants in _frozen.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln, ndtr, ndtri

from ldpbound import (
    DomainError,
    beta_cdf,
    beta_quantile,
    log_beta,
    log_gamma,
    std_normal_cdf,
    std_normal_quantile,
)

from _frozen import (
    BETA_CDF_099_797_4,
    BETA_QUANTILE_0001_299_2,
    BETA_QUANTILE_010_797_4,
    LOG_BETA_1493_8,
    LOG_BETA_797_4,
    PHI_AT_1_959963985,
    PHI_AT_2_5,
    PHI_AT_MINUS_1,
    PHI_AT_MINUS_8,
    PHI_INV_0_975,
)


class TestNormalCdf:
    def test_zero_is_exactly_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_frozen_values(self):
        assert std_normal_cdf(1.959963985) == pytest.approx(PHI_AT_1_959963985, abs=1e-16)
        assert std_normal_cdf(-8.0) == pytest.approx(PHI_AT_MINUS_8, rel=1e-13)
        assert std_normal_cdf(2.5) == pytest.approx(PHI_AT_2_5, abs=1e-15)
        assert std_normal_cdf(-1.0) == pytest.approx(PHI_AT_MINUS_1, abs=1e-16)

    def test_against_scipy_ndtr_grid(self):
        # the CDF is built on math.erfc, so the oracle is cephes' ndtr instead
        xs = np.linspace(-10.0, 10.0, 801)
        got = std_normal_cdf(xs)
        want = ndtr(xs)
        scale = np.maximum(np.abs(want), 1e-300)
        assert np.max(np.abs(got - want) / scale) < 1e-13

    def test_symmetry(self):
        xs = np.linspace(-8.0, 8.0, 321)
        total = std_normal_cdf(xs) + std_normal_cdf(-xs)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-12.0, 12.0, 1001)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_scalar_matches_array_path(self):
        # scalar and array input share one body, so they agree bit for bit
        xs = np.linspace(-8.0, 8.0, 97)
        arr = std_normal_cdf(xs)
        sca = np.array([std_normal_cdf(float(x)) for x in xs])
        assert np.max(np.abs(arr - sca) / sca) <= 5e-16

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            std_normal_cdf(float("inf"))


class TestNormalQuantile:
    def test_half_is_exactly_zero(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_frozen_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(PHI_INV_0_975, abs=1e-12)

    def test_roundtrip_x_space(self):
        # contract: quantile(cdf(x)) = x +- 1e-10 for x in [-5, 5]
        xs = np.linspace(-5.0, 5.0, 101)
        back = std_normal_quantile(std_normal_cdf(xs))
        assert np.max(np.abs(back - xs)) <= 1e-10

    def test_roundtrip_p_space(self):
        # contract: |cdf(quantile(p)) - p| <= 1e-13 down to p = 1e-6
        ps = np.array([1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.25, 0.5,
                       0.75, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1 - 1e-6])
        back = std_normal_cdf(std_normal_quantile(ps))
        assert np.max(np.abs(back - ps)) <= 1e-13

    def test_against_scipy_ndtri_both_tails(self):
        # dense in both tails, up to p = 1 - 1e-15 where Phi(x) - p is below
        # one ulp of p and a Newton-type correction from the CDF has nothing
        # to work with
        lower = np.geomspace(1e-300, 0.49, 2000)
        upper = 1.0 - np.geomspace(1e-15, 0.49, 2000)
        for ps in (lower, upper):
            got = std_normal_quantile(ps)
            want = ndtri(ps)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_antisymmetry(self):
        for p in (0.01, 0.1, 0.3, 0.45):
            assert std_normal_quantile(p) == pytest.approx(
                -std_normal_quantile(1.0 - p), abs=1e-13)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.2, 1.3, float("nan")):
            with pytest.raises(DomainError):
                std_normal_quantile(p)


class TestLogGamma:
    def test_small_integers_exact(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-14)

    def test_against_scipy_gammaln_grid(self):
        xs = np.concatenate([
            np.linspace(0.05, 2.0, 40),
            np.linspace(2.0, 20.0, 37),
            np.geomspace(20.0, 1600.0, 25),
        ])
        for x in xs:
            want = float(gammaln(x))
            scale = max(abs(want), 1.0)
            assert abs(log_gamma(float(x)) - want) / scale < 1e-14, f"x={x}"

    def test_rejects_nonpositive(self):
        for x in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                log_gamma(x)


class TestLogBeta:
    def test_trivial_shapes(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        # B(2,3) = 1/12
        assert log_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), abs=1e-14)

    def test_frozen_large_shapes(self):
        # extreme shape ratio; naive lgamma(a)+lgamma(b)-lgamma(a+b) loses
        # ~4 digits here, which is exactly what this pin guards against
        assert log_beta(797.0, 4.0) == pytest.approx(LOG_BETA_797_4, rel=1e-15)
        assert log_beta(1493.0, 8.0) == pytest.approx(LOG_BETA_1493_8, rel=1e-15)

    def test_against_summed_log_oracle(self):
        # for integer min shape m: B(a, m) = Gamma(m) / prod_{i<m}(a+i),
        # summable in exact order with fsum
        for a, m in ((797.0, 4), (299.0, 2), (1493.0, 8), (50.0, 12), (7.0, 3)):
            want = math.lgamma(m) - math.fsum(math.log(a + i) for i in range(m))
            assert log_beta(a, float(m)) == pytest.approx(want, rel=1e-12)
            assert log_beta(float(m), a) == pytest.approx(want, rel=1e-12)

    def test_symmetry(self):
        assert log_beta(3.7, 9.2) == pytest.approx(log_beta(9.2, 3.7), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_beta(0.0, 2.0)
        with pytest.raises(DomainError):
            log_beta(2.0, -1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                log_beta(bad, 2.0)
            with pytest.raises(DomainError):
                log_beta(2.0, bad)


class TestBetaCdf:
    def test_endpoints_exact(self):
        assert beta_cdf(0.0, 5.0, 2.0) == 0.0
        assert beta_cdf(1.0, 5.0, 2.0) == 1.0

    def test_uniform_shape_is_identity(self):
        for x in (0.0, 0.125, 0.3, 0.5, 0.77, 1.0):
            assert beta_cdf(x, 1.0, 1.0) == pytest.approx(x, abs=1e-15)

    def test_symmetric_shape_midpoint(self):
        assert beta_cdf(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert beta_cdf(0.5, 7.0, 7.0) == pytest.approx(0.5, abs=1e-14)

    def test_frozen_value(self):
        assert beta_cdf(0.99, 797.0, 4.0) == pytest.approx(BETA_CDF_099_797_4, rel=1e-13)

    def test_closed_form_integer_b(self):
        # I_x(a, 1) = x^a and I_x(1, b) = 1 - (1-x)^b
        for x in (0.1, 0.37, 0.9):
            for a in (2.0, 5.0, 40.0):
                assert beta_cdf(x, a, 1.0) == pytest.approx(x ** a, rel=1e-13)
                assert beta_cdf(x, 1.0, a) == pytest.approx(
                    -math.expm1(a * math.log1p(-x)), rel=1e-13)

    def test_symmetry_relation(self):
        # I_x(a,b) + I_{1-x}(b,a) = 1, 100 point grid
        xs = np.linspace(0.005, 0.995, 100)
        for a, b in ((2.0, 5.0), (149.0, 2.0), (797.0, 4.0), (8.0, 8.0)):
            total = beta_cdf(xs, a, b) + beta_cdf(1.0 - xs, b, a)
            assert np.max(np.abs(total - 1.0)) <= 1e-13, f"shapes=({a},{b})"

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 201)
        for a, b in ((2.0, 5.0), (797.0, 4.0)):
            vals = beta_cdf(xs, a, b)
            assert np.all(np.diff(vals) >= 0.0)

    def test_scalar_matches_array_path(self):
        # numpy's vectorized exp can differ from libm's by one ulp, so exact
        # bit equality between the two paths is not on the table. The lanes
        # include the symmetry switch at (a+1)/(a+b+2) and its neighbours,
        # where the array path changes side within one call
        for a, b in ((149.0, 2.0), (797.0, 4.0), (0.5, 0.5), (2.5, 0.3), (1.0, 1.0)):
            switch = (a + 1.0) / (a + b + 2.0)
            xs = np.concatenate([np.linspace(0.01, 0.99, 53),
                                 [switch, switch * (1.0 - 1e-12), switch * (1.0 + 1e-12)]])
            arr = beta_cdf(xs, a, b)
            sca = np.array([beta_cdf(float(x), a, b) for x in xs])
            assert np.all(np.abs(arr - sca) <= 3e-15 * sca), (a, b)
            # the endpoints come out exact from the same lockstep call
            ends = beta_cdf(np.array([0.0, 1.0, switch, 0.0]), a, b)
            assert ends[0] == 0.0 and ends[1] == 1.0 and ends[3] == 0.0, (a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            beta_cdf(-0.01, 2.0, 2.0)
        with pytest.raises(DomainError):
            beta_cdf(1.01, 2.0, 2.0)
        with pytest.raises(DomainError):
            beta_cdf(np.array([0.5, 1.01]), 2.0, 2.0)
        with pytest.raises(DomainError):
            beta_cdf(np.array([-0.01, 0.5]), 2.0, 2.0)
        with pytest.raises(DomainError):
            beta_cdf(0.5, 0.0, 2.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                beta_cdf(0.5, bad, 2.0)
            with pytest.raises(DomainError):
                beta_cdf(np.array([0.5]), 2.0, bad)
        with pytest.raises(DomainError):
            beta_cdf(0.5, 2.0, -3.0)


class TestBetaQuantile:
    def test_frozen_values(self):
        # 1 - x form quoted because the upper tail carries the information
        got = beta_quantile(0.10, 797.0, 4.0)
        assert got == pytest.approx(BETA_QUANTILE_010_797_4, abs=1e-13)
        assert 1.0 - got == pytest.approx(0.008331782191, abs=1e-11)

        got = beta_quantile(0.001, 299.0, 2.0)
        assert got == pytest.approx(BETA_QUANTILE_0001_299_2, abs=1e-13)
        assert 1.0 - got == pytest.approx(0.0304, abs=5e-5)

    def test_roundtrip_p_space(self):
        # contract: |cdf(quantile(p)) - p| <= 1e-12 on the pinned shape set
        shapes = ((1.0, 1.0), (2.0, 5.0), (149.0, 2.0), (797.0, 4.0), (1493.0, 8.0))
        ps = np.array([1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                       0.95, 0.99, 0.999, 0.9999])
        for a, b in shapes:
            xs = np.array([beta_quantile(float(p), a, b) for p in ps])
            back = beta_cdf(xs, a, b)
            assert np.max(np.abs(back - ps)) <= 1e-12, f"shapes=({a},{b})"

    def test_uniform_shape_is_identity(self):
        for p in (0.1, 0.5, 0.93):
            assert beta_quantile(p, 1.0, 1.0) == pytest.approx(p, abs=1e-14)

    def test_monotone_in_p(self):
        ps = np.linspace(0.001, 0.999, 200)
        xs = np.array([beta_quantile(float(p), 149.0, 2.0) for p in ps])
        assert np.all(np.diff(xs) > 0.0)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                beta_quantile(p, 2.0, 2.0)
        with pytest.raises(DomainError):
            beta_quantile(0.5, 0.0, 2.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                beta_quantile(0.5, bad, 2.0)
            with pytest.raises(DomainError):
                beta_quantile(0.5, 2.0, bad)

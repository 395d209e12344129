"""Tests for grade pooling, the per-grade bound report, and reversal repair."""

import pytest

from ldpbound import (
    DomainError,
    EXAMPLE_PORTFOLIO_ONE,
    EXAMPLE_PORTFOLIO_TWO,
    Grade,
    GradeBoundReport,
    NumericError,
    Portfolio,
    QuadratureSpec,
    allocate,
    estimate_grades,
    remediate_reversal,
)

from _frozen import (
    EX1_G099_PERCENTS,
    EX2_G05_D_REMEDIATED_PERCENT,
    EX2_G05_PERCENTS,
    EX2_G05_R012_C_PERCENT,
    EX2_G05_R012_D_PERCENT,
)


class TestGradeValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            Grade(name="A", n_obligors=0, k_defaults=0)
        with pytest.raises(DomainError):
            Grade(name="A", n_obligors=10, k_defaults=-1)
        with pytest.raises(DomainError):
            Grade(name="A", n_obligors=10, k_defaults=11)
        with pytest.raises(DomainError):
            Grade(name="", n_obligors=10, k_defaults=0)

    def test_rejects_degenerate_portfolio(self):
        with pytest.raises(DomainError):
            Portfolio(grades=())
        with pytest.raises(DomainError):
            Portfolio(grades=(
                Grade(name="A", n_obligors=5, k_defaults=0),
                Grade(name="A", n_obligors=7, k_defaults=1),
            ))


class TestAllocate:
    def test_first_example(self):
        # each grade pools itself with every riskier grade below it
        assert allocate(EXAMPLE_PORTFOLIO_ONE) == [
            ("A", 800, 3), ("B", 700, 3), ("C", 300, 1),
        ]

    def test_second_example(self):
        assert allocate(EXAMPLE_PORTFOLIO_TWO) == [
            ("A", 1500, 7), ("B", 1100, 5), ("C", 400, 4), ("D", 150, 1),
        ]

    def test_suffix_sum_property(self):
        pf = Portfolio(grades=(
            Grade(name="g1", n_obligors=11, k_defaults=2),
            Grade(name="g2", n_obligors=7, k_defaults=0),
            Grade(name="g3", n_obligors=5, k_defaults=5),
        ))
        rows = allocate(pf)
        assert rows[-1] == ("g3", 5, 5)
        for i, (name, n_used, k_used) in enumerate(rows[:-1]):
            nxt = rows[i + 1]
            g = pf.grades[i]
            assert n_used == g.n_obligors + nxt[1]
            assert k_used == g.k_defaults + nxt[2]

    def test_single_grade_is_identity(self):
        pf = Portfolio(grades=(Grade(name="only", n_obligors=42, k_defaults=3),))
        assert allocate(pf) == [("only", 42, 3)]


class TestEstimateGrades:
    def test_first_example_at_99(self):
        report = estimate_grades(EXAMPLE_PORTFOLIO_ONE, gamma=0.99)
        assert isinstance(report, GradeBoundReport)
        assert report.gamma == 0.99 and report.rho is None
        got = [100.0 * e.p_upper for e in report.entries]
        for g, want in zip(got, EX1_G099_PERCENTS):
            assert g == pytest.approx(want, abs=5e-5)
        assert report.reversal_flags == ()
        assert report.adjusted_k is None

    def test_second_example_at_half_flags_reversal(self):
        report = estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.5)
        got = [100.0 * e.p_upper for e in report.entries]
        for g, want in zip(got, EX2_G05_PERCENTS):
            assert g == pytest.approx(want, abs=5e-5)
        # D's bound lands below C's: the pooling heuristic loses monotonicity
        assert report.reversal_flags == (("C", "D"),)

    def test_second_example_correlated_flags_reversal(self):
        report = estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.5, rho=0.12)
        assert report.rho == 0.12
        by_name = {e.name: 100.0 * e.p_upper for e in report.entries}
        assert by_name["C"] == pytest.approx(EX2_G05_R012_C_PERCENT, abs=1e-5)
        assert by_name["D"] == pytest.approx(EX2_G05_R012_D_PERCENT, abs=1e-5)
        assert ("C", "D") in report.reversal_flags

    def test_entries_carry_allocation(self):
        report = estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.9)
        assert [(e.name, e.n_used, e.k_used) for e in report.entries] == [
            ("A", 1500, 7), ("B", 1100, 5), ("C", 400, 4), ("D", 150, 1),
        ]
        assert not any(e.vacuous for e in report.entries)

    def test_numeric_failure_names_the_grade(self):
        starved = QuadratureSpec(node_count=16, abs_tol=1e-12)
        with pytest.raises(NumericError, match="grade A"):
            estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.5, rho=0.5, q=starved)
        # remediation re-solves only the flagged grade, with the rule it is given
        report = estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.5, rho=0.12)
        assert report.reversal_flags == (("C", "D"),)
        with pytest.raises(NumericError, match="grade D"):
            remediate_reversal(report, starved)


class TestRemediation:
    def test_no_flags_returns_same_report(self):
        report = estimate_grades(EXAMPLE_PORTFOLIO_ONE, gamma=0.99)
        assert remediate_reversal(report) is report

    def test_second_example_crossing_repaired(self):
        report = estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.5)
        fixed = remediate_reversal(report)
        assert fixed.reversal_flags == ()
        assert fixed.adjusted_k == {"D": 1}
        assert fixed.unresolved == ()
        d = fixed.entries[-1]
        assert d.name == "D" and d.k_used == 2 and not d.vacuous
        assert 100.0 * d.p_upper == pytest.approx(EX2_G05_D_REMEDIATED_PERCENT, abs=5e-5)
        # untouched grades keep their original bounds
        for before, after in zip(report.entries[:-1], fixed.entries[:-1]):
            assert before == after

    def test_bounds_monotone_after_repair(self):
        report = estimate_grades(EXAMPLE_PORTFOLIO_TWO, gamma=0.5)
        fixed = remediate_reversal(report)
        ps = [e.p_upper for e in fixed.entries]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_forced_deep_reversal_resolves_monotone(self):
        # a portfolio built so the riskiest grade starts far below the
        # safest: remediation has to climb several steps
        pf = Portfolio(grades=(
            Grade(name="S", n_obligors=30, k_defaults=6),
            Grade(name="R", n_obligors=500, k_defaults=0),
        ))
        report = estimate_grades(pf, gamma=0.9)
        assert report.reversal_flags == (("S", "R"),)
        fixed = remediate_reversal(report)
        assert fixed.reversal_flags == ()
        assert fixed.unresolved == ()
        ps = [e.p_upper for e in fixed.entries]
        assert ps[1] >= ps[0]
        assert fixed.adjusted_k and fixed.adjusted_k["R"] >= 1
        assert fixed.entries[1].k_used == fixed.adjusted_k["R"]

    def test_cap_at_pool_size_turns_vacuous(self):
        # the safer pooled bound exceeds gamma, so a one-obligor riskier
        # grade can only reach parity by exhausting its pool: its bound
        # turns vacuous, which still counts as a resolution
        pf = Portfolio(grades=(
            Grade(name="S", n_obligors=3, k_defaults=2),
            Grade(name="R", n_obligors=1, k_defaults=0),
        ))
        report = estimate_grades(pf, gamma=0.5)
        assert report.entries[0].p_upper > 0.5  # pooled (4, 2) at gamma 1/2
        assert report.reversal_flags == (("S", "R"),)
        fixed = remediate_reversal(report)
        assert fixed.reversal_flags == ()
        assert fixed.unresolved == ()
        assert fixed.entries[1].vacuous and fixed.entries[1].k_used == 1
        assert fixed.adjusted_k == {"R": 1}

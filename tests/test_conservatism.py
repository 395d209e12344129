"""Tests for grade pooling, the per-grade bound report, and reversal repair."""

import math

import pytest

from ldpbound import conservatism, mixture, specfun, tables
from ldpbound import (
    BoundQuery,
    DomainError,
    EXAMPLE_PORTFOLIO_ONE,
    EXAMPLE_PORTFOLIO_TWO,
    Grade,
    GradeBoundReport,
    NumericError,
    Portfolio,
    QuadratureSpec,
    allocate,
    compute_table,
    estimate_grades,
    pd_upper_bound_correlated,
    remediate_reversal,
    table_spec,
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
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                Grade(name="A", n_obligors=bad, k_defaults=0)
            with pytest.raises(DomainError):
                Grade(name="A", n_obligors=10, k_defaults=bad)

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


def _portfolio(*grades):
    return Portfolio(tuple(Grade(chr(ord("A") + i), n, k) for i, (n, k) in enumerate(grades)))


# remediation raises C (one step), then E (one step), at gamma .5, rho .12
TWO_REMEDIATED = _portfolio((100, 0), (400, 2), (300, 0), (200, 2), (100, 0))
# pooled k of 250 and 220 solve on the continued fraction and re-check on the
# binomial sum; 120 the other way round
BOTH_KERNELS = _portfolio((4000, 30), (3000, 100), (2000, 120))


# the unpatched internals that TestBatchedRecheck._force wraps
RECHECK_PASS = mixture._recheck_pass
F_QUANTILE_STEPS = mixture._f_quantile_steps


class TestBatchedRecheck:
    """A report or a table re-checks all its correlated bounds in one pass."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        # every (query, result) a CorrelatedBatch hands back from checked()
        seen = []

        class Recording(mixture.CorrelatedBatch):
            def __init__(self, q=mixture.DEFAULT_QUADRATURE):
                super().__init__(q)
                self.queries = []

            def solve(self, query, label=""):
                self.queries.append(query)
                return super().solve(query, label)

            def checked(self):
                out = super().checked()
                seen.extend(zip(self.queries, out))
                return out

        monkeypatch.setattr(conservatism, "CorrelatedBatch", Recording)
        monkeypatch.setattr(tables, "CorrelatedBatch", Recording)
        return seen

    @staticmethod
    def _assert_alone(seen):
        # p_upper, residual, iterations and quantile bit for bit as one
        # pd_upper_bound_correlated call on its own gives them
        assert seen
        for query, res in seen:
            assert repr(res) == repr(pd_upper_bound_correlated(query)), query

    def test_reports_match_one_bound_at_a_time(self, recorded):
        cases = ((TWO_REMEDIATED, 0.5, 0.12), (BOTH_KERNELS, 0.9, 0.12),
                 (_portfolio((3, 2), (1, 0)), 0.5, 0.12),  # remediation turns vacuous
                 (EXAMPLE_PORTFOLIO_TWO, 0.5, 0.12))
        for pf, gamma, rho in cases:
            report = estimate_grades(pf, gamma, rho)
            for entry, (query, res) in zip(report.entries, recorded[-len(report.entries):]):
                assert (query.n, query.k) == (entry.n_used, entry.k_used)
                assert entry.p_upper == res.p_upper and entry.vacuous == res.vacuous
            if report.reversal_flags:
                before = len(recorded)
                fixed = remediate_reversal(report)
                last = {query.n: res for query, res in recorded[before:]}
                for entry in fixed.entries:
                    if entry.name in fixed.adjusted_k:
                        assert last[entry.n_used].p_upper == entry.p_upper
                        assert last[entry.n_used].vacuous == entry.vacuous
        assert any(res.vacuous for _, res in recorded)
        self._assert_alone(recorded)

    def test_tables_match_one_bound_at_a_time(self, recorded):
        for table_id in (3, 6):
            rows = compute_table(table_id)
            cells = recorded[-sum(len(row) for row in rows):]
            assert [100.0 * res.p_upper for _, res in cells] == [x for row in rows for x in row]
            assert [(q.n, q.k) for q, _ in cells[::6]] == \
                [(n, k) for _, n, k in allocate(table_spec(table_id).portfolio)]
        self._assert_alone(recorded)

    def test_one_fraction_call_per_report_and_table(self, monkeypatch):
        # pooled k all below the sum cutoff: the solves sum, and every
        # re-check of the report (or table) shares one continued fraction
        calls = []
        fraction = specfun._betacf_array

        def counted(*args):
            calls.append(args[0].size)
            return fraction(*args)

        monkeypatch.setattr(specfun, "_betacf_array", counted)
        for pf, gamma in ((TWO_REMEDIATED, 0.5), (EXAMPLE_PORTFOLIO_TWO, 0.99)):
            assert all(k + 1 <= mixture._SUM_MAX_B for _, _, k in allocate(pf))
            calls.clear()
            report = estimate_grades(pf, gamma, 0.12)
            assert len(calls) == 1
            assert calls[0] == len(report.entries) * (mixture.DEFAULT_QUADRATURE.node_count + 1)
        for table_id in (3, 6):
            calls.clear()
            compute_table(table_id)
            assert len(calls) == 1

    def _force(self, monkeypatch, recheck=(), solve=()):
        # bias the re-checked F of the (n, k) in ``recheck`` by 1e-7; make
        # the solve of the (n, k) in ``solve`` fail
        def shape_nk(s):
            return int(s.a + s.b) - 1, int(s.b) - 1

        def biased(shapes, ys, q):
            checks, gaps = RECHECK_PASS(shapes, ys, q)
            return checks + [1e-7 * (shape_nk(s) in recheck) for s in shapes], gaps

        def failing(prob, s, q):
            if shape_nk(s) in solve:
                raise NumericError("forced solve failure")
            return F_QUANTILE_STEPS(prob, s, q)

        monkeypatch.setattr(mixture, "_recheck_pass", biased)
        monkeypatch.setattr(mixture, "_f_quantile_steps", failing)

    def test_failing_recheck_names_its_grade(self, monkeypatch):
        pooled = {name: (n, k) for name, n, k in allocate(TWO_REMEDIATED)}
        report = estimate_grades(TWO_REMEDIATED, 0.5, 0.12)
        assert report.reversal_flags == (("B", "C"), ("D", "E"))
        self._force(monkeypatch, recheck={pooled["C"]})
        with pytest.raises(NumericError, match=r"^grade C: .*residual"):
            estimate_grades(TWO_REMEDIATED, 0.5, 0.12)
        # remediation solves C's step (k + 1), then E's, and re-checks both
        # at the end: C's failure is the one raised
        n, k = pooled["C"]
        self._force(monkeypatch, recheck={(n, k + 1)})
        with pytest.raises(NumericError, match=r"^grade C: .*residual"):
            remediate_reversal(report)

    def test_solve_failure_waits_for_earlier_rechecks(self, monkeypatch):
        # a solve failing at grade D is raised only once the grades before
        # it have been re-checked, so a bad re-check at B is named first
        pooled = {name: (n, k) for name, n, k in allocate(TWO_REMEDIATED)}
        self._force(monkeypatch, solve={pooled["D"]})
        with pytest.raises(NumericError, match=r"^grade D: forced solve failure"):
            estimate_grades(TWO_REMEDIATED, 0.5, 0.12)
        self._force(monkeypatch, recheck={pooled["B"]}, solve={pooled["D"]})
        with pytest.raises(NumericError, match=r"^grade B: .*residual"):
            estimate_grades(TWO_REMEDIATED, 0.5, 0.12)
        self._force(monkeypatch, recheck={pooled["E"]}, solve={pooled["D"]})
        with pytest.raises(NumericError, match=r"^grade D: forced solve failure"):
            estimate_grades(TWO_REMEDIATED, 0.5, 0.12)

"""End-to-end tests of the command-line surface via main(argv).

These pin plumbing: argument wiring, output formats, exit codes, and the
rounding rule. Numeric correctness of the underlying routines is covered by
the other test modules.
"""

import csv
import io
import math

import numpy as np
import pytest

from ldpbound import (
    BoundQuery,
    FactorModelParams,
    MixtureShape,
    beta_quantile,
    binomial_cdf,
    estimate_grades,
    f_cdf,
    f_quantile,
    pd_upper_bound_independent,
    std_normal_quantile,
    tilde_f_cdf,
    vasicek_cdf,
)
from ldpbound.cli import (
    EXIT_MC_DISAGREE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    PORTFOLIO_TEMPLATE,
    fmt_percent,
    main,
    parse_portfolio_file,
    round_half_up,
)

EX1_CSV = "grade,obligors,defaults\nA,100,0\nB,400,2\nC,300,1\n"
EX2_CSV = "grade,obligors,defaults\nA,400,2\nB,700,1\nC,250,3\nD,150,1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRounding:
    def test_half_rounds_away_from_zero(self):
        assert round_half_up(0.125) == "0.13"
        assert round_half_up(-0.125) == "-0.13"
        assert round_half_up(1.115) == "1.12"
        assert round_half_up(2.675) == "2.68"  # bankers rounding would say 2.67
        assert round_half_up(1.005) == "1.01"

    def test_percent_formatting(self):
        assert fmt_percent(0.0083) == "0.83%"
        assert fmt_percent(0.0249) == "2.49%"
        assert fmt_percent(1.0) == "100.00%"
        assert fmt_percent(0.00125) == "0.13%"


class TestBoundCommand:
    def test_independent_example(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--n", "800", "--k", "3", "--gamma", "0.9")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("p_upper: 0.83% (")
        res = pd_upper_bound_independent(BoundQuery(n=800, k=3, gamma=0.9))
        assert float(lines[0].split("(")[1].rstrip(")")) == res.p_upper
        assert lines[1].startswith("quantile: ")
        assert lines[2].startswith("residual: ")
        assert abs(float(lines[2].split(": ")[1])) <= 1e-10
        assert lines[3].startswith("iterations: ")

    def test_correlated_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "800", "--k", "3", "--gamma", "0.9", "--rho", "0.12")
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("p_upper: 2.49% (")

    def test_vacuous_case(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "5", "--k", "5", "--gamma", "0.9")
        assert code == EXIT_OK
        assert "vacuous" in out.splitlines()[0]
        assert "p_upper: 100.00% (1.0)" in out

    def test_domain_failure_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--n", "5", "--k", "9", "--gamma", "0.9")
        assert code == EXIT_NUMERIC and out == ""
        assert err.startswith("error: ")

    def test_missing_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--k", "3", "--gamma", "0.9"])
        assert exc.value.code == EXIT_USAGE


class TestPortfolioCommand:
    def test_emit_template(self, capsys):
        code, out, _ = run_cli(capsys, "portfolio", "--emit-template")
        assert code == EXIT_OK
        assert out == PORTFOLIO_TEMPLATE

    def test_template_round_trips(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "portfolio", "--emit-template")
        path = tmp_path / "pf.csv"
        path.write_text(out, encoding="utf-8")
        pf = parse_portfolio_file(str(path))
        assert [(g.name, g.n_obligors, g.k_defaults) for g in pf.grades] == [
            ("A", 100, 0), ("B", 400, 2), ("C", 300, 1),
        ]

    def test_table_output_matches_library(self, tmp_path, capsys):
        path = tmp_path / "ex1.csv"
        path.write_text(EX1_CSV, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "portfolio", str(path), "--gamma", "0.99", "--gamma", "0.95")
        assert code == EXIT_OK
        assert "gamma=0.99 (independent)" in out
        assert "gamma=0.95 (independent)" in out
        report = estimate_grades(parse_portfolio_file(str(path)), 0.99)
        for entry in report.entries:
            row = next(l for l in out.splitlines()
                       if l.strip().startswith(entry.name) and "gamma" not in l)
            assert fmt_percent(entry.p_upper) in row
            assert str(entry.n_used) in row and str(entry.k_used) in row

    def test_csv_output_flags_reversal(self, tmp_path, capsys):
        path = tmp_path / "ex2.csv"
        path.write_text(EX2_CSV, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "portfolio", str(path), "--gamma", "0.5", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["gamma", "grade", "n_used", "k_used", "p_upper", "percent", "flags"]
        body = {r[1]: r for r in rows[1:]}
        assert body["A"][2:4] == ["1500", "7"]
        assert body["D"][2:4] == ["150", "1"]
        assert body["D"][5] == "1.12%"
        assert body["D"][6] == "below-C"
        assert body["C"][6] == ""
        # p_upper column carries the full repr, parseable to the exact float
        assert float(body["C"][4]) == pytest.approx(0.0116675, abs=5e-7)

    def test_remediate_adjusts_k(self, tmp_path, capsys):
        path = tmp_path / "ex2.csv"
        path.write_text(EX2_CSV, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "portfolio", str(path), "--gamma", "0.5", "--remediate",
            "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        body = {r[1]: r for r in rows[1:]}
        assert body["D"][3] == "2"
        assert body["D"][5] == "1.78%"
        assert "k+1" in body["D"][6]
        assert "below-" not in body["D"][6]

    def test_remediate_note_in_table_format(self, tmp_path, capsys):
        path = tmp_path / "ex2.csv"
        path.write_text(EX2_CSV, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "portfolio", str(path), "--gamma", "0.5", "--remediate")
        assert code == EXIT_OK
        assert "remediated: D default count raised by 1" in out

    def test_reversal_note_without_remediation(self, tmp_path, capsys):
        path = tmp_path / "ex2.csv"
        path.write_text(EX2_CSV, encoding="utf-8")
        code, out, _ = run_cli(capsys, "portfolio", str(path), "--gamma", "0.5")
        assert code == EXIT_OK
        assert "reversal: D bounds below C" in out

    def test_correlated_portfolio(self, tmp_path, capsys):
        path = tmp_path / "ex2.csv"
        path.write_text(EX2_CSV, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "portfolio", str(path), "--gamma", "0.5", "--rho", "0.12",
            "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        body = {r[1]: r for r in rows[1:]}
        assert body["C"][5] == "1.64%"
        assert body["D"][5] == "1.56%"
        assert body["D"][6] == "below-C"
        # --nodes/--tol reach the solver: a 16-node rule is refused
        code, out, err = run_cli(
            capsys, "portfolio", str(path), "--gamma", "0.5", "--rho", "0.12",
            "--nodes", "16", "--tol", "1e-12")
        assert code == EXIT_NUMERIC and out == ""
        assert "quadrature no longer converging" in err

    def test_missing_gamma_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ex1.csv"
        path.write_text(EX1_CSV, encoding="utf-8")
        code, out, err = run_cli(capsys, "portfolio", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error: ")

    def test_out_of_range_gamma_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ex1.csv"
        path.write_text(EX1_CSV, encoding="utf-8")
        code, _, err = run_cli(capsys, "portfolio", str(path), "--gamma", "1.5")
        assert code == EXIT_USAGE and "gamma" in err

    @pytest.mark.parametrize("content,needle", [
        ("grade,obligors\nA,100\n", "header"),
        ("grade,obligors,defaults\nA,many,0\n", "integers"),
        ("grade,obligors,defaults\nA,100,0\nA,50,1\n", "duplicate"),
        ("grade,obligors,defaults\nA,100,200\n", "defaults"),
        ("grade,obligors,defaults\n", "no grade rows"),
    ])
    def test_parse_failures_exit_3(self, tmp_path, capsys, content, needle):
        path = tmp_path / "bad.csv"
        path.write_text(content, encoding="utf-8")
        code, out, err = run_cli(capsys, "portfolio", str(path), "--gamma", "0.9")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: line ")
        assert needle in err

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "portfolio", "/no/such/file.csv", "--gamma", "0.9")
        assert code == EXIT_PARSE
        assert "cannot open" in err

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("grade,obligors,defaults\n\nA,100,0\n\n\nB,50,1\n", encoding="utf-8")
        pf = parse_portfolio_file(str(path))
        assert [g.name for g in pf.grades] == ["A", "B"]

    def test_parse_error_reports_true_line_number(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("grade,obligors,defaults\n\nA,100,0\n\nB,-5,1\n", encoding="utf-8")
        with pytest.raises(Exception, match="line 5"):
            parse_portfolio_file(str(path))


class TestQuantileCommand:
    def test_median_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantile", "--prob", "0.5", "--alpha", "797", "--beta", "4",
            "--rho", "0.12")
        assert code == EXIT_OK
        assert out.startswith("2.61 (")
        printed = float(out.split("(")[1].rstrip(")\n"))
        assert printed == pytest.approx(2.61371697271883169, abs=1e-9)

    def test_lower_tail_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantile", "--prob", "0.25", "--alpha", "149", "--beta", "2",
            "--rho", "0.12")
        assert code == EXIT_OK
        assert out.startswith("1.98 (")

    def test_zero_correlation_composition(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantile", "--prob", "0.5", "--alpha", "5", "--beta", "2",
            "--rho", "0")
        assert code == EXIT_OK
        printed = float(out.split("(")[1].rstrip(")\n"))
        want = std_normal_quantile(beta_quantile(0.5, 5.0, 2.0))
        assert printed == pytest.approx(want, abs=1e-8)

    def test_bad_prob_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "quantile", "--prob", "1.5", "--alpha", "5", "--beta", "2",
            "--rho", "0.12")
        assert code == EXIT_NUMERIC and err.startswith("error: ")


class TestDensityCommand:
    @staticmethod
    def parse_rows(out):
        xs, vals = [], []
        for line in out.splitlines():
            x, v = line.split(",")
            xs.append(float(x))
            vals.append(float(v))
        return np.array(xs), np.array(vals)

    def test_f_density_integrates_to_spanned_mass(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--kind", "f-density", "--alpha", "5", "--beta", "2",
            "--rho", "0.5")
        assert code == EXIT_OK
        xs, vals = self.parse_rows(out)
        assert xs.size == 801 and xs[0] == -4.0 and xs[-1] == 4.0
        assert np.all(vals >= 0.0)
        integral = np.trapezoid(vals, xs)
        s = MixtureShape(a=5.0, b=2.0, rho=0.5)
        spanned = f_cdf(4.0, s) - f_cdf(-4.0, s)
        assert integral == pytest.approx(spanned, abs=1e-2)

    def test_tilde_f_density_integrates_to_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--kind", "tilde-f-density", "--alpha", "5",
            "--beta", "2", "--rho", "0.12")
        assert code == EXIT_OK
        xs, vals = self.parse_rows(out)
        integral = np.trapezoid(vals, xs)
        assert integral == pytest.approx(1.0, abs=1e-2)

    def test_tilde_f_density_concentrated_shape(self, capsys):
        # mass spanned by the default grid, not 1: shape (797, 4) leaves a
        # visible sliver below p = 0.001
        code, out, _ = run_cli(
            capsys, "density", "--kind", "tilde-f-density", "--alpha", "797",
            "--beta", "4", "--rho", "0.12")
        assert code == EXIT_OK
        xs, vals = self.parse_rows(out)
        integral = np.trapezoid(vals, xs)
        s = MixtureShape(a=797.0, b=4.0, rho=0.12)
        spanned = tilde_f_cdf(0.999, s) - tilde_f_cdf(0.001, s)
        assert integral == pytest.approx(spanned, abs=1e-2)

    def test_vasicek_emits_cdf_pointwise(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--kind", "vasicek", "--p", "0.1", "--rho", "0.12",
            "--lo", "0.01", "--hi", "0.5", "--step", "0.01")
        assert code == EXIT_OK
        xs, vals = self.parse_rows(out)
        m = FactorModelParams(p=0.1, rho=0.12)
        want = vasicek_cdf(xs, m)
        assert np.max(np.abs(vals - want)) <= 1e-9

    def test_missing_shape_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "density", "--kind", "f-density", "--rho", "0.5")
        assert code == EXIT_USAGE and "alpha" in err

    def test_degenerate_vasicek_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "density", "--kind", "vasicek", "--p", "0.1", "--rho", "0")
        assert code == EXIT_NUMERIC and "error: " in err

    def test_bad_grid_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "density", "--kind", "f-density", "--alpha", "5", "--beta", "2",
            "--rho", "0.5", "--lo", "4", "--hi", "-4")
        assert code == EXIT_NUMERIC


class TestTablesCommand:
    def test_independent_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "1", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["row", "0.5", "0.75", "0.9", "0.95", "0.99", "0.999"]
        assert [r[0] for r in rows[1:]] == ["A", "B", "C"]
        # row A at gamma 0.95 is the worked single-bound example
        assert rows[1][4] == "0.97%"
        assert all(cell.endswith("%") for r in rows[1:] for cell in r[1:])

    def test_quantile_table_has_no_percent_sign(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "2", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][1] and "%" not in rows[1][1]

    def test_diff_reports_max_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "1", "--diff")
        assert code == EXIT_OK
        diff_line = out.splitlines()[-1]
        assert diff_line.startswith("max deviation vs expected: ")
        worst = float(diff_line.split(": ")[1].split(" pp")[0])
        assert worst <= 0.01

    def test_diff_isolates_known_outlier(self, capsys):
        # one printed source cell of the correlated stress table is off by
        # ~0.3 pp from the defining equation; the diff must land exactly there
        code, out, _ = run_cli(capsys, "tables", "6", "--diff")
        assert code == EXIT_OK
        diff_line = out.splitlines()[-1]
        assert "at row A, gamma=0.99" in diff_line
        worst = float(diff_line.split(": ")[1].split(" pp")[0])
        assert 0.25 <= worst <= 0.35
        # --nodes/--tol reach the correlated tables: a 16-node rule is refused
        code, out, err = run_cli(capsys, "tables", "3", "--nodes", "16", "--tol", "1e-12")
        assert code == EXIT_NUMERIC and out == ""
        assert "quadrature no longer converging" in err

    def test_unknown_table_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "9"])
        assert exc.value.code == EXIT_USAGE


class TestMcCheckCommand:
    def test_independent_case_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc-check", "--n", "10", "--k", "2", "--p", "0.05",
            "--rho", "0", "--trials", "100000")
        assert code == EXIT_OK
        fields = dict(
            line.split(": ") for line in out.splitlines() if ": " in line)
        assert float(fields["quadrature"]) == pytest.approx(
            binomial_cdf(10, 2, 0.05), abs=1e-12)
        assert abs(float(fields["z_score"])) <= 4.0
        assert fields["trials"] == "100000"

    def test_repeat_run_is_byte_identical(self, capsys):
        argv = ["mc-check", "--n", "6", "--k", "1", "--p", "0.1", "--rho", "0.5",
                "--trials", "50000", "--seed", "7"]
        code1 = main(list(argv))
        first = capsys.readouterr().out
        code2 = main(list(argv))
        second = capsys.readouterr().out
        assert code1 == code2 == EXIT_OK
        assert first == second

    def test_single_trial_disagreement_exits_5(self, capsys):
        # one trial pins the estimate to 0 or 1 with zero standard error,
        # while the quadrature value is strictly between: z is +-inf
        code, out, err = run_cli(
            capsys, "mc-check", "--n", "6", "--k", "1", "--p", "0.1",
            "--rho", "0.5", "--trials", "1")
        assert code == EXIT_MC_DISAGREE
        assert "disagreement: |z| > 4" in err
        assert "z_score: " in out

    def test_domain_failure_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "mc-check", "--n", "6", "--k", "9", "--p", "0.1", "--rho", "0.5")
        assert code == EXIT_NUMERIC and err.startswith("error: ")

"""Tests of the benchmark itself; tier-1 does not collect them.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as R  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, str(W.SRC))
import ldpbound  # noqa: E402
import ldpbound.cli  # noqa: E402,F401


def _workload(name: str, workdir: Path):
    workload = W.load(name, workdir)
    workload.prepare(ldpbound)
    return workload


def test_same_seed_gives_same_inputs():
    assert W.generate_portfolios(7, 40) == W.generate_portfolios(7, 40)
    assert W.generate_queries(7, 500) == W.generate_queries(7, 500)
    assert W.generate_portfolios(7, 40) != W.generate_portfolios(8, 40)
    first, second = W.rounds(3, 50), W.rounds(3, 50)
    assert [next(first) for _ in range(3)] == [next(second) for _ in range(3)]
    assert next(W.rounds(3, 50)) != next(W.rounds(4, 50))
    # loading checks that the generators still reproduce the recorded pools
    W.load("portfolio-reports")
    W.load("independent-batch")


def test_generator_marks_every_report_the_seed_commit_could_not_solve():
    reports = W.load_ref("portfolio-reports")["reports"]
    failed = [r for r in reports if "error" in r["outcome"]]
    assert failed
    assert all(r["input"]["beyond_envelope"] for r in failed)


def _typed_error_index() -> int:
    reports = W.load_ref("portfolio-reports")["reports"]
    return next(i for i, r in enumerate(reports) if "error" in r["outcome"])


@pytest.mark.parametrize("name, ops", [
    ("paper-tables", [0, 3]),
    ("portfolio-reports", [0, _typed_error_index()]),
    ("independent-batch", list(range(64))),
    ("cli-session", list(range(len(W.CLI_MIX)))),
])
def test_traced_results_equal_untraced_bit_for_bit(name, ops, tmp_path):
    workload = _workload(name, tmp_path)
    workload.in_process = True
    plain = R.execute(workload, ops, R.Tally(), keep=True)
    tracer = tracing.Tracer()
    original = ldpbound.specfun.beta_cdf
    restore, missing = tracing.install(tracer, ldpbound)
    try:
        traced = R.execute(workload, ops, R.Tally(), keep=True)
    finally:
        restore()
    assert missing == []
    assert tracer.spans
    assert ldpbound.specfun.beta_cdf is original
    assert plain.status[W.MISMATCH] == 0
    assert repr(traced.kept) == repr(plain.kept)


def _benchmark_json() -> dict:
    return json.loads((W.ROOT / "BENCHMARK.json").read_text())


def _last_result(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, capsys, monkeypatch):
    monkeypatch.setattr(W.IndependentBatch, "trace_ops", 64)
    argv = ["--workload", "independent-batch", "--seed", "1", "--seconds", "0.5",
            "--trace", str(trace)]
    assert R.main(argv) == 0
    result = _last_result(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_declared_metrics_match_the_code():
    spec = _benchmark_json()
    declared = {section: [(m["name"], m["unit"], m["better"]) for m in spec[section]]
                for section in ("end_to_end", "per_layer")}
    assert declared["end_to_end"] == list(R.E2E_METRICS)
    assert declared["per_layer"] == list(tracing.LAYER_METRICS)
    classes = dict(zip(W.NAMES, (W.PaperTables, W.PortfolioReports, W.IndependentBatch,
                                 W.CliSession)))
    assert all(w["why"] == classes[w["name"]].why for w in spec["workloads"])


def test_corrupted_reference_makes_ops_fail(tmp_path):
    workload = _workload("independent-batch", tmp_path)
    workload.pool[5][3] += 1e-6
    tally = R.execute(workload, range(10), R.Tally())
    assert tally.status == {W.OK: 9, W.MISMATCH: 1}
    assert tally.timing()["op_p99_ms"] == float("inf")
    result, _ = R.run_plain(workload, seed=1, seconds=0.1)
    assert result["failed"] == R.MIN_ROUNDS  # index 5 fails once per round
    assert result["correct"] is False


def test_cli_output_check():
    ref = "p_upper: 0.71% (0.0071234)\nresidual: 1.0e-17\niterations: 36\n"
    assert W.stdout_matches(ref, "p_upper: 0.71% (0.00712340000000001)\nresidual: 3e-16\n"
                                 "iterations: 8\n")
    for wrong in ("p_upper: 0.71% (0.0071244)", "p_upper: 0.72% (0.0071234)",
                  "p_upper: 0.71 % (0.0071234)"):
        assert not W.stdout_matches(ref, wrong + "\nresidual: 1.0e-17\niterations: 36\n")


def test_fails_without_the_program(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(W.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Record the outputs the benchmark checks every op against.

Run it once, at the commit whose outputs are the reference:

    python3 bench/record.py

It writes ``bench/refs/<workload>.json`` for each workload and refuses to
overwrite one that exists; delete a file on purpose to record it again.
Numbers are stored at full precision (JSON floats round-trip exactly).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import workloads as W

sys.path.insert(0, str(W.SRC))
import ldpbound as L  # noqa: E402


def report(spec: dict, cfg=None):
    pf = L.Portfolio(tuple(L.Grade(*g) for g in spec["grades"]))
    rep = L.estimate_grades(pf, spec["gamma"], spec["rho"], cfg)
    return L.remediate_reversal(rep, cfg) if rep.reversal_flags else rep


def record_tables() -> dict:
    return {"tables": {str(t): L.compute_table(t) for t in L.TABLE_IDS}}


def record_reports() -> dict:
    high_nodes = L.NumericConfig(node_count=4096)
    records = []
    for spec in W.generate_portfolios(W.POOL_SEED, W.PORTFOLIO_POOL):
        rec = {"input": spec, "outcome": None, "high_node": None}
        try:
            rec["outcome"] = W.PortfolioReports.summarize(report(spec))
        except L.NumericError as err:
            if not spec["beyond_envelope"]:
                raise RuntimeError(f"unmarked report failed: {spec}") from err
            rec["outcome"] = W.error_summary(err)
            try:
                rec["high_node"] = W.PortfolioReports.summarize(report(spec, high_nodes))
            except L.NumericError:
                pass
        records.append(rec)
    count = len(records)
    return {
        "pool_seed": W.POOL_SEED,
        "why": W.PortfolioReports.why,
        "share_beyond_envelope": sum(r["input"]["beyond_envelope"] for r in records) / count,
        "share_numeric_error": sum("error" in r["outcome"] for r in records) / count,
        "share_remediated": sum(
            bool(r["outcome"].get("adjusted_k")) for r in records) / count,
        "reports": records,
    }


def record_queries() -> dict:
    rows = []
    for n, k, gamma in W.generate_queries(W.POOL_SEED, W.QUERY_POOL):
        res = L.pd_upper_bound_independent(L.BoundQuery(n=n, k=k, gamma=gamma))
        rows.append([n, k, gamma, res.p_upper, res.vacuous])
    return {"pool_seed": W.POOL_SEED, "why": W.IndependentBatch.why, "queries": rows}


def _csv_portfolio() -> str:
    # a small generated portfolio whose correlated report flags a reversal,
    # so that --remediate has work to do
    pool = [s for s in W.generate_portfolios(W.POOL_SEED, 64)
            if not s["beyond_envelope"] and len(s["grades"]) <= 4]
    chosen = next(
        (s for s in pool
         if L.estimate_grades(L.Portfolio(tuple(L.Grade(*g) for g in s["grades"])),
                              0.5, 0.12).reversal_flags),
        pool[0],
    )
    return "grade,obligors,defaults\n" + "".join(f"{g},{n},{k}\n" for g, n, k in chosen["grades"])


def record_cli() -> dict:
    text = _csv_portfolio()
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=W.ROOT)
    try:
        csv_path = f"{workdir}/portfolio.csv"
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        commands = []
        for argv in W.CLI_MIX:
            args = [csv_path if a == "{csv}" else a for a in argv]
            proc = subprocess.run(
                [sys.executable, "-m", "ldpbound.cli", *args],
                capture_output=True, text=True, cwd=W.ROOT, env=W.child_env(), check=False,
            )
            commands.append(
                {"argv": list(argv), "exit_code": proc.returncode, "stdout": proc.stdout})
    finally:
        shutil.rmtree(workdir)
    return {"why": W.CliSession.why, "csv": text, "commands": commands}


def dumps(value, pad: str = "") -> str:
    """JSON with each list of scalars on one line, so 4096-row pools stay short."""
    inner = pad + " "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {dumps(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and any(isinstance(v, (list, dict)) for v in value):
        return "[\n" + ",\n".join(inner + dumps(v, inner) for v in value) + "\n" + pad + "]"
    return json.dumps(value)


RECORDERS = {
    "paper-tables": record_tables,
    "portfolio-reports": record_reports,
    "independent-batch": record_queries,
    "cli-session": record_cli,
}


def main() -> int:
    W.REFS.mkdir(exist_ok=True)
    for name, recorder in RECORDERS.items():
        path = W.REFS / f"{name}.json"
        if path.exists():
            print(f"{path.name}: exists, kept")
            continue
        data = recorder()
        path.write_text(dumps(data) + "\n", encoding="utf-8")
        print(f"{path.name}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())

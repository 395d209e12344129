"""ldpbound benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of paper-tables, portfolio-reports, independent-batch,
cli-session, or ``all`` for each in turn. Run it from a checkout: it imports
ldpbound from ``src/`` and starts every child interpreter with ``src`` on
PYTHONPATH. The next op starts only when the previous one has returned, and
the bench starts no threads; CLI children run one at a time.

``--trace 0`` measures the end-to-end metrics: whole rounds over the
workload's pool until the next round would overrun ``--seconds``, with a
fresh interpreter timed for set-up before each round. ``--trace 1`` runs a
fixed prefix of the same op stream, each op both untraced and with
tracing.py's wrappers installed, checks that both give bit-identical
outputs, and reports the per-layer metrics and the tracing overhead. Every op is checked against the seed commit's outputs in
``refs/``. The last line of stdout is the result as one JSON object; the
lines before it are the same numbers for people, with sample counts and the
run's metadata.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads as W

MIN_ROUNDS = 3
SETUP_REPEATS = 5
CHILD_REPEATS = 5

# (name, unit, better): the end-to-end metrics every untraced run reports;
# their bounds are in BENCHMARK.json. The latency percentiles are printed but
# left out of the JSON: on pools of 10-16 ops fewer than ten ops lie beyond them.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of sorted values (+inf propagates)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    a, b = sorted_values[lo], sorted_values[hi]
    if math.isinf(a) or math.isinf(b):
        return max(a, b) if pos > lo else a
    return a + (b - a) * (pos - lo)


class Tally:
    """Check outcomes and timings of the ops run so far.

    Every pool index is timed once per round, and an op's latency is the
    median of its timings. On a shared 2-core machine an op can take twice
    as long in a burst of a few seconds; the median keeps such bursts out
    unless they hit most rounds. A call that returns several ops (a table's
    cells) shares its time among them.
    """

    def __init__(self):
        self.status = Counter()
        self.times = defaultdict(list)  # pool index -> seconds, one per call
        self.ok_ops = {}  # pool index -> (ops per call, ops that passed)
        self.bad = set()  # pool indices with a mismatch
        self.kept = []
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    def timing(self) -> dict[str, float]:
        typical = {i: statistics.median(times) for i, times in self.times.items()}
        lat = sorted(
            math.inf if i in self.bad else typical[i] / n
            for i, (n, _) in self.ok_ops.items() for _ in range(n)
        )
        return {
            "ops_per_s": sum(ok for _, ok in self.ok_ops.values()) / sum(typical.values()),
            "op_p50_ms": 1e3 * percentile(lat, 0.50),
            "op_p90_ms": 1e3 * percentile(lat, 0.90),
            "op_p99_ms": 1e3 * percentile(lat, 0.99),
        }


def execute(workload, indices, tally: Tally, keep=False) -> Tally:
    """Run the ops named by ``indices`` back to back and check each one."""
    start = perf_counter()
    for i in indices:
        t = perf_counter()
        try:
            summary = workload.summarize(workload.call(i))
        except Exception as err:  # the loop must go on; the op is checked below
            summary = W.error_summary(err)
        tally.times[i].append(perf_counter() - t)
        statuses = workload.statuses(i, summary)
        tally.status.update(statuses)
        tally.ok_ops[i] = (len(statuses), statuses.count(W.OK))
        if W.MISMATCH in statuses:
            tally.bad.add(i)
        if keep:
            tally.kept.append(summary)
    tally.wall += perf_counter() - start
    return tally


def child_seconds(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t = perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=W.ROOT, env=W.child_env(), check=False)
    return perf_counter() - t, proc


def _result(attempted: int, failed: int, metrics: dict, declared) -> dict:
    units = {name: unit for name, unit, _ in declared}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_plain(workload, seed: int, seconds: float):
    """Whole seeded rounds until the next would end after ``seconds`` (at
    least MIN_ROUNDS), with one set-up child before each round."""
    tally, setup, setup_wrong = Tally(), [], 0

    def set_up():
        # a fresh interpreter imports ldpbound and runs the warm-up op
        nonlocal setup_wrong
        dt, proc = child_seconds(workload.warmup_argv)
        setup.append(dt)
        setup_wrong += proc.returncode != 0 or not workload.warmup_ok(proc.stdout)

    for done, order in enumerate(W.rounds(seed, len(workload.pool)), start=1):
        set_up()  # one per round spreads them over the run, like the op timings
        execute(workload, order, tally)
        if done >= MIN_ROUNDS and tally.wall * (done + 1) / done > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        set_up()
    if isinstance(workload, W.CliSession):
        rss_kb = workload.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timing = tally.timing()
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": rss_kb / 1024.0, **timing}
    distinct = sum(n for n, _ in tally.ok_ops.values())
    timed = f"{distinct} ops x {done} rounds, each op its median round"
    samples = {"setup_s": f"{len(setup)} fresh interpreters", "peak_rss_mb": "1"}
    failed = tally.status[W.MISMATCH] + setup_wrong
    typed = tally.status[W.TYPED_ERROR]
    shown = [(name, unit) for name, unit, _ in E2E_METRICS]
    shown += [("op_p50_ms", "ms"), ("op_p90_ms", "ms")]
    if distinct >= 1000:  # ten or more ops beyond the 99th percentile
        shown.append(("op_p99_ms", "ms"))
    lines = [f"{name:<14}{metrics[name]:>14.6g} {unit:<5} samples: {samples.get(name, timed)}"
             for name, unit in shown]
    lines.append(f"{'wall ops/s':<14}{tally.status[W.OK] / tally.wall:>14.6g} 1/s   "
                 f"passing ops over the whole timed wall-clock ({tally.wall:.3f} s)")
    lines.append(
        f"{'failed_frac':<14}{(failed + typed) / tally.attempted:>14.6g} 1     "
        f"attempted={tally.attempted} typed_errors={typed} mismatched={failed} "
        f"(typed errors: NumericError on reports the generator marked beyond the envelope)"
    )
    metrics = {name: metrics[name] for name, _, _ in E2E_METRICS}
    return _result(tally.attempted, failed, metrics, E2E_METRICS), lines


def run_traced(workload, seed: int, ldp):
    stream = itertools.chain.from_iterable(W.rounds(seed, len(workload.pool)))
    prefix = list(itertools.islice(stream, workload.trace_ops))
    plain, traced, tracer = Tally(), Tally(), tracing.Tracer()
    missing = []
    # each op runs untraced and traced back to back, in alternating order, so
    # that warm-up and machine noise fall on both sides alike
    for op_id, i in enumerate(prefix):
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if not with_trace:
                execute(workload, [i], plain, keep=True)
                continue
            tracer.op = op_id
            restore, missing = tracing.install(tracer, ldp)
            try:
                execute(workload, [i], traced, keep=True)
            finally:
                restore()
    differ = sum(repr(a) != repr(b) for a, b in zip(plain.kept, traced.kept))
    layers = tracing.layer_metrics(tracer)
    interp, imports = [], []
    for _ in range(CHILD_REPEATS):
        interp.append(child_seconds(["-c", "pass"])[0])
        _, proc = child_seconds(["-c", "import time; t = time.perf_counter(); "
                                       "import ldpbound.cli; print(time.perf_counter() - t)"])
        imports.append(float(proc.stdout))
    layers["cli.interp_s"] = statistics.median(interp)
    layers["cli.import_s"] = statistics.median(imports)
    before, after = plain.timing(), traced.timing()
    layers["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        layers[f"trace.{name}_delta"] = after[name] - before[name]
    metrics = {name: layers.get(name, 0) for name, _, _ in tracing.LAYER_METRICS}
    failed = max(plain.status[W.MISMATCH], traced.status[W.MISMATCH]) + differ
    lines = [f"{name:<46}{metrics[name]:>16.6g} {unit}" for name, unit, _ in tracing.LAYER_METRICS]
    lines.append(f"traced ops={traced.attempted} (the first {len(prefix)} calls of the seeded "
                 f"stream, each run untraced and traced), outputs that differ: {differ}")
    lines.append("overhead (traced minus untraced): " + ", ".join(
        f"{name} {before[name]:.6g} -> {after[name]:.6g}" for name in before))
    lines += [f"not split from outside: {note}" for note in tracing.UNSPLIT]
    if missing:
        lines.append("not wrapped (attribute gone): " + ", ".join(missing))
    return _result(traced.attempted, failed, metrics, tracing.LAYER_METRICS), lines


def git_sha() -> str:
    head = W.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = W.ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = W.ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def blas_threads() -> str:
    """The thread count OpenBLAS reports, read from the copy numpy loaded."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def run_one(name: str, args, ldp, workdir: Path) -> dict:
    workload = W.load(name, workdir)
    workload.prepare(ldp)
    if args.trace:
        if isinstance(workload, W.CliSession):
            workload.in_process = True  # cli.main in this process, so it can be traced
        result, lines = run_traced(workload, args.seed, ldp)
    else:
        result, lines = run_plain(workload, args.seed, args.seconds)
    meta = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": blas_threads(), "op": workload.op_def,
        "samples": result["attempted"], "why": workload.why,
    }
    print("# meta " + json.dumps(meta))
    for line in lines:
        print("  " + line)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (W.SRC / "ldpbound" / "__init__.py").is_file():
        print(f"bench: no ldpbound package under {W.SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(W.SRC))
    import ldpbound
    import ldpbound.cli  # noqa: F401  (cli is not imported by the package)

    names = W.NAMES if args.workload == "all" else (args.workload,)
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=W.ROOT))
    try:
        for name in names:
            print(json.dumps(run_one(name, args, ldpbound, workdir)), flush=True)
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the program.

``install`` replaces the public functions of each ldpbound module with
pass-through wrappers, at every module attribute its callers look the
function up through (``mixture`` reaches ``specfun.beta_cdf`` as a module
attribute, ``tables`` holds its own name for ``pd_upper_bound_correlated``).
Each wrapper records a span (name, start, end, parent span, op id) and the
counts visible at that boundary. Spans stay in memory; ``layer_metrics``
folds them into the per-layer metrics when the run ends.

Two costs cannot be split from outside, because the program calls them
directly rather than through a module attribute:

* the scalar Newton loop of ``specfun._beta_quantile_steps`` is counted in
  ``binomial.pd_upper_bound_independent.self_s``;
* ``mixture._integrate`` (the node products and the half-rule check) is
  counted in ``mixture.f_cdf.self_s``.

Splitting those needs spans inside the program.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

UNSPLIT = (
    "specfun._beta_quantile_steps (scalar Newton loop) is inside "
    "binomial.pd_upper_bound_independent.self_s",
    "mixture._integrate (node products, half-rule check) is inside mixture.f_cdf.self_s",
)


class Tracer:
    """Collects spans [name, start, end, parent, op, error] and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, name, args, kwargs, out)
            return out

        return traced


def _lanes(counts, name, args, kwargs, out):
    counts[name + ".lanes"] += int(np.size(args[0]))


def _ys(counts, name, args, kwargs, out):
    counts[name + ".ys"] += int(np.size(args[0]))


def _bisection(counts, name, args, kwargs, out):
    counts["mixture.bisection_steps"] += out.iterations


def _newton(counts, name, args, kwargs, out):
    counts["binomial.newton_steps"] += out.iterations


def _reversals(counts, name, args, kwargs, out):
    counts["conservatism.reversal_reports"] += bool(out.reversal_flags)


def _remediated(counts, name, args, kwargs, out):
    counts["conservatism.grades_remediated"] += len(out.adjusted_k or {})


def _trials(counts, name, args, kwargs, out):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    counts[name + ".trials"] += cfg.trials


# span name, the modules whose attribute callers look it up through, counter
WRAPS = (
    ("specfun.std_normal_cdf", ("specfun",), _lanes),
    ("specfun.std_normal_quantile", ("specfun",), _lanes),
    ("specfun.beta_cdf", ("specfun",), _lanes),
    ("specfun.log_gamma", ("specfun",), None),
    ("mixture.f_cdf", ("mixture", "cli"), _ys),
    ("mixture.mixture_tail_prob", ("mixture", "cli"), None),
    ("mixture.f_quantile", ("mixture", "tables", "cli"), None),
    ("mixture.pd_upper_bound_correlated", ("mixture", "tables", "conservatism", "cli"), _bisection),
    ("binomial.binomial_cdf", ("binomial",), None),
    ("binomial.pd_upper_bound_independent", ("binomial", "tables", "conservatism", "cli"), _newton),
    ("conservatism.estimate_grades", ("conservatism", "cli"), _reversals),
    ("conservatism.remediate_reversal", ("conservatism", "cli"), _remediated),
    ("tables.compute_table", ("tables", "cli"), None),
    ("cli.main", ("cli",), None),
    ("mc.simulate_default_count_tail", ("mc", "cli"), _trials),
)


def install(tracer: Tracer, package) -> tuple:
    """Wrap every WRAPS attribute of ``package``'s modules.

    Returns (restore, missing): call ``restore()`` to put the originals back;
    ``missing`` names the attributes that no longer exist.
    """
    saved = []
    missing = []
    for name, homes, count in WRAPS:
        attr = name.split(".", 1)[1]
        for home in homes:
            module = getattr(package, home)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{home}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore, missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals: calls, span time ``s``, ``self_s`` and the counts."""
    spans = tracer.spans
    dur = [end - start for _, start, end, *_ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += dur[i]
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    solves_under: Counter = Counter()
    numeric_errors = 0
    for i, (name, _, _, parent, _, error) in enumerate(spans):
        row = agg[name]
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - covered[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name.endswith(("pd_upper_bound_correlated", "pd_upper_bound_independent")):
            solves_under[parent_name] += 1
        if (error == "NumericError" and name.startswith("mixture.")
                and not parent_name.startswith("mixture.")):
            numeric_errors += 1

    c = tracer.counts
    out: dict[str, float] = dict(c)  # lanes, ys, trials, steps, reversal reports
    for name, _, _ in WRAPS:
        out[f"{name}.calls"], out[f"{name}.s"], out[f"{name}.self_s"] = agg[name]
    for name in ("specfun.std_normal_cdf", "specfun.beta_cdf"):
        out[f"{name}.ns_per_lane"] = 1e9 * _ratio(agg[name][1], c[f"{name}.lanes"])
    solves = agg["mixture.f_quantile"][0] + agg["mixture.pd_upper_bound_correlated"][0]
    remediation_solves = solves_under["conservatism.remediate_reversal"]
    out.update({
        "mixture.f_cdf_per_solve": _ratio(agg["mixture.f_cdf"][0], solves),
        "mixture.numeric_errors": numeric_errors,
        "binomial.newton_steps_per_solve": _ratio(
            c["binomial.newton_steps"], agg["binomial.pd_upper_bound_independent"][0]),
        "conservatism.bound_solves": solves_under["conservatism.estimate_grades"],
        "conservatism.remediation_solves": remediation_solves,
        "conservatism.remediation_useful_ratio": _ratio(
            c["conservatism.grades_remediated"], remediation_solves),
    })
    return out


C, S, NS, R = "count", "s", "ns", "ratio"

# (name, unit, better): the per-layer metrics a traced run reports
LAYER_METRICS = (
    ("specfun.std_normal_cdf.calls", C, "lower"),
    ("specfun.std_normal_cdf.lanes", C, "lower"),
    ("specfun.std_normal_cdf.s", S, "lower"),
    ("specfun.std_normal_cdf.ns_per_lane", NS, "lower"),
    ("specfun.std_normal_quantile.calls", C, "lower"),
    ("specfun.std_normal_quantile.lanes", C, "lower"),
    ("specfun.std_normal_quantile.s", S, "lower"),
    ("specfun.beta_cdf.calls", C, "lower"),
    ("specfun.beta_cdf.lanes", C, "lower"),
    ("specfun.beta_cdf.s", S, "lower"),
    ("specfun.beta_cdf.ns_per_lane", NS, "lower"),
    ("specfun.log_gamma.calls", C, "lower"),
    ("specfun.log_gamma.s", S, "lower"),
    ("mixture.f_cdf.calls", C, "lower"),
    ("mixture.f_cdf.ys", C, "lower"),
    ("mixture.f_cdf.s", S, "lower"),
    ("mixture.f_cdf.self_s", S, "lower"),
    ("mixture.f_quantile.calls", C, "lower"),
    ("mixture.f_quantile.s", S, "lower"),
    ("mixture.mixture_tail_prob.calls", C, "lower"),
    ("mixture.mixture_tail_prob.s", S, "lower"),
    ("mixture.mixture_tail_prob.self_s", S, "lower"),
    ("mixture.pd_upper_bound_correlated.calls", C, "lower"),
    ("mixture.pd_upper_bound_correlated.s", S, "lower"),
    ("mixture.pd_upper_bound_correlated.self_s", S, "lower"),
    ("mixture.bisection_steps", C, "lower"),
    ("mixture.f_cdf_per_solve", R, "lower"),
    ("mixture.numeric_errors", C, "lower"),
    ("binomial.pd_upper_bound_independent.calls", C, "lower"),
    ("binomial.pd_upper_bound_independent.s", S, "lower"),
    ("binomial.pd_upper_bound_independent.self_s", S, "lower"),
    ("binomial.newton_steps", C, "lower"),
    ("binomial.newton_steps_per_solve", R, "lower"),
    ("binomial.binomial_cdf.calls", C, "lower"),
    ("binomial.binomial_cdf.s", S, "lower"),
    ("conservatism.estimate_grades.calls", C, "lower"),
    ("conservatism.estimate_grades.s", S, "lower"),
    ("conservatism.estimate_grades.self_s", S, "lower"),
    ("conservatism.remediate_reversal.calls", C, "lower"),
    ("conservatism.remediate_reversal.s", S, "lower"),
    ("conservatism.bound_solves", C, "lower"),
    ("conservatism.remediation_solves", C, "lower"),
    ("conservatism.reversal_reports", C, "lower"),
    ("conservatism.remediation_useful_ratio", R, "higher"),
    ("tables.compute_table.calls", C, "lower"),
    ("tables.compute_table.s", S, "lower"),
    ("tables.compute_table.self_s", S, "lower"),
    ("cli.interp_s", S, "lower"),
    ("cli.import_s", S, "lower"),
    ("cli.main.calls", C, "lower"),
    ("cli.main.s", S, "lower"),
    ("cli.main.self_s", S, "lower"),
    ("mc.simulate_default_count_tail.calls", C, "lower"),
    ("mc.simulate_default_count_tail.trials", C, "lower"),
    ("mc.simulate_default_count_tail.s", S, "lower"),
    ("trace.overhead_frac", R, "lower"),
    ("trace.ops_per_s_delta", "1/s", "higher"),
    ("trace.op_p50_ms_delta", "ms", "lower"),
    ("trace.op_p90_ms_delta", "ms", "lower"),
)

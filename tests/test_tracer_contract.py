"""The benchmark's per-layer tracer must still find every name it wraps.

``bench/tracing.py`` wraps module attributes from outside the program
(``WRAPS`` names each function and the modules callers look it up through).
Dropping one of those imports, say ``f_cdf`` from ``cli`` or
``pd_upper_bound_correlated`` from ``tables``, would leave the traced layer
reading 0 without any other test noticing; this test fails instead.
"""

import importlib.util
from pathlib import Path

import ldpbound
import ldpbound.cli  # noqa: F401  (the tracer wraps names inside cli)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    tracing = _load_tracing()
    original = ldpbound.specfun.beta_cdf
    restore, missing = tracing.install(tracing.Tracer(), ldpbound)
    try:
        assert ldpbound.specfun.beta_cdf is not original
    finally:
        restore()
    assert ldpbound.specfun.beta_cdf is original
    assert missing == []

"""Monte-Carlo cross-checks for the one-factor model quantities.

Every sampler draws through a counter-based Philox stream keyed by the seed,
with one jumped substream per chunk of ``_CHUNK`` trials. There are no workers:
the chunks run in order on one thread and are tallied as integers, so an
estimate is fixed by (trials, seed). Normals come from the generator's
ziggurat sampler; beta variates are built from Marsaglia-Tsang gamma pairs.
The beta-normal routes push beta samples through the package's own normal
quantile, so the kernel under test participates in its own cross-check
without being the only source of randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .binomial import check_counts
from .errors import DomainError
from .mixture import FactorModelParams

__all__ = [
    "McConfig",
    "McEstimate",
    "PROP3_FORMS",
    "simulate_default_count_tail",
    "simulate_copula_diagonal",
    "simulate_prop3_form",
]

# keep per-batch scratch arrays around this many doubles
_BATCH_CELLS = 4_000_000
# trials per jumped Philox substream; changing it changes every estimate
# of more trials than this
_CHUNK = 250_000

PROP3_FORMS = ("normal-betanormal", "uniform-betanormal", "uniform-beta")


@dataclass(frozen=True)
class McConfig:
    """Trial count and stream seed; together they fix the estimate."""

    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not (specfun.is_whole(self.trials) and self.trials >= 1):
            raise DomainError(f"McConfig: trials={self.trials!r} must be >= 1")
        if not (specfun.is_whole(self.seed) and 0 <= self.seed < 2 ** 64):
            raise DomainError(f"McConfig: seed={self.seed!r} must fit in 64 unsigned bits")
        # a whole float passes; the stream and batch arithmetic need ints
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class McEstimate:
    """Proportion estimate with its binomial standard error."""

    mean: float
    std_error: float
    trials: int


def _chunk_streams(cfg: McConfig):
    root = np.random.Philox(key=cfg.seed)
    for index, start in enumerate(range(0, cfg.trials, _CHUNK)):
        yield np.random.Generator(root.jumped(index)), min(_CHUNK, cfg.trials - start)


def _factor_batches(n: int, cfg: McConfig):
    # (S, xi) per batch of rows in stream order: S (one systematic normal per
    # row) is drawn before xi (each row's n idiosyncratic normals), which
    # fills one reused buffer that the caller may scale in place
    max_rows = max(1, _BATCH_CELLS // n)
    buf = np.empty((min(max_rows, _CHUNK, cfg.trials), n))
    for rng, size in _chunk_streams(cfg):
        for done in range(0, size, max_rows):
            rows = min(max_rows, size - done)
            yield rng.standard_normal(rows), rng.standard_normal(out=buf[:rows])


def _proportion(hits: int, trials: int) -> McEstimate:
    mean = hits / trials
    return McEstimate(
        mean=mean,
        std_error=math.sqrt(mean * (1.0 - mean) / trials),
        trials=trials,
    )


def _uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    # random() covers [0, 1); fold the endpoint into the open interval
    return np.clip(rng.random(size), 2.0 ** -53, 1.0 - 2.0 ** -53)


def _beta_sample(rng: np.random.Generator, a: float, b: float, size: int) -> np.ndarray:
    # gamma-pair construction; shape >= 1 here so no boosting is needed
    g1 = rng.standard_gamma(a, size)
    g2 = rng.standard_gamma(b, size)
    return np.clip(g1 / (g1 + g2), 1e-300, 1.0 - 2.0 ** -53)


def simulate_default_count_tail(
    n: int, k: int, m: FactorModelParams, cfg: McConfig
) -> McEstimate:
    """Estimate P(defaults <= k) by direct simulation of the factor model.

    Per trial: one systematic normal, n idiosyncratic normals, defaults
    counted by the sqrt(rho)*S + sqrt(1-rho)*xi < Phi^-1(p) rule.
    """
    n, k = check_counts("simulate_default_count_tail", n, k)
    x_p = specfun.std_normal_quantile(m.p)
    sq = math.sqrt(m.rho)
    sqc = math.sqrt(1.0 - m.rho)
    hits = 0
    for s, xi in _factor_batches(n, cfg):
        xi *= sqc
        xi += sq * s[:, None]
        counts = np.count_nonzero(xi < x_p, axis=1)
        hits += int(np.count_nonzero(counts <= k))
    return _proportion(hits, cfg.trials)


def simulate_copula_diagonal(
    n: int, m: FactorModelParams, cfg: McConfig
) -> McEstimate:
    """Estimate the equicorrelated orthant probability at -Phi^-1(p).

    Samples the same factor construction, Z_i = sqrt(1-rho)*Y_i - sqrt(rho)*X,
    and counts trials where every coordinate lands below -Phi^-1(p).
    """
    n, _ = check_counts("simulate_copula_diagonal", n)
    threshold = -specfun.std_normal_quantile(m.p)
    sq = math.sqrt(m.rho)
    sqc = math.sqrt(1.0 - m.rho)
    hits = 0
    for x, y in _factor_batches(n, cfg):
        y *= sqc
        y -= sq * x[:, None]
        hits += int(np.count_nonzero(np.all(y < threshold, axis=1)))
    return _proportion(hits, cfg.trials)


def simulate_prop3_form(
    form: str, n: int, k: int, m: FactorModelParams, cfg: McConfig
) -> McEstimate:
    """Estimate P(Phi(sqrt(rho)*X - sqrt(1-rho)*Y) > p), three sampling routes.

    Y is beta-normal with shapes (n-k, k+1): Y = Phi^-1(W), W ~ Beta. The
    routes differ in where the uniforms enter and where the comparison
    happens:

    * ``normal-betanormal``   X drawn as a normal; compare the linear
      combination against Phi^-1(p)
    * ``uniform-betanormal``  X = Phi^-1(Z) from a uniform Z; same comparison
    * ``uniform-beta``        same draws, but the probability is formed as
      Phi(...) and compared against p itself

    All three estimate the mixture tail probability P(defaults <= k).
    """
    if form not in PROP3_FORMS:
        raise DomainError(f"simulate_prop3_form: unknown form {form!r}; pick from {PROP3_FORMS}")
    n, k = check_counts("simulate_prop3_form", n, k)
    if k == n:
        raise DomainError("simulate_prop3_form: k=n makes the first beta shape n-k=0; the tail is 1 without sampling")
    a = float(n - k)
    b = float(k + 1)
    x_p = specfun.std_normal_quantile(m.p)
    sq = math.sqrt(m.rho)
    sqc = math.sqrt(1.0 - m.rho)
    hits = 0
    for rng, size in _chunk_streams(cfg):
        if form == "normal-betanormal":
            x = rng.standard_normal(size)
        else:
            x = specfun.std_normal_quantile(_uniform_open(rng, size))
        y = specfun.std_normal_quantile(_beta_sample(rng, a, b, size))
        combo = sq * x - sqc * y
        if form == "uniform-beta":
            events = specfun.std_normal_cdf(combo) > m.p
        else:
            events = combo > x_p
        hits += int(np.count_nonzero(events))
    return _proportion(hits, cfg.trials)

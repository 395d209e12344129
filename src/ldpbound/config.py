"""Bundled numeric settings shared by the report and CLI layers."""

from __future__ import annotations

from dataclasses import dataclass

from .mixture import QuadratureSpec

__all__ = ["NumericConfig", "DEFAULT_NUMERIC_CONFIG"]


@dataclass(frozen=True)
class NumericConfig:
    """Quadrature and tolerance settings in one object.

    Root-finding tolerances are fixed by the algorithms themselves (a 1e-12
    relative Newton step or a 1e-10 bracket for the mixture quantile, 1e-15
    CDF residual for the beta quantile); the configurable pieces are the
    quadrature rule and its convergence tolerance.
    """

    node_count: int = 512
    truncation: float = 8.0
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        # the fields are validated by the spec they feed
        self.quadrature()

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(
            node_count=self.node_count,
            truncation=self.truncation,
            abs_tol=self.abs_tol,
        )


DEFAULT_NUMERIC_CONFIG = NumericConfig()

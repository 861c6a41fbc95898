"""Solver diagnostics shared across the Markov and equilibrium solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def require_tolerance(tolerance: float) -> None:
    """Raise ``ValueError`` unless ``tolerance`` is finite and positive (NaN certifies nothing, inf anything)."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {float(tolerance)!r}")


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations or produced non-finite values.

    Carries the last iterate and the tail of the residual trace so callers can
    diagnose the failure or restart with different parameters.
    """

    def __init__(
        self,
        message: str,
        last_iterate: np.ndarray | None = None,
        residual: float = float("nan"),
        residual_tail: list[float] | None = None,
    ):
        super().__init__(message)
        self.last_iterate = None if last_iterate is None else np.array(last_iterate)
        self.residual = float(residual)
        self.residual_tail = list(residual_tail or [])


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Convergence diagnostics of one solve.

    ``residual`` is the max-norm of the excess demand (or of the fixed-point
    defect, for stationary-distribution solves) at the returned vector.
    ``converged`` implies ``residual <= tolerance``.
    """

    method: str
    iterations: int
    residual: float
    converged: bool
    tolerance: float
    wall_time: float = 0.0

    def __post_init__(self):
        if self.converged and not self.residual <= self.tolerance:
            raise ValueError(
                f"inconsistent report: converged but residual {self.residual:g} "
                f"> tolerance {self.tolerance:g}"
            )

    def to_dict(self, include_wall_time: bool = True) -> dict:
        d = {
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "tolerance": self.tolerance,
        }
        if include_wall_time:
            d["wall_time"] = self.wall_time
        return d


@dataclass(frozen=True, eq=False)
class ClearingReport:
    """Per-good market-clearing residuals of a candidate price vector."""

    residual: float
    per_good: np.ndarray
    tolerance: float
    passed: bool

    def __post_init__(self):
        per_good = np.array(self.per_good, dtype=float)
        per_good.flags.writeable = False
        object.__setattr__(self, "per_good", per_good)


@dataclass(frozen=True, eq=False)
class MultistartReport:
    """Spread of equilibria computed from several random interior starts.

    ``within_bound`` compares the spread against 10x the solver tolerance; it
    is ``None`` when some trader has a negative elasticity parameter, where
    uniqueness is not guaranteed and the spread is reported without judgement.
    """

    spread: float
    bound: float
    within_bound: bool | None
    prices: list = field(default_factory=list)
    reports: list = field(default_factory=list)

"""Solver diagnostics shared across the equilibrium solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problem import _frozen


class Leg(NamedTuple):
    """One rung of a solve's path: the method that ran, its steps, and why it ended."""

    method: str
    iterations: int
    ended: str  # "certified", or how a price loop failed: "not finite", "stopped moving", "diverged", "budget spent"


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations or produced non-finite values.

    Carries the last iterate and the tail of the residual trace so callers can
    diagnose the failure or restart with different parameters, and, from a
    price loop, the ``leg`` it ended.
    """

    def __init__(
        self,
        message: str,
        last_iterate: np.ndarray | None = None,
        residual: float = float("nan"),
        residual_tail: list[float] | None = None,
        leg: Leg | None = None,
    ):
        super().__init__(message)
        self.last_iterate = None if last_iterate is None else np.array(last_iterate)
        self.residual = float(residual)
        self.residual_tail = list(residual_tail or [])
        self.leg = leg


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Convergence diagnostics of one certified solve.

    ``residual`` is the max-norm of the excess demand at the returned
    prices, as `cesrank.solver.verify_equilibrium` certifies it, and is
    within ``tolerance``: a solver that cannot certify raises
    `ConvergenceError` instead of reporting. ``path`` is every rung that
    ran, in order, the last one ``method``'s certified `Leg`; by default
    that leg alone.
    """

    method: str
    iterations: int
    residual: float
    tolerance: float
    wall_time: float = 0.0
    path: tuple[Leg, ...] = ()

    def __post_init__(self):
        if not self.residual <= self.tolerance:
            raise ValueError(f"inconsistent report: residual {self.residual:g} > tolerance {self.tolerance:g}")
        if not self.path:
            _frozen(self, path=(Leg(self.method, self.iterations, "certified"),))

    @property
    def converged(self) -> bool:
        """Always true: a report exists only for certified prices."""
        return True

    def to_dict(self) -> dict:
        """The report's fields without ``wall_time`` and ``path``, so that output of the same input is the same bytes."""
        return {
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True, eq=False)
class ClearingReport:
    """Per-good market-clearing residuals of a candidate price vector."""

    residual: float
    per_good: np.ndarray
    tolerance: float

    def __post_init__(self):
        _frozen(self, per_good=np.array(self.per_good, dtype=float))

    @property
    def passed(self) -> bool:
        """Whether every good clears within the tolerance."""
        return self.residual <= self.tolerance

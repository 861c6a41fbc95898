"""Executable ranking axioms.

Each check returns an :class:`AxiomVerdict` instead of a bare bool so that
callers (tests, the CLI) can inspect what was actually computed. A verdict is
``"pass"``, ``"fail"``, or ``"not_applicable"`` when the check's preconditions
do not hold; failing verdicts always carry a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .diagnostics import SolverReport
from .economy import CesEconomy, PriceVector, as_price_array, build_economy, damped_economy, excess_demand
from .problem import DirectedGraph, RankingProblem
from .solver import rank_problem, solve_equilibrium

#: Separation required of "strict" inequalities, so rounding noise never
#: produces a vacuous pass.
STRICT_MARGIN = 1e-12

#: Largest deviation of a price from 1/n that `check_uniformity` calls uniform.
UNIFORMITY_TOL = 1e-6
#: Absolute tolerance on row/column sum differences in a regularity test.
REGULARITY_TOL = 1e-9
FAIRNESS_TOL = 1e-9
INVARIANCE_TOL = 1e-8

_STATUSES = ("pass", "fail", "not_applicable")


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one axiom check, with enough data to audit it."""

    axiom: str
    status: str
    witness: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")
        if self.status == "fail" and not self.witness:
            raise ValueError("a fail verdict must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def applicable(self) -> bool:
        return self.status != "not_applicable"


def _not_applicable(axiom: str, reason: str, **extra) -> AxiomVerdict:
    witness = {"reason": reason}
    witness.update(extra)
    return AxiomVerdict(axiom=axiom, status="not_applicable", witness=witness)


def _verdict(axiom: str, passed: bool, witness: dict, **tolerances: float) -> AxiomVerdict:
    """The pass or fail verdict of an applicable check, with its witness and tolerances."""
    return AxiomVerdict(axiom=axiom, status="pass" if passed else "fail", witness=witness, tolerances=tolerances)


def _uniform_verdict(axiom: str, prices: PriceVector, report: SolverReport, tolerance: float) -> AxiomVerdict:
    """The verdict that a ranking is uniform: every price within ``tolerance`` of 1/n."""
    deviation = float(np.abs(prices.pi - 1.0 / prices.n).max())
    witness = {
        "prices": prices.pi.tolist(),
        "deviation_from_uniform": deviation,
        "solver_residual": report.residual,
    }
    return _verdict(axiom, deviation <= tolerance, witness, uniform=tolerance)


def check_minimal_fairness(n: int, rho_common: float, beta: float = 1.0) -> AxiomVerdict:
    """Agents that express no preferences at all must rank uniformly.

    Builds the n-agent problem whose preference graph has no edge
    (normalization turns every row uniform, and damping keeps it uniform),
    runs the full pipeline, and passes iff the ranking is 1/n everywhere
    within 1e-9.
    """
    if n < 2:
        raise ValueError(f"need at least 2 agents, got {n}")
    problem = RankingProblem.from_edges(None, DirectedGraph(n, [], []), [], rho_common, beta=beta)
    prices, report = rank_problem(problem)
    return _uniform_verdict("minimal_fairness", prices, report, FAIRNESS_TOL)


def _column(economy: CesEconomy, c: int) -> np.ndarray:
    """Column ``c`` of the economy's alpha: each row's floor, or its entry in that column."""
    col = economy.floor.copy()
    at = economy.cols == c
    col[economy.rows[at]] = economy.values[at]
    return col


def _column_dominance(economy: CesEconomy, i: int, j: int) -> tuple[bool, dict]:
    """Does normalized column i sit entrywise below column j, strictly somewhere?"""
    col_i = _column(economy, i)
    col_j = _column(economy, j)
    bad = np.flatnonzero(col_i > col_j)
    if bad.size:
        k = int(bad[0])
        return False, {
            "reason": f"alpha_hat[{k}][{i}] > alpha_hat[{k}][{j}]",
            "row": k,
            "values": [float(col_i[k]), float(col_j[k])],
        }
    if not np.any(col_i < col_j):
        return False, {"reason": f"columns {i} and {j} are identical after normalization"}
    return True, {}


def check_strict_monotonicity(problem: RankingProblem, i: int, j: int) -> AxiomVerdict:
    """A uniformly less-preferred agent must rank strictly lower.

    Applicable only when every agent shares one elasticity parameter and, on
    the normalized matrix, column ``i`` is dominated by column ``j`` (entrywise
    ``<=`` with at least one strict ``<``). Dominance is read off the
    columns of `build_economy(problem)`, the normalized matrix, rather than
    the raw one because that is the matrix the market actually consumes.
    Passes iff ``pi[i] < pi[j]`` with a 1e-12 margin.
    """
    n = problem.n
    for name, idx in (("i", i), ("j", j)):
        if not (0 <= idx < n):
            raise ValueError(f"agent index {name}={idx} out of range for n={n}")
    if i == j:
        return _not_applicable("strict_monotonicity", "i == j leaves no room for a strict inequality")
    if not (problem.rho == problem.rho[0]).all():
        return _not_applicable(
            "strict_monotonicity",
            "agents have heterogeneous rho; the claim is scoped to a common elasticity",
            rho=problem.rho.tolist(),
        )
    economy = build_economy(problem)
    dominated, why = _column_dominance(economy, i, j)
    if not dominated:
        return _not_applicable("strict_monotonicity", why.pop("reason"), **why)
    prices, report = solve_equilibrium(economy)
    gap = float(prices.pi[j] - prices.pi[i])
    witness = {
        "i": i,
        "j": j,
        "pi_i": float(prices.pi[i]),
        "pi_j": float(prices.pi[j]),
        "gap": gap,
        "solver_residual": report.residual,
    }
    return _verdict("strict_monotonicity", gap > STRICT_MARGIN, witness, strict_margin=STRICT_MARGIN)


def check_invariance(problem: RankingProblem, i: int, lam: float) -> AxiomVerdict:
    """Rescaling one agent's preference row must not move the ranking.

    Row normalization makes the scaled problem literally identical to the
    original, so we assert the strong form: the two rankings agree entrywise
    within 1e-8 (order invariance follows a fortiori).
    """
    if not (0 <= i < problem.n):
        raise ValueError(f"agent index {i} out of range for n={problem.n}")
    if not np.isfinite(lam) or lam <= 0:
        raise ValueError(f"scale factor must be positive and finite, got {lam!r}")
    weights = np.array(problem.weights)
    weights[problem.graph.src == i] *= lam
    scaled = RankingProblem.from_edges(problem.agent_ids, problem.graph, weights, problem.rho, beta=problem.beta)
    base_prices, base_report = rank_problem(problem)
    scaled_prices, scaled_report = rank_problem(scaled)
    difference = float(np.abs(base_prices.pi - scaled_prices.pi).max())
    witness = {
        "i": i,
        "lambda": float(lam),
        "difference": difference,
        "prices": base_prices.pi.tolist(),
        "scaled_prices": scaled_prices.pi.tolist(),
        "solver_residuals": [base_report.residual, scaled_report.residual],
    }
    return _verdict("invariance", difference <= INVARIANCE_TOL, witness, max_norm=INVARIANCE_TOL)


def check_uniformity(problem: RankingProblem) -> AxiomVerdict:
    """Report whether a regular problem's ranking is uniform.

    Regular problems (equal row and column sums) are exactly where uniform
    rankings are a live hypothesis, so non-regular input yields a
    not-applicable verdict. The check runs undamped: damping rewrites the
    matrix and would change which problem is being asked about. A "fail" here
    is not a defect, it is the interesting outcome: a regular problem whose
    equilibrium is demonstrably non-uniform. The problem is regular when every
    row sum, and every column sum, is within REGULARITY_TOL of the first.
    """
    economy = damped_economy(problem.graph, problem.weights, problem.rho, 1.0)
    n, rows = economy.n, economy.rows
    # a row or column sums n floors of its rows, plus each entry's excess over its row's floor
    excess = economy.values - economy.floor[rows]
    row_sums = n * economy.floor + np.bincount(rows, excess, minlength=n)
    column_sums = economy.floor.sum() + np.bincount(economy.cols, excess, minlength=n)
    if not all(np.all(np.abs(sums - sums[0]) <= REGULARITY_TOL) for sums in (row_sums, column_sums)):
        return _not_applicable(
            "uniformity",
            "problem is not regular (row and column sums must all agree)",
            row_sums=row_sums.tolist(),
            column_sums=column_sums.tolist(),
        )
    prices, report = solve_equilibrium(economy)
    return _uniform_verdict("uniformity", prices, report, UNIFORMITY_TOL)


def gs_spot_check(
    economy: CesEconomy,
    l: int,
    delta: float,
    probe_prices: Sequence,
) -> AxiomVerdict:
    """Probe the gross-substitutes property at given price vectors.

    For each probe price vector, raises the price of good ``l`` by ``delta``
    while holding every other price fixed, and requires the excess demand of
    every other good to strictly increase. Applicable only where the property
    is claimed: every rho nonnegative and a strictly positive preference
    matrix. Pure evaluation, no solving involved.
    """
    if not (0 <= l < economy.n):
        raise ValueError(f"good index {l} out of range for n={economy.n}")
    if np.any(economy.rho < 0.0):
        return _not_applicable(
            "gross_substitutes",
            "some trader has rho < 0; gross substitutes is only claimed for rho >= 0",
            rho=economy.rho.tolist(),
        )
    if economy.floor.min() <= 0.0:
        # the first row with a zero floor, at its first good that is not an entry
        i = int(np.argmax(economy.floor <= 0.0))
        wanted = np.zeros(economy.n, dtype=bool)
        wanted[economy.cols[economy.rows == i]] = True
        return _not_applicable(
            "gross_substitutes",
            f"alpha[{i}][{int(np.argmin(wanted))}] is not strictly positive",
        )
    if not (np.isfinite(delta) and delta > 0):
        return _not_applicable("gross_substitutes", f"price bump must be positive, got {delta!r}")
    checked = 0
    for probe_index, probe in enumerate(probe_prices):
        p = as_price_array(probe, economy.n)
        z_before = excess_demand(economy, p)
        bumped = np.array(p)
        bumped[l] += delta
        z_after = excess_demand(economy, bumped)
        flagged = ~(z_after - z_before > STRICT_MARGIN)
        flagged[l] = False
        checked += economy.n - 1
        if np.any(flagged):
            j = int(np.argmax(flagged))
            witness = {
                "probe": probe_index,
                "good": j,
                "bumped_good": l,
                "delta": float(delta),
                "z_before": float(z_before[j]),
                "z_after": float(z_after[j]),
            }
            return _verdict("gross_substitutes", False, witness, strict_margin=STRICT_MARGIN)
    if checked == 0:
        return _not_applicable("gross_substitutes", "no probe prices supplied")
    witness = {"probes": len(probe_prices), "comparisons": checked, "bumped_good": l}
    return _verdict("gross_substitutes", True, witness, strict_margin=STRICT_MARGIN)

"""Equilibrium computation: closed form, tatonnement, verification, probing.

All-Cobb-Douglas economies reduce to one linear system (market clearing at
positive prices reads ``sum_i alpha[i][j] * pi[i] = pi[j]``, the invariant
condition of a stochastic matrix), so they are solved exactly by the Markov
module's stationary solve. Everything else runs damped multiplicative price
adjustment: raise the price of over-demanded goods, lower the price of
over-supplied ones, renormalize. The result is never trusted on faith;
`verify_equilibrium` certifies the excess-demand residual independently of how
the prices were found.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import ClearingReport, ConvergenceError, MultistartReport, SolverReport, require_tolerance
from .economy import CesEconomy, PriceVector, aggregate_demand, as_price_array, build_economy, excess_demand
from .markov import DirectedGraph, _damped_chain, require_strongly_connected, stationary_solve
from .problem import RankingProblem

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for equilibrium computation.

    ``tolerance`` bounds the max-norm of excess demand at the returned prices.
    ``max_iters`` and ``initial_prices`` apply to tatonnement, whose step is
    derived from the economy, and ``seed`` to `multistart_probe`.
    """

    tolerance: float = 1e-10
    max_iters: int = 200_000
    initial_prices: PriceVector | None = None
    seed: int = 0

    def __post_init__(self):
        require_tolerance(self.tolerance)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")


def _require_connected_economy(economy: CesEconomy) -> None:
    if economy.floor.min() > 0.0:
        return  # no zero entry: the graph is complete, with self-loops
    # edge i -> j iff alpha[i][j] > 0: every good for a positive floor, the entries otherwise
    require_strongly_connected(
        DirectedGraph(economy.n, economy.rows, economy.cols),
        "economy graph",
        "no strictly positive equilibrium is guaranteed; damp with beta < 1 to connect it",
        to_all=np.flatnonzero(economy.floor > 0.0),
    )


def solve_cobb_douglas(economy: CesEconomy, tolerance: float = 1e-10) -> tuple[PriceVector, SolverReport]:
    """Exact equilibrium of an all-unit-elasticity economy.

    Solves the linear invariant system of the row-normalized alpha matrix
    with `cesrank.markov.stationary_solve`. The report's residual and
    convergence come from `verify_equilibrium` at the returned prices, an
    independent check on the linear algebra.
    """
    require_tolerance(tolerance)
    start = time.perf_counter()
    if np.any(economy.rho != 0.0):
        i = int(np.flatnonzero(economy.rho != 0.0)[0])
        raise ValueError(f"trader {i} has rho = {float(economy.rho[i])!r}; closed form needs all zeros")
    _require_connected_economy(economy)
    shares = _damped_chain(np.array(economy.alpha), 1.0).matrix
    prices = PriceVector.from_unnormalized(stationary_solve(shares))
    check = verify_equilibrium(economy, prices, tolerance)
    report = SolverReport(
        method="closed_form",
        iterations=1,
        residual=check.residual,
        converged=check.passed,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
    )
    if not report.converged:
        raise ConvergenceError(
            f"closed-form solution has residual {check.residual:.3e} above tolerance "
            f"{tolerance:.3e}; the linear system is badly conditioned",
            last_iterate=prices.pi,
            residual=check.residual,
        )
    return prices, report


@np.errstate(over="ignore", invalid="ignore")  # a demand or price gone non-finite is a ConvergenceError below
def solve_tatonnement(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Damped multiplicative price adjustment until the market clears.

    Each round updates ``p[j] <- p[j] * demand_j ** gamma`` (supply is 1) and
    renormalizes onto the simplex, with ``gamma = min(0.5, 1 / max(q))``: the
    step shrinks as demand grows more price-elastic, as in bounded-elasticity
    tatonnement (Cole & Fleischer, STOC 2008), and the cap keeps undamped
    periodic graphs at rho <= 0 from cycling. Aggregate demand comes from
    `cesrank.economy.aggregate_demand`, O(nnz) per round on a damped graph.
    Convergence is declared when its max-norm excess demand falls below the
    configured tolerance and `verify_equilibrium`, the trader-side
    certificate, passes too at the returned prices; the report carries the certificate's
    residual, and a failed certificate means iterating on. A demand or price
    that stops being finite and positive, or an exhausted budget, is a
    `ConvergenceError`, not a wrong answer.
    """
    cfg = config or SolverConfig()
    start = time.perf_counter()
    _require_connected_economy(economy)
    n = economy.n
    if cfg.initial_prices is not None:
        p = as_price_array(cfg.initial_prices, n)
        p = p / p.sum()
    else:
        p = np.full(n, 1.0 / n)
    gamma = min(0.5, 1.0 - float(economy.rho.max()))  # 1 - rho = 1 / q
    trace: list[float] = []
    residual = np.inf
    demand_at = aggregate_demand(economy)
    for it in range(cfg.max_iters + 1):
        demand = demand_at(p)
        z = demand - 1.0  # every good's supply is one unit
        if not np.all(np.isfinite(z)):
            j = int(np.flatnonzero(~np.isfinite(z))[0])
            raise ConvergenceError(
                f"excess demand of good {j} is not finite at iteration {it}",
                last_iterate=p,
                residual=float("nan"),
                residual_tail=trace[-10:],
            )
        residual = float(np.abs(z).max())
        trace.append(residual)
        if residual <= cfg.tolerance:
            prices = PriceVector.from_unnormalized(p)
            check = verify_equilibrium(economy, prices, cfg.tolerance)
            if check.passed:
                report = SolverReport(
                    method="tatonnement",
                    iterations=it,
                    residual=check.residual,
                    converged=True,
                    tolerance=cfg.tolerance,
                    wall_time=time.perf_counter() - start,
                )
                logger.debug("tatonnement converged: %s", report)
                return prices, report
            logger.info("residual %.3e certified as %.3e; iterating on", residual, check.residual)
        if it == cfg.max_iters:
            break
        p = p * demand**gamma
        p /= p.sum()
        bad = ~np.isfinite(p) | (p <= 0.0)
        if np.any(bad):
            j = int(np.flatnonzero(bad)[0])
            raise ConvergenceError(
                f"price of good {j} is {float(p[j])!r} after iteration {it}; tatonnement diverged",
                last_iterate=p,
                residual=residual,
                residual_tail=trace[-10:],
            )
    raise ConvergenceError(
        f"tatonnement did not clear the market in {cfg.max_iters} iterations, "
        f"residual {residual:.3e}",
        last_iterate=p,
        residual=residual,
        residual_tail=trace[-10:],
    )


def solve_equilibrium(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Closed form when every trader has unit elasticity (rho 0), tatonnement otherwise."""
    cfg = config or SolverConfig()
    if np.all(economy.rho == 0.0):
        return solve_cobb_douglas(economy, tolerance=cfg.tolerance)
    return solve_tatonnement(economy, cfg)


def rank_problem(problem: RankingProblem, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Full ranking pipeline: normalize, build the economy, solve for prices.

    Strong connectivity of the economy graph is checked once, by the solver.
    """
    return solve_equilibrium(build_economy(problem), config)


def verify_equilibrium(economy: CesEconomy, prices, tolerance: float = 1e-10) -> ClearingReport:
    """Certify a candidate price vector by its excess-demand residual.

    Pure report: passes iff every good's excess demand is within ``tolerance``
    of zero. Since prices are strictly positive, clearing must hold with
    equality, so both surpluses and shortages count against the candidate.
    The excess demand is `cesrank.economy.excess_demand`, evaluated trader
    by trader in O(nnz + n·G) and apart from the solver's kernel.
    """
    z = excess_demand(economy, prices)
    residual = float(np.abs(z).max())
    return ClearingReport(
        residual=residual,
        per_good=z,
        tolerance=float(tolerance),
        passed=residual <= tolerance,
    )


def multistart_probe(economy: CesEconomy, config: SolverConfig | None = None, k_starts: int = 5) -> MultistartReport:
    """Solve from ``k_starts`` random interior starts and report the spread.

    Always runs the iterative solver (the closed form ignores its start, so
    probing it would be vacuous). For economies where every trader has
    ``rho >= 0`` the equilibrium is unique, and the max pairwise distance
    between the computed equilibria must land within ten times the solver
    tolerance; for some negative rho the spread is reported without judgement.
    Any non-converging start propagates its error.
    """
    cfg = config or SolverConfig()
    if k_starts < 2:
        raise ValueError(f"need at least 2 starts to measure a spread, got {k_starts}")
    rng = np.random.default_rng(cfg.seed)
    n = economy.n
    prices: list[PriceVector] = []
    reports: list[SolverReport] = []
    for _ in range(k_starts):
        raw = rng.dirichlet(np.ones(n))
        raw = np.clip(raw, 1e-3 / n, None)  # keep starts in the interior
        start = PriceVector.from_unnormalized(raw)
        p, rep = solve_tatonnement(economy, replace(cfg, initial_prices=start))
        prices.append(p)
        reports.append(rep)
    spread = 0.0
    for i in range(k_starts):
        for j in range(i + 1, k_starts):
            spread = max(spread, float(np.abs(prices[i].pi - prices[j].pi).max()))
    bound = 10.0 * cfg.tolerance
    unique_regime = bool(np.all(economy.rho >= 0.0))
    return MultistartReport(
        spread=spread,
        bound=bound,
        within_bound=(spread <= bound) if unique_regime else None,
        prices=prices,
        reports=reports,
    )

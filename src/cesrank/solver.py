"""Equilibrium computation: closed form, one certified price loop, verification, probing.

All-Cobb-Douglas economies reduce to one linear system (market clearing at
positive prices reads ``sum_i alpha[i][j] * pi[i] = pi[j]``, the invariant
condition of a stochastic matrix), so they are iterated as PageRank is when
every floor is positive, for at most n steps, and otherwise, or when those
steps do not clear the market, solved exactly by `stationary_solve`.
Everything else runs damped multiplicative price adjustment: raise the price
of over-demanded goods, lower the price of over-supplied ones, renormalize.
PageRank's step ``p <- S.T @ p`` is that adjustment at full step, so both
run in one loop, `_iterate`; a non-finite excess demand or a price that is
no longer positive ends it at once. The result is never trusted on faith:
the loop stops on `verify_equilibrium`, which certifies the excess-demand
residual independently of how the prices were found, and a closed form
that it does not certify is finished by price adjustment in that loop.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import markov
from .diagnostics import ClearingReport, ConvergenceError, MultistartReport, SolverReport, require_tolerance
from .economy import CesEconomy, PriceVector, aggregate_demand, as_price_array, build_economy, excess_demand, row_tops
from .problem import RankingProblem

logger = logging.getLogger(__name__)

#: A price loop's map: prices to their excess demand and the unnormalized next prices.
_PriceMap = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for equilibrium computation.

    ``tolerance`` bounds the max-norm of excess demand at the returned prices.
    ``max_iters`` and ``initial_prices`` are the budget and the start of the
    price loop that tatonnement runs, with a step derived from the economy;
    `solve_power` runs the same loop from the uniform vector, on the
    tolerance and budget it is called with. ``seed`` seeds `multistart_probe`.
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
    # edge i -> j iff alpha[i][j] > 0: every good for a positive floor, the entries otherwise;
    # a positive floor's row points to one auxiliary vertex n that points to every vertex,
    # O(n) edges that keep every path between the traders
    n, src, dst = economy.n, economy.rows, economy.cols
    to_all = np.flatnonzero(economy.floor > 0.0)
    if to_all.size:
        src = np.concatenate([src, to_all, np.full(n, n)])
        dst = np.concatenate([dst, np.full(to_all.size, n), np.arange(n)])
    graph = markov.DirectedGraph(n + 1 if to_all.size else n, src, dst)
    # one search gives the verdict and the witness; looked up on the module at
    # call time, so a patched or traced search is the one that runs
    forward, backward = markov._reached_both_ways(graph, 0)
    if not (forward.all() and backward.all()):
        component = np.flatnonzero(forward[:n] & backward[:n]).tolist()
        raise ValueError(
            f"economy graph is not strongly connected (one component: {component}); "
            "no strictly positive equilibrium is guaranteed; damp with beta < 1 to connect it"
        )


def stationary_solve(p: np.ndarray) -> np.ndarray:
    """Solve ``pi = P.T @ pi``, ``sum(pi) == 1`` for a row-stochastic array ``p``.

    One dense linear solve: the last equation of ``(P.T - I) pi = 0`` is
    replaced by the normalization. It handles every irreducible chain,
    periodic ones included, where iteration would never converge. Raises
    ``ValueError`` when the system is singular (no unique stationary
    distribution). The result is not clipped, renormalized or
    residual-checked.
    """
    n = p.shape[0]
    a = p.T.copy()
    a.flat[:: n + 1] -= 1.0
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular stationary system; the chain has no unique stationary "
            "distribution (is it irreducible?)"
        ) from exc
    return pi


def solve_cobb_douglas(economy: CesEconomy, tolerance: float = 1e-10) -> tuple[PriceVector, SolverReport]:
    """Exact equilibrium of an all-unit-elasticity economy.

    Solves the linear invariant system of the share matrix, alpha's rows
    divided by their sums as `_shares` gives them, with `stationary_solve`;
    that matrix is the one n x n array built from an economy. It certifies
    the prices with `verify_equilibrium`, whose residual the report carries.
    The certificate is a relative excess demand, so on skewed weights it can
    reject a solve whose absolute error is tiny but whose small prices are
    wrong, or even negative. The solve then only seeds tatonnement: from its
    prices, each raised to at least ``eps * max(p)``, `solve_tatonnement`'s
    loop runs to a certified equilibrium or a `ConvergenceError`. Either way
    the report's method is ``"closed_form"``, with 1 iteration for the solve
    plus those of tatonnement.
    """
    cfg = SolverConfig(tolerance=tolerance)
    start = time.perf_counter()
    if np.any(economy.rho != 0.0):
        i = int(np.flatnonzero(economy.rho != 0.0)[0])
        raise ValueError(f"trader {i} has rho = {float(economy.rho[i])!r}; closed form needs all zeros")
    floor_share, excess_share = _shares(economy)
    # first: a size too large for the dense solve fails before the connectivity check
    shares = np.repeat(floor_share[:, None], economy.n, axis=1)
    _require_connected_economy(economy)
    shares[economy.rows, economy.cols] += excess_share
    pi = stationary_solve(shares)
    if pi.min() > 0.0:
        prices = PriceVector.from_unnormalized(pi)
        check = verify_equilibrium(economy, prices, tolerance)
        if check.passed:
            report = SolverReport(
                method="closed_form",
                iterations=1,
                residual=check.residual,
                converged=True,
                tolerance=tolerance,
                wall_time=time.perf_counter() - start,
            )
            return prices, report
    logger.info("closed form not certified at tolerance %.3e; finishing by tatonnement", tolerance)
    seed = np.maximum(pi, np.finfo(float).eps * pi.max())
    prices, report = _iterate(economy, "tatonnement", _price_adjustment(economy), replace(cfg, initial_prices=seed), start)
    return prices, replace(report, method="closed_form", iterations=1 + report.iterations)


def _shares(economy: CesEconomy) -> tuple[np.ndarray, np.ndarray]:
    """Each trader's rho-0 floor share, and each entry's share above it.

    Trader i spends the share ``S[i][j] = alpha[i][j] / sum_k alpha[i][k]``
    of its income ``p[i]`` on good j: its floor share ``floor[i] / sum_k
    alpha[i][k]`` on every good, plus the excess of its entries. Each row is
    first divided by `row_tops`, which is exact, so no row total overflows.
    """
    n, rows = economy.n, economy.rows
    top = row_tops(economy)
    floor, excess = economy.floor / top, (economy.values - economy.floor[rows]) / top[rows]
    totals = n * floor + np.bincount(rows, excess, minlength=n)
    return floor / totals, excess / totals[rows]


def solve_power(economy: CesEconomy, tolerance: float = 1e-12, max_iters: int = 100_000) -> tuple[PriceVector, SolverReport]:
    """Equilibrium of a damped all-unit-elasticity economy by iterating its prices: PageRank.

    At rho 0 trader i spends the share ``S[i][j] = alpha[i][j] / sum_k
    alpha[i][k]`` of its income ``p[i]`` on good j, so good j's excess demand
    at prices ``p`` is ``(S.T @ p)_j / p_j - 1`` and the market clears where
    ``p = S.T @ p``: tatonnement at full step, and it runs in tatonnement's
    loop, `_iterate`, from the uniform vector. With every floor positive,
    ``p <- S.T @ p`` contracts in L1, at rate ``c`` on a
    `cesrank.economy.web_economy` (Langville & Meyer, "Deeper Inside
    PageRank", 2004), in O(n + nnz) per step on the floors and entries. It
    returns the first certified iterate or raises `ConvergenceError`.
    """
    cfg = SolverConfig(tolerance=tolerance, max_iters=max_iters)
    bad = (economy.rho != 0.0) | (economy.floor <= 0.0)
    if np.any(bad):  # the contraction condition
        i = int(np.argmax(bad))
        rho, floor = float(economy.rho[i]), float(economy.floor[i])
        raise ValueError(f"trader {i} has rho = {rho!r} and floor {floor!r}; power iteration needs rho 0, floor > 0")
    start = time.perf_counter()
    n, rows, cols = economy.n, economy.rows, economy.cols
    floor_share, excess_share = _shares(economy)

    def advance(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        image = floor_share @ p + np.bincount(cols, excess_share * p[rows], minlength=n)
        return image / p - 1.0, image

    return _iterate(economy, "power", advance, cfg, start)


def solve_tatonnement(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Damped multiplicative price adjustment until the market clears.

    Each round updates ``p[j] <- p[j] * demand_j ** gamma`` (supply is 1) and
    renormalizes onto the simplex, with ``gamma = min(0.5, 1 / max(q))``: the
    step shrinks as demand grows more price-elastic, as in bounded-elasticity
    tatonnement (Cole & Fleischer, STOC 2008), and the cap keeps undamped
    periodic graphs at rho <= 0 from cycling. Aggregate demand comes from
    `cesrank.economy.aggregate_demand`, O(nnz) per round on a damped graph.
    The rounds run in `_iterate`, which stops on a certified equilibrium or
    raises a `ConvergenceError`, never returning a wrong answer.
    """
    cfg = config or SolverConfig()
    start = time.perf_counter()
    _require_connected_economy(economy)
    return _iterate(economy, "tatonnement", _price_adjustment(economy), cfg, start)


def _price_adjustment(economy: CesEconomy) -> _PriceMap:
    """Tatonnement's map for `_iterate`: excess demand from `aggregate_demand`, and ``p * demand**gamma``."""
    demand_at = aggregate_demand(economy)
    gamma = min(0.5, 1.0 - float(economy.rho.max()))  # 1 - rho = 1 / q

    def advance(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        demand = demand_at(p)
        return demand - 1.0, p * demand**gamma  # every good's supply is one unit

    return advance


# how each method's errors name it, and how they say that its budget ran out
_LOOP_TEXTS = {"power": ("power iteration", "did not converge"), "tatonnement": ("tatonnement", "did not clear the market")}


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a demand or price gone non-finite is a ConvergenceError below
def _iterate(economy: CesEconomy, method: str, advance: _PriceMap, cfg: SolverConfig, start: float) -> tuple[PriceVector, SolverReport]:
    """The one certified price loop, for ``method`` ``"power"`` or ``"tatonnement"``; wall time runs from ``start``.

    From ``cfg.initial_prices``, renormalized, or the uniform vector,
    ``advance(p)`` gives the excess demand ``z`` at ``p`` and the
    unnormalized next prices. The loop stops on the first iterate whose
    max-norm ``z`` is within ``cfg.tolerance`` and that `verify_equilibrium`
    certifies at the renormalized prices it returns; the report carries the
    certificate's residual. A non-finite ``z``, a next price that is not
    finite and positive, or ``cfg.max_iters`` steps without a certificate
    is a `ConvergenceError` with the last iterate and the last ten residuals.
    """
    n = economy.n
    if cfg.initial_prices is not None:
        p = as_price_array(cfg.initial_prices, n)
        p = p / p.sum()
    else:
        p = np.full(n, 1.0 / n)
    name, uncleared = _LOOP_TEXTS[method]
    tail: deque[float] = deque(maxlen=10)
    for it in range(cfg.max_iters + 1):
        z, image = advance(p)
        residual = float(np.abs(z).max())  # NaN or inf when any z is
        if not math.isfinite(residual):
            j = int(np.flatnonzero(~np.isfinite(z))[0])
            raise ConvergenceError(
                f"excess demand of good {j} is not finite at iteration {it}",
                last_iterate=p,
                residual=float("nan"),
                residual_tail=list(tail),
            )
        tail.append(residual)
        if residual <= cfg.tolerance:
            prices = PriceVector.from_unnormalized(p)
            check = verify_equilibrium(economy, prices, cfg.tolerance)
            if check.passed:
                report = SolverReport(
                    method=method,
                    iterations=it,
                    residual=check.residual,
                    converged=True,
                    tolerance=cfg.tolerance,
                    wall_time=time.perf_counter() - start,
                )
                logger.debug("%s converged: %s", name, report)
                return prices, report
            logger.info("residual %.3e certified as %.3e; iterating on", residual, check.residual)
        if it == cfg.max_iters:
            break
        p = image / image.sum()
        # an image entry that is not finite makes the sum, and so a price, NaN
        if not p.min() > 0.0:
            j = int(np.flatnonzero(~np.isfinite(p) | (p <= 0.0))[0])
            raise ConvergenceError(
                f"price of good {j} is {float(p[j])!r} after iteration {it}; {name} diverged",
                last_iterate=p,
                residual=residual,
                residual_tail=list(tail),
            )
    raise ConvergenceError(
        f"{name} {uncleared} in {cfg.max_iters} iterations, residual {residual:.3e}",
        last_iterate=p,
        residual=residual,
        residual_tail=list(tail),
    )


def solve_equilibrium(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Equilibrium prices, by the method the economy calls for.

    When every trader has unit elasticity (rho 0) and every floor is
    positive, `solve_power` iterates the prices for at most n steps,
    O(n·(n + nnz)) in all, far below the dense solve's n³/3
    (``method="power"``). When those steps leave the market uncertified,
    `solve_cobb_douglas` solves it exactly, and its report's wall time runs
    from this call's entry, the n steps included; a zero floor (an undamped
    chain, which may be periodic) goes to it directly. Any other economy
    runs tatonnement.
    """
    cfg = config or SolverConfig()
    if np.any(economy.rho != 0.0):
        return solve_tatonnement(economy, cfg)
    if economy.floor.min() <= 0.0:
        return solve_cobb_douglas(economy, tolerance=cfg.tolerance)
    start = time.perf_counter()
    try:
        return solve_power(economy, cfg.tolerance, max_iters=economy.n)
    except ConvergenceError as exc:
        logger.info("%s; solving in closed form", exc)
    prices, report = solve_cobb_douglas(economy, tolerance=cfg.tolerance)
    return prices, replace(report, wall_time=time.perf_counter() - start)


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
    spread = float(np.ptp(np.stack([p.pi for p in prices]), axis=0).max())
    bound = 10.0 * cfg.tolerance
    unique_regime = bool(np.all(economy.rho >= 0.0))
    return MultistartReport(
        spread=spread,
        bound=bound,
        within_bound=(spread <= bound) if unique_regime else None,
        prices=prices,
        reports=reports,
    )

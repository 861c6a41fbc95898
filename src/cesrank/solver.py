"""Equilibrium computation: closed form, one certified price loop, verification.

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
every method stops on `verify_equilibrium`, which certifies the
excess-demand residual independently of how the prices were found. Every
public solver takes one `SolverConfig`, and `_timed` clocks its report.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import ClearingReport, ConvergenceError, SolverReport
from .economy import CesEconomy, PriceVector, aggregate_demand, as_price_array, build_economy, excess_demand, row_tops
from .problem import RankingProblem

logger = logging.getLogger(__name__)

#: A price loop's map: prices to their excess demand and the unnormalized next prices, new arrays the loop may overwrite.
_PriceMap = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for equilibrium computation.

    ``tolerance`` bounds the max-norm of excess demand at the returned prices.
    ``max_iters`` and ``initial_prices`` are the budget and the start of the
    one price loop, which tatonnement runs with a step derived from the
    economy and `solve_power` at full step.
    """

    tolerance: float = 1e-10
    max_iters: int = 200_000
    initial_prices: PriceVector | None = None

    def __post_init__(self):
        # NaN certifies nothing, inf anything; bool is an int subclass, and True is no tolerance of 1.0 or budget of one step
        if isinstance(self.tolerance, bool) or not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):  # numpy's integers pass; a float fails in `range`
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")


#: A public solver: an economy and its configuration to certified prices and their report.
_Solver = Callable[[CesEconomy, SolverConfig], tuple[PriceVector, SolverReport]]


def _timed(solve: _Solver) -> _Solver:
    """The public solver ``solve``, timed, and called with ``config`` or the default `SolverConfig`.

    A solver it wraps declares ``config=None`` and reads ``config`` as the
    `SolverConfig` passed here. Its report's ``wall_time`` runs from entry
    to return, whatever the call does in between: this is the one clock of
    every solver here.
    """

    @functools.wraps(solve)
    def timed(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
        start = time.perf_counter()
        prices, report = solve(economy, config or SolverConfig())
        return prices, replace(report, wall_time=time.perf_counter() - start)

    return timed


def _require_connected_economy(economy: CesEconomy) -> None:
    """Raise a `ValueError` naming trader 0's component unless the economy graph is strongly connected.

    Edge i -> j iff ``alpha[i][j] > 0``: to every good from a row with a
    positive floor, along the entries otherwise. Two searches over the
    entries, sorted by ``(row, col)``, settle it in O(n + nnz): forward from
    trader 0, where reaching a positive floor reaches every trader, and
    backward from trader 0 and every positive floor, which values it.
    """
    floor, rows, cols = economy.floor, economy.rows, economy.cols
    if floor.min() > 0.0:
        return  # no zero entry: the graph is complete, with self-loops
    to_all, start = floor > 0.0, np.arange(economy.n) == 0
    forward = _reached(rows, cols, start)
    if np.any(forward & to_all):
        forward[:] = True
    order = np.argsort(cols, kind="stable")
    backward = _reached(cols[order], rows[order], start | to_all)
    if not (forward.all() and backward.all()):
        component = np.flatnonzero(forward & backward).tolist()
        raise ValueError(
            f"economy graph is not strongly connected (one component: {component}); "
            "no strictly positive equilibrium is guaranteed; damp with beta < 1 to connect it"
        )


_SCALAR_EDGES = 32  # vertices, and out-edges, below which a level of `_reached` steps in Python scalars


def _reached(heads: np.ndarray, tails: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Mask of the vertices reached from the ``sources`` mask along the edges ``heads[k] -> tails[k]``.

    ``heads`` is sorted, so the out-edges of each vertex are one slice of
    ``tails``. A level with fewer than `_SCALAR_EDGES` vertices and out-edges
    steps one edge at a time over memoryviews, sparing a long path twenty
    array calls per vertex. A wider level costs one gather, its new vertices
    deduplicated through ``slot``, one entry per vertex: each copy writes its
    position there and only the copy whose write stands is kept, whichever
    that is. A level costs O(edges it reaches), with nothing sorted or hashed.
    """
    n = sources.size
    indptr = np.searchsorted(heads, np.arange(n + 1))
    reached = sources.copy()
    slot = np.empty(n, dtype=np.int64)
    ptr, out, seen = memoryview(indptr), memoryview(tails), memoryview(reached)
    frontier = np.flatnonzero(sources)  # an array, or a list after a scalar step
    while len(frontier):
        if len(frontier) < _SCALAR_EDGES and sum(ptr[v + 1] - ptr[v] for v in frontier) < _SCALAR_EDGES:
            found = []
            for v in frontier:
                for t in out[ptr[v] : ptr[v + 1]]:
                    if not seen[t]:
                        seen[t] = True
                        found.append(t)
            frontier = found
            continue
        frontier = np.asarray(frontier, dtype=np.int64)
        lo = indptr[frontier]
        counts = indptr[frontier + 1] - lo
        # lo[k], lo[k] + 1, ..., lo[k] + counts[k] - 1 for every frontier vertex k
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        hit = tails[np.repeat(lo, counts) + within]
        fresh = hit[~reached[hit]]
        position = np.arange(fresh.size)
        slot[fresh] = position
        frontier = fresh[slot[fresh] == position]
        reached[frontier] = True
    return reached


_GTH_BLOCK = 64  # states that `stationary_solve` eliminates together, and the rows of each panel of its update


@np.errstate(over="ignore", invalid="ignore")  # a multiplier past the float range gives a NaN pivot or price, an error below
def stationary_solve(p: np.ndarray) -> np.ndarray:
    """Solve ``pi = P.T @ pi``, ``sum(pi) == 1``, for an irreducible row-stochastic ``p``, in place.

    GTH elimination (Grassmann, Taksar & Heyman, Operations Research 33(5),
    1985) eliminates states n-1, ..., 1, each pivot the sum of its row left
    of the diagonal, and never subtracts: every price is accurate relative to
    itself (O'Cinneide, Numerische Mathematik 65, 1993), and periodic chains
    solve too. Per block of `_GTH_BLOCK` states, the block's rows go state by
    state, the other rows' multipliers follow by a triangular pass, and the
    rest takes its stochastic complement (Meyer, SIAM Review 31(2), 1989) in
    row panels. A pivot that is not positive is a `ConvergenceError`; prices
    past the float range come out 0 or NaN.
    """
    n = p.shape[0]
    for hi in range(n, 1, -_GTH_BLOCK):
        lo = max(hi - _GTH_BLOCK, 1)
        block, rest = p[lo:hi, lo:hi], p[lo:hi, :lo]  # the block's rows, in its own columns and the others
        for k in range(hi - lo - 1, -1, -1):
            rest[k] += block[k, k + 1 :] @ rest[k + 1 :]  # what eliminating the states after k left in row k
            pivot = p[lo + k, : lo + k].sum()  # rest[k], then block[k, :k]
            if not pivot > 0.0:
                raise ConvergenceError(f"closed form: GTH pivot of state {lo + k} is {float(pivot)!r}; the shares are too skewed for floats")
            block[:k, k] /= pivot
            block[:k, :k] += block[:k, k, None] * block[k, :k]
            block[k, k] = pivot  # the diagonal is never read again
        into = p[:lo, lo:hi].T.copy()  # the other rows' multipliers
        for k in range(hi - lo - 1, -1, -1):
            into[k] += block[k + 1 :, k] @ into[k + 1 :]
            into[k] /= block[k, k]
        p[:lo, lo:hi] = into.T
        for r in range(0, lo, _GTH_BLOCK):
            panel = slice(r, min(r + _GTH_BLOCK, lo))
            p[panel, :lo] += into[:, panel].T @ rest
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


@_timed
def solve_cobb_douglas(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Exact equilibrium of an all-unit-elasticity economy, certified or a `ConvergenceError`.

    `stationary_solve` runs in place on the shares (`_shares`), the one n x n
    array built; the report (``"closed_form"``, 1 iteration) carries the
    residual that `verify_equilibrium` certifies at ``config.tolerance``.
    """
    if np.any(economy.rho != 0.0):
        i = int(np.flatnonzero(economy.rho != 0.0)[0])
        raise ValueError(f"trader {i} has rho = {float(economy.rho[i])!r}; closed form needs all zeros")
    floor_share, excess_share = _shares(economy)
    # first: a size too large for the dense solve fails before the connectivity check
    shares = np.repeat(floor_share[:, None], economy.n, axis=1)
    _require_connected_economy(economy)
    shares[economy.rows, economy.cols] += excess_share
    pi = stationary_solve(shares)
    if not pi.min() > 0.0:
        j = int(np.flatnonzero(~(pi > 0.0))[0])
        raise ConvergenceError(f"closed form gives good {j} the price {float(pi[j])!r}; the shares are too skewed for floats", last_iterate=pi)
    prices = PriceVector(pi)
    check = verify_equilibrium(economy, prices, config.tolerance)
    if not check.passed:
        raise ConvergenceError(f"closed form not certified: residual {check.residual:.3e}", last_iterate=pi, residual=check.residual)
    return prices, SolverReport("closed_form", 1, check.residual, config.tolerance)


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


@_timed
def solve_power(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Equilibrium of a damped all-unit-elasticity economy by iterating its prices: PageRank.

    At rho 0 trader i spends the share ``S[i][j] = alpha[i][j] / sum_k
    alpha[i][k]`` of its income ``p[i]`` on good j, so good j's excess demand
    at prices ``p`` is ``(S.T @ p)_j / p_j - 1`` and the market clears where
    ``p = S.T @ p``: tatonnement at full step, and it runs in tatonnement's
    loop, `_iterate`, from ``config.initial_prices`` or the uniform vector.
    With every floor positive, ``p <- S.T @ p`` contracts in L1, at rate
    ``c`` on a `cesrank.economy.web_economy` (Langville & Meyer, "Deeper
    Inside PageRank", 2004), in O(n + nnz) per step on the floors and
    entries. It returns the first certified iterate or raises
    `ConvergenceError`.
    """
    bad = (economy.rho != 0.0) | (economy.floor <= 0.0)
    if np.any(bad):  # the contraction condition
        i = int(np.argmax(bad))
        rho, floor = float(economy.rho[i]), float(economy.floor[i])
        raise ValueError(f"trader {i} has rho = {rho!r} and floor {floor!r}; power iteration needs rho 0, floor > 0")
    n, rows, cols = economy.n, economy.rows, economy.cols
    floor_share, excess_share = _shares(economy)

    def advance(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        image = floor_share @ p + np.bincount(cols, excess_share * p[rows], minlength=n)
        return image / p - 1.0, image

    return _iterate(economy, "power", advance, config)


@_timed
def solve_tatonnement(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Damped multiplicative price adjustment until the market clears.

    Each round updates ``p[j] <- p[j] * demand_j ** gamma`` (supply is 1) and
    renormalizes onto the simplex, with ``gamma = min(0.5, 1 / max(q))``: the
    step shrinks as demand grows more price-elastic, as in bounded-elasticity
    tatonnement (Cole & Fleischer, STOC 2008), and the cap keeps undamped
    periodic graphs at rho <= 0 from cycling. Aggregate demand comes from
    `cesrank.economy.aggregate_demand`, O(nnz) per round on a damped graph.
    After each window of `_WINDOW` rounds whose residuals fall, the next
    round is `_Extrapolation`'s jump along their trend in log prices, undone
    when it does not lower the residual. The rounds run in `_iterate`, which
    stops on a certified equilibrium or raises a `ConvergenceError`, never
    returning a wrong answer. One debug line logs the rounds and the jumps
    kept and undone.
    """
    _require_connected_economy(economy)
    demand_at = aggregate_demand(economy)
    gamma = min(0.5, 1.0 - float(economy.rho.max()))  # 1 - rho = 1 / q

    def advance(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        demand = demand_at(p)
        z = demand - 1.0  # every good's supply is one unit
        demand **= gamma
        return z, np.multiply(demand, p, out=demand)

    extrapolation = _Extrapolation(economy.n)
    try:
        return _iterate(economy, "tatonnement", advance, config, extrapolation)
    finally:
        counts = (extrapolation.steps, extrapolation.accepted, extrapolation.undone)
        logger.debug("tatonnement: %d steps, %d jumps accepted, %d undone", *counts)


#: Iterates in the window that `_Extrapolation` fits; each after the first lowered the residual.
_WINDOW = 6
#: The least squared sine of the angle between a second difference of a window and the span of those before it
#: at which `_Extrapolation` solves the normal equations; below it the differences count as dependent.
_INDEPENDENT = 1e-10


class _Extrapolation:
    """Tatonnement's next iterate, from `_iterate`'s plain one: that, a jump after each contracting window, or an undo.

    `_WINDOW` consecutive iterates ``p_k``, each after the first with a lower
    residual, and their plain images give the log prices ``y[0] = log p_0``
    and ``y[k + 1] = log(image(p_k))`` and the differences ``f[k] = y[k + 1]
    - y[k]``. The jump replaces the last image by the least-squares
    (Anderson type II, or RRE) extrapolation in log prices, ``y[-1] - F @
    c`` with ``F`` the last five ``f`` and ``c`` minimizing ``|f[-1] - dF @
    c|`` over the five second differences ``dF`` (Walker & Ni, SIAM J.
    Numer. Anal. 49(4), 2011; for PageRank, Kamvar et al., WWW 2003). From
    `_WINDOW` goods up ``c`` solves the 5 x 5 normal equations ``dF.T @ dF
    @ c = dF.T @ f[-1]``, at 40% of the cost of `np.linalg.lstsq` or
    less from 10³ goods up, unless a pivot of the Gram matrix's Cholesky factor shows a difference
    nearly in the span of those before it (`_INDEPENDENT`), as on a graph
    whose symmetry leaves a few distinct prices. Such a window, and every
    window of fewer goods, whose five differences are dependent, takes the
    minimum-norm least-squares solution, so that the jump goes by the
    differences the window has and not by rounding errors. The normal
    equations square the condition number, so a poorly conditioned window
    jumps less precisely; the undo below is the safeguard. A window with no
    difference, or a jumped price that is not finite and positive, keeps the
    plain image. A jumped iterate whose residual is not below the residual
    before the jump, or is not finite, is undone: the next iterate is the
    plain image it replaced. Every window starts afresh after a jump, an
    undo, or a residual that did not fall. No plain image and no jump to
    undo is no next iterate.
    """

    def __init__(self, n: int):
        self.logs = np.empty((_WINDOW + 1, n))  # y[0] = log p, then each plain image
        self.count = 0  # rows of ``logs`` in the current window
        self.previous = math.inf  # the residual of the iterate before
        self.pending: tuple[np.ndarray, float] | None = None  # the image a jump replaced, and the residual at its iterate
        self.steps = self.accepted = self.undone = 0

    def __call__(self, p: np.ndarray, plain: np.ndarray | None, residual: float) -> np.ndarray | None:
        self.steps += 1
        logs = self.logs
        if self.pending is not None:
            replaced, before = self.pending
            self.pending = None
            if not residual < before:  # NaN included
                self.undone += 1
                self.count, self.previous = 1, before  # ``logs[0]`` is already the log of ``replaced``
                return replaced
            self.accepted += 1
            self.count = 0
        elif plain is None:
            return None
        if self.count == 0:
            np.log(p, out=logs[0])
            self.count = 1
        elif not residual < self.previous:
            logs[0] = logs[self.count - 1]
            self.count = 1
        self.previous = residual
        np.log(plain, out=logs[self.count])
        self.count += 1
        if self.count <= _WINDOW:
            return plain
        jump = self._jump()
        logs[0] = logs[_WINDOW]
        self.count = 1
        if jump is None:
            return plain
        self.pending = (plain, residual)
        return jump

    def _jump(self) -> np.ndarray | None:
        """The extrapolated next prices of a full window, or None."""
        f = self.logs[1:] - self.logs[:-1]
        d = np.empty_like(f)  # the second differences dF, then the last difference
        np.subtract(f[1:], f[:-1], out=d[:-1])
        d[-1] = f[-1]
        c = _normal_solution(d) if f.shape[1] >= _WINDOW else None
        if c is None:
            c, _, rank, _ = np.linalg.lstsq(d[:-1].T, d[-1])
            if rank == 0:
                return None
        y = self.logs[_WINDOW] - c @ f[1:]
        jump = np.exp(y - y.max(), out=y)
        jump /= jump.sum()
        return jump if jump.min() > 0.0 else None  # NaN included


def _normal_solution(d: np.ndarray) -> np.ndarray | None:
    """The ``c`` minimizing ``|d[-1] - d[:-1].T @ c|``, from the normal equations, or None when the rows of ``d[:-1]`` are nearly dependent.

    One general product gives the Gram matrix and the right-hand side,
    ``d[:-1] @ d.T``; with one BLAS thread it costs a fifth of numpy's
    symmetric product for ``a @ a.T`` and a matrix-vector product from 10³
    to 3·10⁴ goods, and as much at 10⁵. A Cholesky pivot ``L[i][i] ** 2``
    is the squared distance of row i from the span of the rows before it,
    so its ratio to the row's squared norm is the squared sine of that angle.
    """
    product = d[:-1] @ d.T
    gram = product[:, :-1]
    try:
        pivots = np.linalg.cholesky(gram).diagonal()
    except np.linalg.LinAlgError:  # not positive definite: dependent to rounding
        return None
    if not (pivots * pivots >= _INDEPENDENT * gram.diagonal()).all():  # NaN included
        return None
    return np.linalg.solve(gram, product[:, -1])


# how each method's errors name it, and how they say that its budget ran out
_LOOP_TEXTS = {"power": ("power iteration", "did not converge"), "tatonnement": ("tatonnement", "did not clear the market")}


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a demand or price gone non-finite is a ConvergenceError below
def _iterate(
    economy: CesEconomy, method: str, advance: _PriceMap, cfg: SolverConfig, extrapolation: _Extrapolation | None = None
) -> tuple[PriceVector, SolverReport]:
    """The one certified price loop, for ``method`` ``"power"`` or ``"tatonnement"``.

    From ``cfg.initial_prices``, renormalized, or the uniform vector,
    ``advance(p)`` gives the excess demand ``z`` at ``p`` and the
    unnormalized next prices, renormalized in place to the plain next
    iterate when the max-norm residual of ``z`` is finite. An
    ``extrapolation`` may replace that by a jump, or by the plain iterate
    its last jump replaced. The loop stops on the first iterate whose
    residual is within ``cfg.tolerance`` and that `verify_equilibrium`
    certifies at the renormalized prices it returns; the report carries the
    certificate's residual. A non-finite ``z`` with no next iterate, a next
    price that is not finite and positive, a plain step that maps an
    uncertified iterate to itself bit for bit, or
    ``cfg.max_iters`` steps without a certificate is a `ConvergenceError`
    with the last iterate and the last ten finite residuals.
    """
    p = np.ones(economy.n) if cfg.initial_prices is None else as_price_array(cfg.initial_prices, economy.n)
    p = p / p.sum()  # n ones sum to n exactly: the uniform start is 1.0 / n
    name, uncleared = _LOOP_TEXTS[method]
    tail: deque[float] = deque(maxlen=10)

    def failure(message: str, residual: float) -> ConvergenceError:  # with ``p`` as it is when raised
        return ConvergenceError(message, last_iterate=p, residual=residual, residual_tail=list(tail))

    previous = math.nan
    for it in range(cfg.max_iters + 1):
        z, image = advance(p)
        residual = float(np.abs(z, out=z).max())  # NaN or inf when any z is
        finite = math.isfinite(residual)
        if finite:
            tail.append(residual)
        if residual <= cfg.tolerance:
            prices = PriceVector.from_unnormalized(p)
            check = verify_equilibrium(economy, prices, cfg.tolerance)
            if check.passed:
                # the report's wall time is set by `_timed`, after this returns
                logger.debug("%s converged in %d iterations, residual %.3e", name, it, check.residual)
                return prices, SolverReport(method, it, check.residual, cfg.tolerance)
            logger.info("residual %.3e certified as %.3e; iterating on", residual, check.residual)
        if it == cfg.max_iters and finite:
            break
        # a residual that is not finite ends the loop unless there is an iterate to go back to
        plain = np.divide(image, image.sum(), out=image) if finite else None
        following = plain if extrapolation is None else extrapolation(p, plain, residual)
        if following is None:
            j = int(np.flatnonzero(~np.isfinite(z))[0])
            raise failure(f"excess demand of good {j} is not finite at iteration {it}", math.nan)
        # the next iterate is p's own plain image (no jump or undo) and p itself, bit for bit: every later step repeats this one
        if residual == previous and following is plain and np.array_equal(following, p):
            refused = f", certified as {check.residual:.3e}" if residual <= cfg.tolerance else ""
            raise failure(f"{name} stopped moving at iteration {it}, residual {residual:.3e}{refused}", residual)
        previous, p = residual, following
        # an image entry that is not finite makes the sum, and so a price, NaN
        if not p.min() > 0.0:
            j = int(np.flatnonzero(~np.isfinite(p) | (p <= 0.0))[0])
            raise failure(f"price of good {j} is {float(p[j])!r} after iteration {it}; {name} diverged", residual)
    raise failure(f"{name} {uncleared} in {cfg.max_iters} iterations, residual {residual:.3e}", residual)


@_timed
def solve_equilibrium(economy: CesEconomy, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Equilibrium prices, by the method the economy calls for.

    When every trader has unit elasticity (rho 0) and every floor is
    positive, `solve_power` iterates the prices for at most n steps, or
    ``config.max_iters`` if fewer, O(n·(n + nnz)) in all, far below the
    dense solve's n³/3 (``method="power"``). When those steps leave the
    market uncertified, `solve_cobb_douglas` solves it exactly, and its
    report's wall time runs from this call's entry, those steps included;
    a zero floor (an undamped chain, which may be periodic) goes to it
    directly. Any other economy runs tatonnement.
    """
    if np.any(economy.rho != 0.0):
        return solve_tatonnement(economy, config)
    if economy.floor.min() <= 0.0:
        return solve_cobb_douglas(economy, config)
    try:
        return solve_power(economy, replace(config, max_iters=min(economy.n, config.max_iters)))
    except ConvergenceError as exc:
        logger.info("%s; solving in closed form", exc)
    return solve_cobb_douglas(economy, config)


def rank_problem(problem: RankingProblem, config: SolverConfig | None = None) -> tuple[PriceVector, SolverReport]:
    """Full ranking pipeline: normalize, build the economy, solve for prices.

    Strong connectivity of the economy graph is checked once, by the solver.
    """
    return solve_equilibrium(build_economy(problem), config)


def verify_equilibrium(economy: CesEconomy, prices, tolerance: float = SolverConfig.tolerance) -> ClearingReport:
    """Certify a candidate price vector by its excess-demand residual.

    Pure report: passes iff every good's excess demand is within ``tolerance``
    of zero. Since prices are strictly positive, clearing must hold with
    equality, so both surpluses and shortages count against the candidate.
    The excess demand is `cesrank.economy.excess_demand`, evaluated trader
    by trader in O(nnz + n·G) and apart from the solver's kernel. At rho ≠ 0
    it bounds the excess demand only, not the distance to the equilibrium:
    two certified price vectors may differ by about the tolerance, and by
    more on a slow-mixing economy.
    """
    z = excess_demand(economy, prices)
    return ClearingReport(residual=float(np.abs(z).max()), per_good=z, tolerance=float(tolerance))

"""CES exchange economies of the ranking model and their explicit demand system.

An economy has ``n`` traders and ``n`` goods, and trader ``i`` owns one unit
of good ``i``: its income is the price ``p[i]`` of its own good, and every
good's supply is 1. Trader ``i`` has a CES utility
``u_i(x) = (sum_j alpha[i][j] * x[j]**rho[i]) ** (1/rho[i])``. With
``q = 1 / (1 - rho)`` the utility-maximizing bundle at strictly positive
prices ``p`` has the explicit form

    x[i][j] = alpha[i][j]**q / p[j]**q * p[i]
              / sum_k(alpha[i][k]**q * p[k]**(1 - q))

Equivalently the trader spends the budget share
``alpha[i][j]**q * p[j]**(1-q) / sum_k(...)`` on good ``j``.
``rho == 0`` marks the unit-elasticity (Cobb-Douglas) limit, where ``q == 1``
and the budget shares are just the normalized ``alpha`` row.

Demand is homogeneous of degree zero in prices, so these functions accept any
strictly positive price vector, normalized or not.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np

from .markov import TransitionMatrix, _period, require_strongly_connected, support_graph
from .problem import RankingProblem, _validate_alpha, _validate_rho, normalize_preferences

def as_price_array(prices, n: int) -> np.ndarray:
    """Coerce a price input (PriceVector or array-like) to a validated array."""
    arr = np.asarray(getattr(prices, "pi", prices), dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} prices, got shape {arr.shape}")
    bad = ~np.isfinite(arr) | (arr <= 0.0)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(f"price of good {j} is {float(arr[j])!r}; prices must be strictly positive")
    return arr


@dataclass(frozen=True, eq=False)
class PriceVector:
    """Strictly positive prices on the unit simplex; doubles as a ranking vector."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float)
        if pi.ndim != 1:
            raise ValueError(f"prices must form a vector, got shape {pi.shape}")
        bad = ~np.isfinite(pi) | (pi <= 0.0)
        if np.any(bad):
            j = int(np.flatnonzero(bad)[0])
            raise ValueError(f"price of good {j} is {float(pi[j])!r}; must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-10:
            raise ValueError(f"prices sum to {float(pi.sum())!r}, not 1")
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)

    @classmethod
    def from_unnormalized(cls, arr) -> "PriceVector":
        arr = np.asarray(arr, dtype=float)
        return cls(arr / arr.sum())

    @property
    def n(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True, eq=False)
class CesEconomy:
    """The exchange economy of ``n`` CES traders over ``n`` goods, trader i owning good i.

    ``alpha[i][j]`` is trader i's utility coefficient on good j and ``rho[i]``
    the substitution parameter in [-1, RHO_MAX] (0 = unit elasticity), the
    range a `RankingProblem` accepts. Every trader must want something (a
    positive alpha entry). ``endowments``, if given, must be the identity
    matrix: the own-good endowment is the only one this economy has.

    Immutable; demand evaluations are pure functions of (economy, prices).
    """

    alpha: np.ndarray
    rho: np.ndarray
    _: KW_ONLY
    endowments: InitVar[np.ndarray | None] = None

    def __post_init__(self, endowments):
        alpha = np.array(self.alpha, dtype=float)
        _validate_alpha(alpha)
        n = alpha.shape[0]
        dead = alpha.sum(axis=1) == 0.0
        if np.any(dead):
            i = int(np.flatnonzero(dead)[0])
            raise ValueError(f"trader {i} has an all-zero alpha row; demand is undefined")
        rho = np.array(self.rho, dtype=float)
        if rho.ndim == 0:
            rho = np.full(n, float(rho))
        if rho.shape != (n,):
            raise ValueError(f"rho must have length {n}, got shape {rho.shape}")
        _validate_rho(rho)
        if endowments is not None:
            w = np.asarray(endowments, dtype=float)
            if w.shape != (n, n) or np.count_nonzero(w) != n or np.any(np.diagonal(w) != 1.0):
                raise ValueError("endowments must be the identity: trader i owns one unit of good i")
        for a in (alpha, rho):
            a.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def q(self) -> np.ndarray:
        """Per-trader demand exponent 1 / (1 - rho), in [1/2, 20]."""
        return 1.0 / (1.0 - self.rho)


def _demand_rows(economy: CesEconomy, rows: slice, prices: np.ndarray) -> np.ndarray:
    """Demand of the traders in ``rows``: budget shares times own-good income, over prices.

    The shares are evaluated in log space, ``q*log(alpha) + (1-q)*log(p)``,
    shifted by the row max so that the largest term is exp(0): no power of
    alpha or p is formed, so nothing over- or underflows for any exponent or
    scale of alpha. Zero coefficients map to exp(-inf) = 0.
    """
    q = economy.q[rows, None]
    with np.errstate(divide="ignore"):
        t = np.log(economy.alpha[rows])
    t *= q
    t += (1.0 - q) * np.log(prices)
    t -= t.max(axis=1, keepdims=True)
    np.exp(t, out=t)
    t /= t.sum(axis=1, keepdims=True)
    t *= prices[rows, None]
    t /= prices[None, :]
    return t


def cobb_douglas_demand(economy: CesEconomy, trader: int, prices) -> np.ndarray:
    """Demand of a unit-elasticity trader: income split in fixed shares.

    ``x[j] = share[j] * p[trader] / p[j]`` where the shares are the trader's
    alpha row normalized to sum to 1 (the row typically already does). Spends
    the budget exactly; a zero coefficient buys zero regardless of prices.
    """
    if economy.rho[trader] != 0.0:
        raise ValueError(f"trader {trader} has rho = {float(economy.rho[trader])!r}, not 0")
    return ces_demand(economy, trader, prices)


def ces_demand(economy: CesEconomy, trader: int, prices) -> np.ndarray:
    """Utility-maximizing bundle of one trader at the given prices.

    Row ``trader`` of `demand_matrix`, evaluated for that trader alone. The
    bundle satisfies the budget identity ``p . x == p[trader]`` to
    floating-point accuracy.
    """
    if not (0 <= trader < economy.n):
        raise ValueError(f"trader index {trader} out of range [0, {economy.n})")
    p = as_price_array(prices, economy.n)
    return _demand_rows(economy, slice(trader, trader + 1), p)[0]


def demand_matrix(economy: CesEconomy, prices) -> np.ndarray:
    """Demand of every trader at once; row ``i`` equals ``ces_demand(economy, i, prices)``."""
    return _demand_rows(economy, slice(None), as_price_array(prices, economy.n))


def excess_demand(economy: CesEconomy, prices) -> np.ndarray:
    """Aggregate demand minus the unit supply, per good.

    Zero everywhere exactly at an equilibrium price vector. The summation
    order is fixed, so results are bit-for-bit reproducible.
    """
    return demand_matrix(economy, prices).sum(axis=0) - 1.0


def aggregate_demand(economy: CesEconomy) -> Callable[[np.ndarray], np.ndarray]:
    """Aggregate demand ``demand_matrix(economy, p).sum(axis=0)`` in O(nnz + n·G) per call.

    Each alpha row is split once into its floor ``c_i = min_j alpha[i][j]``
    and the excess entries where ``alpha[i][j] > c_i``, with
    ``delta_ij = alpha[i][j]**q_i - c_i**q_i``. This is exact for every
    economy; a damped preference row is its constant ``(1 - beta) / n`` plus
    the input graph's edges, so nnz is the edge count. With ``r = 1 - q``,
    ``w_i = p_i / T_i`` and ``g`` running over the G distinct exponents:

        T_i = c_i**q_i * sum_j p_j**r_i + sum_{j in E_i} delta_ij * p_j**r_i
        d_j = (sum_g p_j**r_g * sum_{i in g} c_i**q_i * w_i
               + sum_{(i, j) in E} delta_ij * p_j**r_i * w_i) / p_j

    Returns a function of a strictly positive price array (not validated:
    this is the solver's inner loop). `demand_matrix` stays the reference
    this kernel is tested against and the certificate the solver reports.
    """
    n = economy.n
    q = economy.q
    q_values, group = np.unique(q, return_inverse=True)
    r = 1.0 - q_values
    # Shares are invariant to the scale of a row. Dividing it by the power of
    # two at or below its max is exact and keeps alpha**q from over- or
    # underflowing for q up to 20.
    top = np.ldexp(1.0, np.frexp(economy.alpha.max(axis=1))[1] - 1)
    floor = economy.alpha.min(axis=1)
    rows, cols = np.nonzero(economy.alpha > floor[:, None])
    floor_q = (floor / top) ** q
    delta = (economy.alpha[rows, cols] / top[rows]) ** q[rows] - floor_q[rows]
    entry = group[rows] * n + cols  # flat index into the (G, n) table of price powers

    def demand(prices: np.ndarray) -> np.ndarray:
        # p_j**r_g in log space, shifted per group so that its largest value
        # is exp(0) = 1; the shift cancels between T_i and d_j.
        m = r[:, None] * np.log(prices)
        powers = np.exp(m - m.max(axis=1, keepdims=True))
        spend = delta * powers.ravel()[entry]
        totals = floor_q * powers.sum(axis=1)[group] + np.bincount(rows, spend, minlength=n)
        w = prices / totals
        floor_spend = np.bincount(group, floor_q * w, minlength=len(r)) @ powers
        return (floor_spend + np.bincount(cols, spend * w[rows], minlength=n)) / prices

    return demand


def markov_to_economy(p: TransitionMatrix) -> CesEconomy:
    """Economy whose equilibrium prices reproduce a chain's stationary distribution.

    State ``i`` becomes a unit-elasticity trader owning one unit of good ``i``
    and valuing good ``j`` with coefficient ``p[i][j]``. Market clearing at
    positive prices then reads ``sum_i p[i][j] * pi[i] = pi[j]``, the
    stationary condition. Requires the chain's support graph to be strongly
    connected so that a strictly positive equilibrium exists; periodic chains
    are accepted with a warning since their unique invariant distribution
    still clears the market.
    """
    if p.matrix.min() <= 0.0:  # else the graph is complete and aperiodic
        graph = support_graph(p.matrix)
        require_strongly_connected(graph, "the chain's support graph", "no strictly positive equilibrium")
        if _period(graph) != 1:
            warnings.warn(
                "the chain is periodic; its invariant distribution is still the "
                "unique market-clearing price vector, but power iteration on the "
                "chain itself would not converge",
                stacklevel=2,
            )
    return CesEconomy(alpha=p.matrix, rho=np.zeros(p.n))


def build_economy(problem: RankingProblem) -> CesEconomy:
    """Economy of a ranking problem: trader i owns good i and has rho[i].

    Trader i values the goods by row i of the damped preference matrix
    ``alpha_hat = normalize_preferences(problem).matrix``. A strictly positive equilibrium needs the economy graph (edge i -> j iff
    ``alpha_hat[i][j] > 0``) to be strongly connected. Damping with
    ``beta < 1`` guarantees this; the solvers check it once, on entry.
    """
    return CesEconomy(normalize_preferences(problem).matrix, problem.rho)

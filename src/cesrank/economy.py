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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .problem import DEFAULT_BETA, DirectedGraph, RankingProblem, _edge_weights, _entries_above, _frozen, _rho_array, _validate_alpha, _validate_beta


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
        pi = as_price_array(pi, pi.size)
        if abs(pi.sum() - 1.0) > 1e-10:
            raise ValueError(f"prices sum to {float(pi.sum())!r}, not 1")
        _frozen(self, pi=pi)

    @classmethod
    def from_unnormalized(cls, arr) -> "PriceVector":
        arr = np.asarray(arr, dtype=float)
        return cls(arr / arr.sum())

    @property
    def n(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True, eq=False, init=False)
class CesEconomy:
    """The exchange economy of ``n`` CES traders over ``n`` goods, trader i owning good i.

    ``alpha[i][j]`` is trader i's utility coefficient on good j and ``rho[i]``
    the substitution parameter in [-1, RHO_MAX] (0 = unit elasticity), the
    range a `RankingProblem` accepts. Every trader must want something (a
    positive alpha entry). ``endowments``, if given, must be the identity
    matrix: the own-good endowment is the only one this economy has.

    The economy holds each alpha row as its floor ``floor[i] = min_j
    alpha[i][j]`` plus the entries strictly above it, ``alpha[rows[k]][cols[k]]
    = values[k]``, sorted by ``(row, col)``; every other entry of row i equals
    ``floor[i]``. A damped preference row is its floor ``(1 - beta) / n`` plus
    the graph's out-edges, so `damped_economy` builds these arrays in
    O(n + edges). The dense ``alpha`` is a constructor input for library
    callers; the economy keeps no copy of it.

    Immutable; demand evaluations are pure functions of (economy, prices).
    """

    rho: np.ndarray
    floor: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __init__(self, alpha, rho, *, endowments=None):
        alpha = np.asarray(alpha, dtype=float)
        _validate_alpha(alpha)
        n = alpha.shape[0]
        dead = alpha.max(axis=1) == 0.0
        if np.any(dead):
            i = int(np.flatnonzero(dead)[0])
            raise ValueError(f"trader {i} has an all-zero alpha row; demand is undefined")
        rho = _rho_array(rho, n)
        if endowments is not None:
            w = np.asarray(endowments, dtype=float)
            if w.shape != (n, n) or np.count_nonzero(w) != n or np.any(np.diagonal(w) != 1.0):
                raise ValueError("endowments must be the identity: trader i owns one unit of good i")
        floor = alpha.min(axis=1)
        rows, cols = _entries_above(alpha, floor[:, None])
        _frozen(self, rho=rho, floor=floor, rows=rows, cols=cols, values=alpha[rows, cols])

    @property
    def n(self) -> int:
        return self.floor.shape[0]

    @property
    def q(self) -> np.ndarray:
        """Per-trader demand exponent 1 / (1 - rho), in [1/2, 20]."""
        return 1.0 / (1.0 - self.rho)


def excess_demand(economy: CesEconomy, prices) -> np.ndarray:
    """Aggregate demand minus the unit supply, per good: the equilibrium certificate.

    Zero everywhere exactly at an equilibrium price vector. Evaluated trader
    by trader from the floors and entries in O(nnz + n·G) (nnz entries, G
    distinct rho values), with nothing of size n x n. With ``r = 1 - q``,
    trader i's log-space terms are ``t_ij = q_i*log(alpha[i][j]) +
    r_i*log(p_j)``, shifted by their row max ``m_i`` so that the largest is
    exp(0); no scale of alpha or p over- or underflows. An entry lies above
    its row's floor, so ``m_i`` is the larger of the entries' max and the
    floor's largest term. The floor's term at good j factors as ``a_i *
    u_g[j]``, with ``top_g = max_j r_g*log(p_j)``, ``a_i = exp(q_i*log(floor_i)
    + top_g - m_i)`` and ``u_g[j] = exp(r_g*log(p_j) - top_g)``, and an entry
    adds ``exp(t_ij - m_i) - a_i * u_g[j]`` to it. So trader i's normalizer is
    ``T_i = a_i * sum_j u_g[j]`` plus its entries' excess, it spends ``w_i =
    p_i / T_i`` per unit of share, and good j receives one rank-one floor term
    per group, ``u_g[j] * sum_{i in g} a_i * w_i``, plus the entries'
    spending, scattered with one bincount. This shares no arithmetic with
    `aggregate_demand`, the kernel it certifies. A rho given as one value
    is a group of one, run by the same lines: a scalar ``q``, a scalar group
    index and entries indexed by good, so that no index as long as the
    entries is built, in O(nnz + n).
    """
    n = economy.n
    p = as_price_array(prices, n)
    rows, cols = economy.rows, economy.cols
    if economy.rho.strides == (0,):  # a rho given as one value (a stride-0 view) is one group
        q = q_entry = 1.0 / (1.0 - economy.rho[0])
        r, group, entry = np.array([1.0 - q]), 0, cols
    else:
        q = economy.q
        r, group = np.unique(1.0 - q, return_inverse=True)
        q_entry, entry = q[rows], group[rows] * n + cols  # flat index into the (G, n) tables
    log_p = r[:, None] * np.log(p)  # r_g * log(p_j), one row per group
    top = log_p.max(axis=1)
    with np.errstate(divide="ignore"):  # a zero floor has no term: exp(-inf) = 0
        floor_top = q * np.log(economy.floor) + top[group]
    t = q_entry * np.log(economy.values) + log_p.take(entry)
    shift = floor_top.copy()
    np.maximum.at(shift, rows, t)
    a = np.exp(floor_top - shift)
    u = np.exp(log_p - top[:, None])
    excess = np.exp(t - shift[rows]) - a[rows] * u.take(entry)
    w = p / (a * u.sum(axis=1)[group] + np.bincount(rows, excess, minlength=n))
    # a scalar group index: the one group's floor spending, summed in trader order as bincount sums it
    floor_spend = np.add.accumulate(a * w)[-1:] if isinstance(group, int) else np.bincount(group, a * w, minlength=r.size)
    spend = floor_spend @ u + np.bincount(cols, excess * w[rows], minlength=n)
    return spend / p - 1.0


def row_tops(economy: CesEconomy) -> np.ndarray:
    """The power of two at or below each alpha row's max: dividing the row by it is exact."""
    row_max = economy.floor.copy()
    np.maximum.at(row_max, economy.rows, economy.values)
    return np.ldexp(1.0, np.frexp(row_max)[1] - 1)


def aggregate_demand(economy: CesEconomy) -> Callable[[np.ndarray], np.ndarray]:
    """Aggregate demand, the column sums of every trader's demand, in O(nnz + n·G) per call.

    Reads each alpha row as the economy holds it, its floor ``c_i`` plus the
    entries above it, with ``delta_ij = alpha[i][j]**q_i - c_i**q_i``. A
    damped preference row is its constant ``(1 - beta) / n`` plus the input
    graph's edges, so nnz is the edge count. With ``r = 1 - q``,
    ``w_i = p_i / T_i`` and ``g`` running over the G distinct exponents:

        T_i = c_i**q_i * sum_j p_j**r_i + sum_{j in E_i} delta_ij * p_j**r_i
        d_j = (sum_g p_j**r_g * sum_{i in g} c_i**q_i * w_i
               + sum_{(i, j) in E} delta_ij * p_j**r_i * w_i) / p_j

    A rho given as one value is a group of one, run by the same lines: a
    scalar ``r``, price powers as one vector indexed by good and the floor's
    spending as one sequential sum, so that a call builds no group or
    edge-sized index, in O(nnz + n). The ufuncs' own reduce and accumulate
    skip the Python wrappers of ``.max()``, ``.sum()`` and ``np.cumsum``,
    about a sixth of a call at n <= 200.

    Returns a function of a strictly positive price array (not validated:
    this is the solver's inner loop). `excess_demand` certifies its result.
    """
    n = economy.n
    q = economy.q
    rows, cols = economy.rows, economy.cols
    # Shares are invariant to the scale of a row; scaled to [1, 2), alpha**q
    # neither over- nor underflows for q up to 20. The exponents are arrays
    # even for one rho: numpy raises to a one-value 0.5, 2 or -1 by other arithmetic.
    top = row_tops(economy)
    floor_q = (economy.floor / top) ** q
    delta = (economy.values / top[rows]) ** q[rows] - floor_q[rows]
    if economy.rho.strides == (0,):  # a rho given as one value (a stride-0 view) is one group
        r, group, entry = 1.0 - q[0], None, cols
    else:
        q_values, group = np.unique(q, return_inverse=True)
        r = (1.0 - q_values)[:, None]
        entry = group[rows] * n + cols  # flat index into the (G, n) table of price powers

    def demand(prices: np.ndarray) -> np.ndarray:
        # p_j**r_g in log space, shifted per group so that its largest value
        # is exp(0) = 1; the shift cancels between T_i and d_j.
        powers = r * np.log(prices)
        powers -= np.maximum.reduce(powers, axis=-1, keepdims=True)
        spend = delta * np.exp(powers, out=powers).take(entry)
        sums = np.add.reduce(powers, axis=-1)
        w = prices / (floor_q * (sums if group is None else sums[group]) + np.bincount(rows, spend, minlength=n))
        spend *= w.take(rows)
        if group is None:  # the floor's spending, summed in trader order as bincount sums it
            d = np.add.accumulate(floor_q * w)[-1] * powers
        else:
            d = np.bincount(group, floor_q * w, minlength=len(r)) @ powers
        d += np.bincount(cols, spend, minlength=n)
        return np.divide(d, prices, out=d)

    return demand


def damped_economy(graph: DirectedGraph, weights: np.ndarray, rho, beta: float) -> CesEconomy:
    """Economy of a weighted graph's damped preference matrix, built from its edges in O(n + edges).

    The one damping rule (Langville & Meyer, "Deeper Inside PageRank", 2004)
    of the web chain (`web_economy`), of a problem's preference matrix and of
    the invariant chain. ``weights`` are positive, finite and aligned with
    the graph's edges, as `cesrank.formats.load_edge_list` returns them. Row
    i is vertex i's out-edges: a row whose sum overflows is first divided by
    its max, a dangling row is the uniform row ``1/n``, every row is divided
    by its sum (in edge order), and each entry is mixed as ``beta * w + (1 -
    beta) / n``.
    A row's floor is ``(1 - beta) / n`` unless it has an edge to every
    vertex; the edges whose damped value rounds to the floor are dropped, as
    the dense ``alpha > floor`` drops them.
    """
    rho, beta = _rho_array(rho, graph.n), _validate_beta(beta)
    return _damped(graph, _edge_weights(graph, weights), rho, beta)


def _damped(graph: DirectedGraph, w: np.ndarray, rho: np.ndarray, beta: float) -> CesEconomy:
    """`damped_economy` of arguments already checked, ``w`` a float64 copy of the weights that it divides in place.

    It freezes the economy's arrays unchecked: the entries come sorted by
    ``(row, col)`` from the graph, each strictly above its row's floor, and
    every row has a positive floor or an entry. Nothing n x n is built.
    """
    n, src, dst = graph.n, graph.src, graph.dst
    sums = np.bincount(src, w, minlength=n)
    huge = ~np.isfinite(sums)
    if np.any(huge):
        on = huge[src]
        row_max = np.zeros(n)
        np.maximum.at(row_max, src[on], w[on])
        w[on] /= row_max[src[on]]
        sums[huge] = np.bincount(src[on], w[on], minlength=n)[huge]
    floor = np.where(sums == 0.0, 1.0 / n, 0.0)
    w /= sums[src]
    if beta < 1.0:
        for a in (w, floor):
            a *= beta
            a += (1.0 - beta) / n
    if src.size >= n:  # a row with an edge to every vertex has no entry at the constant
        full = np.bincount(src, minlength=n) == n
        floor[full] = w[full[src]].reshape(-1, n).min(axis=1)
    keep = w > floor[src]
    return _frozen(CesEconomy.__new__(CesEconomy), rho=rho, floor=floor, rows=src[keep], cols=dst[keep], values=w[keep])


def web_economy(graph: DirectedGraph, c: float = DEFAULT_BETA) -> CesEconomy:
    """Cobb-Douglas economy of a link graph's damped random-surfer chain: its prices are PageRank.

    Row i puts ``c / outdeg[i]`` on each out-edge of vertex i plus the floor
    ``(1 - c) / n`` everywhere; a dangling row is the uniform row ``1 / n``.
    This is `damped_economy` with unit weights, rho 0 and beta ``c``, built
    in O(n + edges). ``c`` must be in (0, 1) and the graph must have no
    self-loop: the chain is defined for link graphs without them.
    """
    c = float(c)
    if not (0.0 < c < 1.0):
        raise ValueError(f"damping c must be in (0, 1), got {c!r}")
    loops = graph.src[graph.src == graph.dst]
    if loops.size:
        raise ValueError(f"self-loop at vertex {int(loops[0])} is not allowed here")
    return _damped(graph, np.ones(graph.src.size), _rho_array(0.0, graph.n), c)


def build_economy(problem: RankingProblem) -> CesEconomy:
    """Economy of a ranking problem: trader i owns good i, has rho[i] and values row i of `damped_economy`.

    A strictly positive equilibrium needs the economy graph (edge i -> j iff
    ``alpha_hat[i][j] > 0``) to be strongly connected. Damping with
    ``beta < 1`` guarantees this; the solvers check it once, on entry.
    """
    return _damped(problem.graph, problem.weights.copy(), problem.rho, problem.beta)

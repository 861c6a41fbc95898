"""Ranking problems, their preference graphs, and their preprocessing.

A ranking problem is a set of agents, a weighted preference graph (edge
i -> j of weight ``alpha[i, j] > 0`` where agent ``i`` endorses agent ``j``),
a per-agent substitution parameter ``rho``, and a damping weight ``beta``.
The graph is a `DirectedGraph`: two edge arrays sorted by ``(src, dst)``,
as `cesrank.formats` parses every document to them.
`cesrank.economy.damped_economy` turns the edges into the damped preference
matrix by the same rule that builds the damped web-surfer chain: fill
all-zero rows with the uniform row, divide each row by its sum, then mix
each row with the uniform row at weight ``1 - beta``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


def _frozen(record, **fields):
    """``record`` with ``fields`` set unchecked, each ndarray among them made read-only: how every frozen record gets its fields."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    vars(record).update(fields)
    return record


def _out_of_order(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The mask of edges ``1..`` not strictly after the edge before by ``(src, dst)``, compared pairwise: ``src * n + dst`` overflows int64 past n = 3e9."""
    return (src[1:] < src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1]))


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """A directed graph on vertices ``0..n-1`` as two edge index arrays.

    Edge ``k`` runs from ``src[k]`` to ``dst[k]``. The edges must come
    sorted by ``(src, dst)`` and distinct, since weights given alongside
    them keep their order; the stored arrays are int64 and read-only.
    Self-loops are representable; `cesrank.economy.web_economy` rejects them.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):  # numpy's integers pass; a float is refused, not truncated
            raise ValueError(f"vertex count must be an integer, got {self.n!r}")
        n = int(self.n)
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        src = np.array(self.src, dtype=np.int64)
        dst = np.array(self.dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError(
                f"src and dst must be vectors of one length, got shapes {src.shape} and {dst.shape}"
            )
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ValueError(f"edge ({src[k]}, {dst[k]}) has a vertex outside [0, {n})")
        unsorted = _out_of_order(src, dst)
        if np.any(unsorted):
            k = int(np.argmax(unsorted)) + 1
            raise ValueError(f"edge ({src[k]}, {dst[k]}) follows ({src[k - 1]}, {dst[k - 1]}); edges must be distinct and sorted by (src, dst)")
        _frozen(self, n=n, src=src, dst=dst)

    @classmethod
    def _trusted(cls, n: int, src: np.ndarray, dst: np.ndarray) -> "DirectedGraph":
        """The graph of ``n >= 1`` vertices and int64 edges that its caller owns and has proven in range, sorted and distinct: frozen unchecked."""
        return _frozen(cls.__new__(cls), n=n, src=src, dst=dst)


def _entries_above(matrix: np.ndarray, floor) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a matrix's entries above ``floor``, a scalar or one per row, row-major."""
    # read flat: numpy's 2-D `np.nonzero` of the same mask costs several times more
    return np.divmod(np.flatnonzero(matrix > floor), matrix.shape[1])


def support_graph(matrix: np.ndarray) -> DirectedGraph:
    """Graph of a square matrix: an edge i -> j wherever ``matrix[i, j] > 0``."""
    if matrix.ndim != 2:
        raise ValueError(f"support_graph needs a 2-D matrix, got shape {matrix.shape}")
    proven = 0 < matrix.shape[1] <= matrix.shape[0]  # read row-major: sorted, distinct, and in range
    return (DirectedGraph._trusted if proven else DirectedGraph)(matrix.shape[0], *_entries_above(matrix, 0.0))


#: Largest accepted rho. Above it the demand exponent 1/(1-rho) exceeds 20 and
#: the demand powers become too steep to evaluate reliably near the
#: linear-utility end. Every rho lies in [-1, RHO_MAX].
RHO_MAX = 0.95

#: Damping weight where a problem or edge list names none, and PageRank's link-following probability.
DEFAULT_BETA = 0.85

#: Smallest nonzero |rho| accepted. rho == 0 is the unit-elasticity
#: (Cobb-Douglas) sentinel: an economy all at rho 0 runs power iteration, then
#: the closed form if that does not certify, or the closed form at once at a
#: zero floor. Values closer to zero than this band would make the exponent
#: 1/(1-rho) indistinguishable from the limit while still being routed to the
#: general formula.
RHO_ZERO_BAND = 1e-9


def _validate_rho(rho: np.ndarray) -> None:
    if np.any(~np.isfinite(rho)):
        i = int(np.flatnonzero(~np.isfinite(rho))[0])
        raise ValueError(f"rho[{i}] is not finite")
    bad = (rho < -1.0) | (rho > RHO_MAX)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"rho[{i}] = {float(rho[i])!r} outside [-1, {RHO_MAX}]")
    in_band = (rho != 0.0) & (np.abs(rho) < RHO_ZERO_BAND)
    if np.any(in_band):
        i = int(np.flatnonzero(in_band)[0])
        raise ValueError(
            f"rho[{i}] = {float(rho[i])!r} is inside the open band (0, {RHO_ZERO_BAND:g}) "
            "around zero; use exactly 0 for unit elasticity"
        )


def _rho_array(rho, n: int) -> np.ndarray:
    """``rho`` as a validated array of one value per agent; a scalar is one read-only value broadcast to all ``n``, O(1) in memory.

    So is an (n,) stride-0 view, as a problem keeps a one-value rho: the
    kernels then take it as one group, as they take the scalar.
    """
    if isinstance(rho, np.ndarray) and rho.strides == (0,) and rho.shape == (n,):
        rho = rho[0]
    rho = np.array(rho, dtype=float)
    if rho.ndim and rho.shape != (n,):
        raise ValueError(f"rho must have length {n}, got shape {rho.shape}")
    # a scalar is checked by scalar comparisons, and `_validate_rho` words what fails them
    if rho.ndim or not (-1.0 <= (x := float(rho)) <= RHO_MAX and (x == 0.0 or abs(x) >= RHO_ZERO_BAND)):
        _validate_rho(rho.reshape(-1))
    return rho if rho.ndim else np.broadcast_to(rho, (n,))


def _validate_beta(beta) -> float:
    """``beta`` as a float, checked to lie in (0, 1]."""
    beta = float(beta)
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    return beta


def _validate_alpha(alpha: np.ndarray) -> None:
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise ValueError(f"alpha must be square, got shape {alpha.shape}")
    # two reductions clear a valid matrix, as a NaN fails both; ``initial`` lets an empty one through
    if not (alpha.min(initial=0.0) >= 0.0 and alpha.max(initial=0.0) < np.inf):
        i, j = (int(k[0]) for k in np.nonzero(~np.isfinite(alpha) | (alpha < 0.0)))
        raise ValueError(f"alpha[{i}][{j}] = {float(alpha[i, j])!r} is negative or not finite")


def _edge_weights(graph: DirectedGraph, weights) -> np.ndarray:
    """``weights`` as a float64 copy, checked to be one per edge of ``graph``, positive and finite."""
    w = np.array(weights, dtype=float)
    if w.shape != graph.src.shape:
        raise ValueError(f"weights must be one per edge: {graph.src.size} edges, got shape {w.shape}")
    bad = ~np.isfinite(w) | (w <= 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(f"edge ({graph.src[k]}, {graph.dst[k]}) has weight {float(w[k])!r}; weights must be positive and finite")
    return w


def _agent_names(ids, agents) -> list[str]:
    """The names of the agents numbered ``agents``: ``ids[k]``, or ``v{k}`` when ``ids`` is None, as for an edge list."""
    return [ids[k] for k in agents] if ids is not None else [f"v{k}" for k in agents]


@dataclass(frozen=True, eq=False, init=False)
class RankingProblem:
    """A ranking problem over ``n`` agents.

    Attributes:
        agent_ids: ordered distinct string identifiers, one per agent, or
            None for agents named ``v{k}`` by `_agent_names`, as in an edge list.
        graph, weights: the edges i -> j where ``alpha[i][j] > 0``, as a
            `DirectedGraph`, and those entries aligned with its edges.
        rho: per-agent substitution parameter in [-1, RHO_MAX] = [-1, 0.95],
            the range `CesEconomy` accepts too; exactly 0 selects the
            unit-elasticity (Cobb-Douglas) case.
        beta: damping weight in (0, 1]; rows are mixed with the uniform row
            at weight ``1 - beta`` during normalization.

    The constructor takes an n x n nonnegative finite ``alpha``, `from_edges`
    the graph and weights; nothing n x n is kept.
    Instances are immutable and safe to share across threads.
    """

    agent_ids: tuple[str, ...] | None
    graph: DirectedGraph
    weights: np.ndarray
    rho: np.ndarray
    beta: float

    def __init__(self, agent_ids, alpha, rho, beta: float = DEFAULT_BETA):
        alpha = np.asarray(alpha, dtype=float)
        _validate_alpha(alpha)
        graph = support_graph(alpha)
        _frozen(self, **_problem_fields(agent_ids, graph, alpha[graph.src, graph.dst], rho, beta))

    @classmethod
    def from_edges(cls, agent_ids, graph: DirectedGraph, weights, rho, beta: float = DEFAULT_BETA) -> "RankingProblem":
        """The problem with ``weights`` on the edges of ``graph``, as `cesrank.formats.load_edge_list` returns them."""
        return cls._trusted(agent_ids, graph, _edge_weights(graph, weights), rho, beta)

    @classmethod
    def _trusted(cls, agent_ids, graph: DirectedGraph, weights: np.ndarray, rho, beta: float) -> "RankingProblem":
        """`from_edges` of float64 ``weights`` already proven one per edge, positive and finite, which it freezes and keeps unchecked."""
        return _frozen(cls.__new__(cls), **_problem_fields(agent_ids, graph, weights, rho, beta))

    @property
    def n(self) -> int:
        return self.graph.n


def _problem_fields(agent_ids, graph: DirectedGraph, weights: np.ndarray, rho, beta) -> dict:
    """The fields of a `RankingProblem`, its ids, rho and beta checked against the graph; the weights as given."""
    if agent_ids is not None:
        agent_ids = tuple(str(a) for a in agent_ids)
        if len(set(agent_ids)) != len(agent_ids):
            raise ValueError("agent_ids must be distinct")
        if graph.n != len(agent_ids):
            raise ValueError(f"alpha is {graph.n}x{graph.n} but there are {len(agent_ids)} agents")
    return dict(agent_ids=agent_ids, graph=graph, weights=weights, rho=_rho_array(rho, graph.n), beta=_validate_beta(beta))

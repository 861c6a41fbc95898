"""Finite Markov chains, their stationary distributions, and graph checks.

Conventions: a transition matrix ``P`` is row-stochastic (``P[i, j]`` is the
probability of moving from state ``i`` to state ``j``) and a stationary
distribution is a column vector fixed point of ``P.T``, i.e. ``pi = P.T @ pi``
with ``sum(pi) == 1``. This is the usual left-eigenvector convention written
for column vectors.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .diagnostics import ConvergenceError, SolverReport, require_tolerance

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """A directed graph on vertices ``0..n-1`` as two edge index arrays.

    Edge ``k`` runs from ``src[k]`` to ``dst[k]``. Whatever order the edges
    come in, the stored arrays are int64, read-only, free of duplicates and
    sorted by ``(src, dst)``. Self-loops are representable;
    `cesrank.economy.web_economy` rejects them.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
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
        # compared pairwise, not through src * n + dst, which overflows int64 past n = 3e9
        if np.any((src[1:] < src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1]))):
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            first = np.ones(src.size, dtype=bool)
            first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst = src[first], dst[first]
        src.flags.writeable = False
        dst.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)


def support_graph(matrix: np.ndarray) -> DirectedGraph:
    """Graph of a square matrix: an edge i -> j wherever ``matrix[i, j] > 0``."""
    src, dst = np.nonzero(matrix > 0.0)
    return DirectedGraph(matrix.shape[0], src, dst)


def owned_frozen_floats(a) -> np.ndarray:
    """``a`` itself if it is an owned float64 array made read-only, else a float64 copy of it.

    Keeping an array its owner has frozen spares an n x n copy; copying
    anything else keeps the caller from changing the result afterwards.
    """
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.base is None and not a.flags.writeable:
        return a
    return np.array(a, dtype=float)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix of a finite Markov chain."""

    matrix: np.ndarray

    def __post_init__(self):
        p = owned_frozen_floats(self.matrix)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {p.shape}")
        if np.any(~np.isfinite(p)) or np.any(p < 0.0):
            bad = np.nonzero(~np.isfinite(p) | (p < 0.0))
            i, j = int(bad[0][0]), int(bad[1][0])
            raise ValueError(f"entry [{i}][{j}] = {float(p[i, j])!r} is negative or not finite")
        row_sums = p.sum(axis=1)
        off = np.abs(row_sums - 1.0)
        if np.any(off > 1e-12):
            i = int(np.argmax(off))
            raise ValueError(f"row {i} sums to {float(row_sums[i])!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "matrix", p)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over states."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float)
        if pi.ndim != 1:
            raise ValueError(f"distribution must be a vector, got shape {pi.shape}")
        if np.any(~np.isfinite(pi)) or np.any(pi < 0.0):
            i = int(np.flatnonzero(~np.isfinite(pi) | (pi < 0.0))[0])
            raise ValueError(f"entry {i} = {float(pi[i])!r} is negative or not finite")
        if abs(pi.sum() - 1.0) > 1e-10:
            raise ValueError(f"entries sum to {float(pi.sum())!r}, not 1")
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)

    @property
    def n(self) -> int:
        return self.pi.shape[0]


def _bfs_levels(n: int, heads: np.ndarray, tails: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first level of every vertex from ``start``, -1 where unreachable.

    Edges run ``heads[k] -> tails[k]`` with ``heads`` sorted, so the out-edges
    of each vertex are one slice of ``tails`` and each level costs one gather.
    """
    indptr = np.searchsorted(heads, np.arange(n + 1))
    level = np.full(n, -1, dtype=np.int64)
    level[start] = 0
    frontier = np.array([start])
    depth = 0
    while frontier.size:
        depth += 1
        lo = indptr[frontier]
        counts = indptr[frontier + 1] - lo
        # lo[k], lo[k] + 1, ..., lo[k] + counts[k] - 1 for every frontier vertex k
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        reached = tails[np.repeat(lo, counts) + within]
        frontier = np.unique(reached[level[reached] < 0])
        level[frontier] = depth
    return level


def _reached_both_ways(graph: DirectedGraph, vertex: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the vertices reachable from ``vertex`` and of those reaching it."""
    order = np.argsort(graph.dst, kind="stable")
    forward = _bfs_levels(graph.n, graph.src, graph.dst, vertex) >= 0
    backward = _bfs_levels(graph.n, graph.dst[order], graph.src[order], vertex) >= 0
    return forward, backward


def is_strongly_connected(graph: DirectedGraph) -> bool:
    """True iff every vertex reaches every other vertex along directed edges."""
    if graph.n == 1:
        return True
    forward, backward = _reached_both_ways(graph, 0)
    return bool(forward.all() and backward.all())


def strongly_connected_component(graph: DirectedGraph, vertex: int = 0) -> list[int]:
    """Vertices of the strongly connected component containing ``vertex``.

    Useful as a witness when strong connectivity fails: the returned component
    is a proper subset of the vertices in that case.
    """
    forward, backward = _reached_both_ways(graph, vertex)
    return np.flatnonzero(forward & backward).tolist()


def require_strongly_connected(graph: DirectedGraph, subject: str, consequence: str, to_all=()) -> None:
    """Raise ``ValueError`` with a witness component unless ``graph`` is strongly connected.

    The message reads "<subject> is not strongly connected (one component:
    [...]); <consequence>". The vertices in ``to_all`` also have an edge to
    every vertex. Those rows are checked in O(n) through one auxiliary vertex
    that they point to and that points to every vertex, which keeps every
    path between the graph's own vertices; it is left out of the witness.
    """
    n = graph.n
    if len(to_all):
        src = np.concatenate([graph.src, to_all, np.full(n, n)])
        dst = np.concatenate([graph.dst, np.full(len(to_all), n), np.arange(n)])
        graph = DirectedGraph(n + 1, src, dst)
    if not is_strongly_connected(graph):
        component = [v for v in strongly_connected_component(graph) if v < n]
        raise ValueError(f"{subject} is not strongly connected (one component: {component}); {consequence}")


def stationary_solve(p: np.ndarray) -> np.ndarray:
    """Solve ``pi = P.T @ pi``, ``sum(pi) == 1`` for a row-stochastic array ``p``.

    One dense linear solve: the last equation of ``(P.T - I) pi = 0`` is
    replaced by the normalization. Raises ``ValueError`` when the system is
    singular (no unique stationary distribution). The result is not
    clipped, renormalized or residual-checked.
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


def stationary_distribution(p: TransitionMatrix, tolerance: float = 1e-12) -> tuple[Distribution, SolverReport]:
    """Stationary distribution ``pi = P.T @ pi`` of a dense row-stochastic chain.

    Solved exactly by ``stationary_solve``, which handles every irreducible
    chain, periodic ones included, where iteration would never converge.
    Returns the distribution together with a report whose method is
    ``"solve"`` and whose residual is ``max |P.T @ pi - pi|``. A damped web
    chain is iterated instead, as a market: see `cesrank.solver.solve_power`.
    """
    require_tolerance(tolerance)
    start = time.perf_counter()
    pi = stationary_solve(p.matrix)
    residual = float(np.abs(p.matrix.T @ pi - pi).max())
    if residual > tolerance:
        raise ConvergenceError(
            f"stationary residual {residual:.3e} exceeds tolerance {tolerance:.3e}",
            last_iterate=pi,
            residual=residual,
        )
    # Clip away solver noise before validating; exact zeros are legitimate
    # for reducible inputs handled by the caller, negatives are not.
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    pi = pi / pi.sum()
    report = SolverReport(
        method="solve",
        iterations=1,
        residual=residual,
        converged=True,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
    )
    logger.debug("stationary_distribution: %s", report)
    return Distribution(pi), report

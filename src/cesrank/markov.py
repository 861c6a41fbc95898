"""Finite Markov chains, the damped web-surfer chain, and graph checks.

Conventions: a transition matrix ``P`` is row-stochastic (``P[i, j]`` is the
probability of moving from state ``i`` to state ``j``) and a stationary
distribution is a column vector fixed point of ``P.T``, i.e. ``pi = P.T @ pi``
with ``sum(pi) == 1``. This is the usual left-eigenvector convention written
for column vectors.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .diagnostics import ConvergenceError, SolverReport, require_tolerance

logger = logging.getLogger(__name__)

#: Default L1 step threshold for power iteration.
POWER_TOL = 1e-12
POWER_MAX_ITERS = 100_000


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """A directed graph on vertices ``0..n-1`` as two edge index arrays.

    Edge ``k`` runs from ``src[k]`` to ``dst[k]``. Whatever order the edges
    come in, the stored arrays are int64, read-only, free of duplicates and
    sorted by ``(src, dst)``. Self-loops are representable; the web-chain
    construction rejects them.
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


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix of a finite Markov chain."""

    matrix: np.ndarray

    def __post_init__(self):
        p = np.array(self.matrix, dtype=float)
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


def _damped_chain(weights: np.ndarray, beta: float) -> TransitionMatrix:
    """Row-normalize nonnegative ``weights`` and damp them towards the uniform row.

    All-zero (dangling) rows become the uniform row ``1/n``, every row is
    divided by its sum, and when ``beta < 1`` every entry is mixed as
    ``beta * w + (1 - beta) / n`` (Langville & Meyer, "Deeper Inside
    PageRank", 2004). This one rule builds both the web-surfer chain and the
    damped preference matrix of a ranking problem. A row whose sum overflows
    is first divided by its max, which leaves its normalized row unchanged.
    ``weights`` must be a writable float array the caller gives up: it is
    overwritten in place.
    """
    n = weights.shape[0]
    with np.errstate(over="ignore"):
        sums = weights.sum(axis=1)
    huge = ~np.isfinite(sums)
    if np.any(huge):
        weights[huge] /= weights[huge].max(axis=1, keepdims=True)
        sums[huge] = weights[huge].sum(axis=1)
    dangling = sums == 0.0
    weights[dangling] = 1.0
    sums[dangling] = n
    weights /= sums[:, None]
    if beta < 1.0:
        weights *= beta
        weights += (1.0 - beta) / n
    return TransitionMatrix(weights)


@dataclass(frozen=True, eq=False)
class WebTransition:
    """Damped random-surfer chain of a directed graph, held as the graph's edges.

    Row ``i`` puts ``c / outdeg[i]`` on each out-edge of ``i`` plus the floor
    ``(1 - c) / n`` everywhere; a dangling row (no out-edge) is the uniform
    row ``1 / n``. Memory and one step ``P.T @ pi`` cost O(n + edges). The
    dense ``matrix`` is built on first access, by the rule of
    ``_damped_chain``, for callers that need every entry.

    ``c`` must be in (0, 1) and the graph must have no self-loop.
    """

    graph: DirectedGraph
    c: float
    outdeg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = float(self.c)
        if not (0.0 < c < 1.0):
            raise ValueError(f"damping c must be in (0, 1), got {c!r}")
        g = self.graph
        loops = g.src[g.src == g.dst]
        if loops.size:
            raise ValueError(f"self-loop at vertex {int(loops[0])} is not allowed here")
        outdeg = np.bincount(g.src, minlength=g.n).astype(float)
        outdeg.flags.writeable = False
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "outdeg", outdeg)

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def matrix(self) -> np.ndarray:
        t = np.zeros((self.n, self.n))
        t[self.graph.src, self.graph.dst] = 1.0
        return _damped_chain(t, self.c).matrix

    def step(self, pi: np.ndarray) -> np.ndarray:
        """One power-iteration step, ``P.T @ pi``, in O(n + edges)."""
        g, c = self.graph, self.c
        flow = np.bincount(g.dst, weights=pi[g.src] / self.outdeg[g.src], minlength=g.n)
        return c * flow + (c * pi[self.outdeg == 0.0].sum() + (1.0 - c) * pi.sum()) / g.n


def build_web_transition(graph: DirectedGraph, c: float = 0.85) -> WebTransition:
    """Damped random-surfer chain of a directed graph.

    Each vertex spreads probability uniformly over its out-neighbors; vertices
    with no outgoing edge (dangling) spread uniformly over all vertices. The
    result is then mixed with the uniform matrix at weight ``1 - c``, which
    makes every entry at least ``(1 - c) / n`` and the chain ergodic.

    Self-loops are rejected: the construction is defined for link graphs
    without them. The chain keeps the graph's edges, not an n x n array.
    """
    return WebTransition(graph, c)


def _stationary_power(chain: WebTransition, tolerance: float, max_iters: int) -> tuple[np.ndarray, int]:
    # The L1 step between successive iterates bounds the max-norm fixed-point
    # defect of the current iterate, so returning `pi` (not `nxt`) guarantees
    # the advertised residual.
    n = chain.n
    pi = np.full(n, 1.0 / n)
    for it in range(max_iters):
        nxt = chain.step(pi)
        if np.abs(nxt - pi).sum() <= tolerance:
            return pi, it
        pi = nxt / nxt.sum()
    residual = float(np.abs(chain.step(pi) - pi).max())
    raise ConvergenceError(
        f"power iteration did not converge in {max_iters} iterations, "
        f"residual {residual:.3e}",
        last_iterate=pi,
        residual=residual,
    )


def stationary_solve(p: np.ndarray) -> np.ndarray:
    """Solve ``pi = P.T @ pi``, ``sum(pi) == 1`` for a row-stochastic array ``p``.

    One dense linear solve: the last equation of ``(P.T - I) pi = 0`` is
    replaced by the normalization. Raises ``ValueError`` when the system is
    singular (no unique stationary distribution). The result is not
    clipped, renormalized or residual-checked.
    """
    n = p.shape[0]
    a = p.T - np.eye(n)
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


def stationary_distribution(
    p: TransitionMatrix | WebTransition,
    tolerance: float = POWER_TOL,
    max_iters: int = POWER_MAX_ITERS,
) -> tuple[Distribution, SolverReport]:
    """Stationary distribution ``pi = P.T @ pi`` of a row-stochastic chain.

    The chain's type picks the method, at every size. A ``WebTransition`` is
    damped, so ``pi <- P.T @ pi`` contracts at rate ``c`` (Langville & Meyer,
    "Deeper Inside PageRank", 2004): it is iterated from the uniform vector
    on the chain's edges, O(n + edges) per step, and needs about
    ``log(tolerance) / log(c)`` of its at most ``max_iters`` steps. A dense
    ``TransitionMatrix`` may be periodic, where iteration never converges, so
    it is solved exactly by ``stationary_solve``, which handles every
    irreducible chain.

    Returns the distribution together with a report whose method is
    ``"power"`` or ``"solve"`` and whose residual is ``max |P.T @ pi - pi|``,
    computed the way the method stepped.
    """
    require_tolerance(tolerance)
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters!r}")
    start = time.perf_counter()
    if isinstance(p, WebTransition):
        method = "power"
        pi, iterations = _stationary_power(p, tolerance, max_iters)
        image = p.step(pi)
    else:
        method = "solve"
        pi, iterations = stationary_solve(p.matrix), 1
        image = p.matrix.T @ pi
    residual = float(np.abs(image - pi).max())
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
        method=method,
        iterations=iterations,
        residual=residual,
        converged=True,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
    )
    logger.debug("stationary_distribution: %s", report)
    return Distribution(pi), report

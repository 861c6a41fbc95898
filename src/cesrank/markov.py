"""Directed graphs on edge arrays, and their strong connectivity.

A Markov chain's support graph, and an economy's (edge i -> j iff trader i
values good j), are held here as sorted edge arrays. The chains themselves
are economies: `cesrank.economy.damped_economy` builds them, and
`cesrank.solver` finds their stationary distributions as equilibrium prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _bfs_levels(n: int, heads: np.ndarray, tails: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first level of every vertex from ``start``, -1 where unreachable.

    Edges run ``heads[k] -> tails[k]`` with ``heads`` sorted, so the out-edges
    of each vertex are one slice of ``tails`` and each level costs one gather.
    A level's new vertices are deduplicated through ``slot``, one entry per
    vertex: each copy writes its position there and only the copy whose
    write stands is kept, whichever that is. A level costs O(edges it
    reaches), with nothing sorted or hashed.
    """
    indptr = np.searchsorted(heads, np.arange(n + 1))
    level = np.full(n, -1, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
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
        fresh = reached[level[reached] < 0]
        position = np.arange(fresh.size)
        slot[fresh] = position
        frontier = fresh[slot[fresh] == position]
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


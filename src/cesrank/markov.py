"""Directed graphs on edge arrays, and reachability along sorted edges.

A Markov chain's support graph, and an economy's (edge i -> j iff trader i
values good j), are held as edge arrays sorted by ``(src, dst)``. The chains
themselves are economies: `cesrank.economy.damped_economy` builds them, and
`cesrank.solver` finds their stationary distributions as equilibrium prices,
after checking the economy graph's strong connectivity with `_reached`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        unsorted = (src[1:] < src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1]))
        if np.any(unsorted):
            k = int(np.argmax(unsorted)) + 1
            raise ValueError(f"edge ({src[k]}, {dst[k]}) follows ({src[k - 1]}, {dst[k - 1]}); edges must be distinct and sorted by (src, dst)")
        src.flags.writeable = False
        dst.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)


def support_graph(matrix: np.ndarray) -> DirectedGraph:
    """Graph of a square matrix: an edge i -> j wherever ``matrix[i, j] > 0``."""
    src, dst = np.nonzero(matrix > 0.0)
    return DirectedGraph(matrix.shape[0], src, dst)


def _reached(heads: np.ndarray, tails: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Mask of the vertices reached from the ``sources`` mask along the edges ``heads[k] -> tails[k]``.

    ``heads`` is sorted, so the out-edges of each vertex are one slice of
    ``tails`` and each breadth-first level costs one gather. A level's new
    vertices are deduplicated through ``slot``, one entry per vertex: each
    copy writes its position there and only the copy whose write stands is
    kept, whichever that is. A level costs O(edges it reaches), with nothing
    sorted or hashed.
    """
    n = sources.size
    indptr = np.searchsorted(heads, np.arange(n + 1))
    reached = sources.copy()
    slot = np.empty(n, dtype=np.int64)
    frontier = np.flatnonzero(sources)
    while frontier.size:
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

"""Seeded inputs for the cesrank benchmark and the references that check outputs.

Every generator is a pure function of ``(workload, seed)``: the same pair gives
the same arrays and the same file bytes. cesrank itself only ever sees what
these functions produce, either as an edge-list file or as numpy arrays.

The reference code here (the damped preference matrix and the sparse PageRank
residual) is written from the definitions (rows normalized, dangling rows
uniform, damping towards the uniform row), not by calling the pipeline under
test, so that a check built on it is independent of the code path that
produced the ranking.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

BETA = 0.85
OUT_DEGREE = 5
DANGLING_SHARE = 0.1

CES_LARGE_N = 1000
CES_LARGE_RHOS = ("0", "0.5", "-0.5")
PAGERANK_LARGE_N = 3000
CES_SMALL_PROBLEMS = 120
CES_SMALL_N = (20, 200)
CES_SMALL_WEIGHTS = (0.5, 3.0)
#: Seeds the fixed (size, rho) pairing of ces-small; see ``_ces_small_design``.
CES_SMALL_DESIGN_SEED = 20091003

WORKLOADS = ("ces-large", "ces-small", "pagerank-large")


@dataclass(frozen=True, eq=False)
class Graph:
    """A directed graph as edge arrays; ``weight`` is None for unit weights."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray | None = None

    def edge_list_text(self) -> str:
        """The edge-list document of an unweighted graph."""
        if self.weight is not None:
            raise ValueError("only unweighted graphs are written as edge lists")
        lines = ["format: 1", f"n {self.n}"]
        lines += [f"{i} {j}" for i, j in zip(self.src.tolist(), self.dst.tolist())]
        return "\n".join(lines) + "\n"

    def dense_weights(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        w[self.src, self.dst] = 1.0 if self.weight is None else self.weight
        return w


@dataclass(frozen=True, eq=False)
class SmallProblem:
    """One ces-small input: a weighted graph and the common rho of its agents."""

    graph: Graph
    rho: float


def rng_for(workload: str, seed: int) -> np.random.Generator:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def random_graph(rng: np.random.Generator, n: int, weighted: bool) -> Graph:
    """``n`` vertices, a tenth of them dangling, the rest with 5 distinct out-edges.

    No self-loops: the PageRank chain construction rejects them.
    """
    dangling = np.zeros(n, dtype=bool)
    dangling[rng.choice(n, size=round(DANGLING_SHARE * n), replace=False)] = True
    src, dst = [], []
    for i in np.flatnonzero(~dangling).tolist():
        targets = rng.choice(n - 1, size=OUT_DEGREE, replace=False)
        targets[targets >= i] += 1
        src.append(np.full(OUT_DEGREE, i))
        dst.append(np.sort(targets))
    src_a = np.concatenate(src)
    dst_a = np.concatenate(dst)
    weight = rng.uniform(*CES_SMALL_WEIGHTS, size=src_a.size) if weighted else None
    return Graph(n, src_a, dst_a, weight)


def _ces_small_design(k: int) -> np.ndarray:
    """Which rho stratum each size stratum meets; -1 marks rho = 0 exactly.

    Sizes and rho values are stratified: each is uniform on its range, but
    the draws fall one per equal-width stratum. The pairing is the same for
    every seed (a fixed shuffle), so every seed holds the same mix of
    (size, rho) cells and the op times of a pass have nearly the same
    distribution. The seed still draws every point inside its cell, every
    graph and weight, and the order of the problems.
    """
    design = np.random.default_rng(CES_SMALL_DESIGN_SEED)
    n_zero = k // 4
    rho_stratum = np.full(k, -1)
    nonzero = np.sort(design.permutation(k)[n_zero:])
    rho_stratum[nonzero] = design.permutation(k - n_zero)
    return rho_stratum


def ces_small_problems(seed: int) -> list[SmallProblem]:
    """120 weighted problems; one in four has rho = 0, the rest rho in [-1, 1)."""
    rng = rng_for("ces-small", seed)
    k = CES_SMALL_PROBLEMS
    lo, hi = CES_SMALL_N
    rho_stratum = _ces_small_design(k)
    n_rho = k - k // 4
    sizes = lo + np.floor((np.arange(k) + rng.random(k)) / k * (hi - lo + 1)).astype(int)
    rhos = np.where(rho_stratum < 0, 0.0, -1.0 + 2.0 * (rho_stratum + rng.random(k)) / n_rho)
    order = rng.permutation(k)
    return [SmallProblem(random_graph(rng, int(sizes[i]), weighted=True), float(rhos[i])) for i in order]


def large_graph(workload: str, seed: int) -> Graph:
    n = {"ces-large": CES_LARGE_N, "pagerank-large": PAGERANK_LARGE_N}[workload]
    return random_graph(rng_for(workload, seed), n, weighted=False)


def damped_preferences(graph: Graph, beta: float = BETA) -> np.ndarray:
    """``alpha_hat``: rows normalized, dangling rows uniform, mixed with uniform at 1 - beta."""
    n = graph.n
    w = graph.dense_weights()
    out = w.sum(axis=1)
    w[out == 0.0] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    return beta * w + (1.0 - beta) / n


def pagerank_residual(graph: Graph, pi: np.ndarray, damping: float = BETA) -> float:
    """Max-norm fixed-point defect of ``pi`` under the damped surfer chain, in O(edges)."""
    n = graph.n
    outdeg = np.bincount(graph.src, minlength=n).astype(float)
    dangling = outdeg == 0.0
    flow = np.bincount(graph.dst, weights=pi[graph.src] / outdeg[graph.src], minlength=n)
    spread = damping * pi[dangling].sum() / n + (1.0 - damping) * pi.sum() / n
    return float(np.abs(damping * flow + spread - pi).max())

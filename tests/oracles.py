"""Independent reference computations used to check the package's answers.

Nothing here imports solver internals: the fixed point iteration, the
grid-search maximizer, and the instance generators are written from the
defining equations alone, so agreement with the package is meaningful. The
text formats are checked against the straightforward per-line and per-agent
code they replaced. `multistart_probe` is no reference: it drives the
package's public `solve_tatonnement` from several starts, to check that the
equilibrium it finds does not depend on where it starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from cesrank.cli import TIE_TOL
from cesrank.economy import CesEconomy, PriceVector, as_price_array
from cesrank.formats import FORMAT_VERSION, DocumentError, _require_index, _require_number
from cesrank.problem import DirectedGraph
from cesrank.solver import SolverConfig, solve_tatonnement


#: Strongly connected weighted edge lists ``(n, [(src, dst, weight), ...])`` with weights
#: over up to 14 orders of magnitude. Their undamped Cobb-Douglas market has prices down
#: to 5e-12 and 5e-20, where a linear solve's absolute error of about 1e-17 is a large
#: relative one: the solve alone leaves excess demand near 1e-7 on the first, and a
#: negative price on the second.
SKEWED_GRAPHS = {
    "three": (3, [(0, 1, 1e-3), (1, 0, 1e8), (1, 2, 1e-3), (2, 0, 1e-2)]),
    "five": (5, [(0, 1, 1e-6), (0, 2, 1e-4), (1, 2, 1e-4), (2, 0, 1e6), (2, 3, 1e-6), (3, 0, 1e8), (3, 4, 10.0), (4, 0, 1.0)]),
}


def skewed_graph(name) -> tuple[DirectedGraph, np.ndarray]:
    """The graph and edge weights of ``SKEWED_GRAPHS[name]``."""
    n, edges = SKEWED_GRAPHS[name]
    src, dst, weights = zip(*edges)
    return DirectedGraph(n, src, dst), np.array(weights)


def skewed_edge_list(name) -> str:
    """``SKEWED_GRAPHS[name]`` as an edge-list document."""
    n, edges = SKEWED_GRAPHS[name]
    return f"format: 1\nn {n}\n" + "".join(f"{i} {j} {w!r}\n" for i, j, w in edges)


def fixed_point_equilibrium(alpha_hat, q, iters=500_000, tol=5e-16):
    """Equilibrium of a common-elasticity economy by plain fixed-point iteration.

    Rearranges market clearing (aggregate demand of good j equals 1) into
    pi_j = (sum_i alpha_hat[i][j]^q * pi_i / D_i)^(1/q) where D_i is trader
    i's price index, and iterates from uniform. Deliberately not tatonnement:
    a different update rule converging to the same point is the evidence.
    """
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    n = alpha_hat.shape[0]
    pi = np.full(n, 1.0 / n)
    aq = alpha_hat**q
    for _ in range(iters):
        price_index = (aq * pi[None, :] ** (1.0 - q)).sum(axis=1)
        new = (aq.T @ (pi / price_index)) ** (1.0 / q)
        new /= new.sum()
        if np.abs(new - pi).max() < tol:
            return new
        pi = new
    raise AssertionError("oracle fixed point did not settle")


def grid_search_demand(alpha_row, rho, prices, income, points=200_001):
    """Best affordable 2-good bundle by brute force along the budget line.

    Evaluates sum_j alpha_j * x_j^rho (a monotone transform of the utility,
    monotone decreasing when rho < 0) on an evenly spaced grid of budget
    exhausting bundles and returns the best one.
    """
    a = np.asarray(alpha_row, dtype=float)
    p = np.asarray(prices, dtype=float)
    assert a.shape == (2,) and p.shape == (2,)
    x1 = np.linspace(0.0, income / p[0], points)
    x2 = np.maximum((income - p[0] * x1) / p[1], 0.0)
    with np.errstate(divide="ignore"):
        if rho == 0:
            # Cobb-Douglas limit: maximize the log utility instead
            score = a[0] * np.log(x1) + a[1] * np.log(x2)
            k = int(np.argmax(score))
        elif rho < 0:
            # x^rho is decreasing and the outer (.)^(1/rho) flips the order
            score = a[0] * x1**rho + a[1] * x2**rho
            k = int(np.argmin(score))
        else:
            score = a[0] * x1**rho + a[1] * x2**rho
            k = int(np.argmax(score))
    return np.array([x1[k], x2[k]])


def _random_edges(rng, n, extra_edge_prob):
    order = rng.permutation(n)
    edges = {(int(order[k]), int(order[(k + 1) % n])) for k in range(n)}
    mask = rng.random((n, n)) < extra_edge_prob
    np.fill_diagonal(mask, False)
    edges.update((int(i), int(j)) for i, j in np.argwhere(mask))
    return edges


def _split(edges):
    edges = sorted(edges)
    return [i for i, _ in edges], [j for _, j in edges]


def random_strongly_connected_graph(rng, n, extra_edge_prob=0.15):
    """Random digraph on n vertices, strongly connected by construction.

    A random Hamiltonian cycle guarantees strong connectivity; extra edges
    are sprinkled on top. No self-loops. Returns ``(n, src, dst)`` with edge
    k running from ``src[k]`` to ``dst[k]``.
    """
    return (n, *_split(_random_edges(rng, n, extra_edge_prob)))


def with_dangling_vertices(rng, n, n_dangling):
    """Random digraph where n_dangling chosen vertices have no out-edges.

    Returns ``(n, src, dst, dangling)``.
    """
    edges = _random_edges(rng, n, 0.15)
    dangling = sorted(int(d) for d in rng.choice(n, size=n_dangling, replace=False))
    return (n, *_split(e for e in edges if e[0] not in dangling), dangling)


def out_regular_edges(rng, n, out_degree=5):
    """Edges ``(i, j)`` where every vertex links to ``out_degree`` distinct others."""
    edges = []
    for i in range(n):
        targets = rng.choice(n - 1, size=out_degree, replace=False)
        targets[targets >= i] += 1
        edges += [(i, int(j)) for j in sorted(targets)]
    return edges


def _successor_sets(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
    return adj


def _reachable_from(n, edges, start):
    """Vertices reachable from ``start`` by plain breadth-first search over (i, j) pairs."""
    adj = _successor_sets(n, edges)
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop(0)
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def component_of(n, edges, vertex):
    """Sorted strongly connected component of ``vertex``: reached from it and reaching it."""
    reversed_edges = [(j, i) for i, j in edges]
    return sorted(_reachable_from(n, edges, vertex) & _reachable_from(n, reversed_edges, vertex))


def economy_component(economy) -> list[int]:
    """Trader 0's strongly connected component in the economy graph, the support of `dense_alpha`."""
    return component_of(economy.n, [(int(i), int(j)) for i, j in np.argwhere(dense_alpha(economy) > 0.0)], 0)


def dense_weights(graph: DirectedGraph, weights: np.ndarray) -> np.ndarray:
    """The n x n matrix of an edge list: ``weights`` on the graph's edges, 0 elsewhere."""
    matrix = np.zeros((graph.n, graph.n))
    matrix[graph.src, graph.dst] = weights
    return matrix


def dense_alpha(economy) -> np.ndarray:
    """The n x n alpha of an economy: each row's floor, with its entries written over it."""
    alpha = np.repeat(economy.floor[:, None], economy.n, axis=1)
    alpha[economy.rows, economy.cols] = economy.values
    return alpha


def _demand_rows(economy, rows: slice, prices: np.ndarray) -> np.ndarray:
    """Demand of the traders in ``rows``: budget shares times own-good income, over prices.

    The shares are evaluated in log space, ``q*log(alpha) + (1-q)*log(p)``,
    shifted by the row max so that the largest term is exp(0): no power of
    alpha or p is formed, so nothing over- or underflows for any exponent or
    scale of alpha. Zero coefficients map to exp(-inf) = 0.
    """
    q = economy.q[rows, None]
    with np.errstate(divide="ignore"):
        t = np.log(dense_alpha(economy)[rows])
    t *= q
    t += (1.0 - q) * np.log(prices)
    t -= t.max(axis=1, keepdims=True)
    np.exp(t, out=t)
    t /= t.sum(axis=1, keepdims=True)
    t *= prices[rows, None]
    t /= prices[None, :]
    return t


def ces_demand(economy, trader: int, prices) -> np.ndarray:
    """Utility-maximizing bundle of one trader at the given prices.

    Row ``trader`` of `demand_matrix`, evaluated for that trader alone. The
    bundle satisfies the budget identity ``p . x == p[trader]`` to
    floating-point accuracy.
    """
    if not (0 <= trader < economy.n):
        raise ValueError(f"trader index {trader} out of range [0, {economy.n})")
    p = as_price_array(prices, economy.n)
    return _demand_rows(economy, slice(trader, trader + 1), p)[0]


def demand_matrix(economy, prices) -> np.ndarray:
    """Demand of every trader at once, n x n: the dense reference of the package's demand kernels.

    Row ``i`` equals ``ces_demand(economy, i, prices)``; the column sums are
    aggregate demand.
    """
    return _demand_rows(economy, slice(None), as_price_array(prices, economy.n))


def column_dominance(alpha_hat: np.ndarray, i: int, j: int) -> tuple[bool, dict]:
    """Does normalized column i sit entrywise below column j, strictly somewhere? Read off the dense matrix."""
    col_i = alpha_hat[:, i]
    col_j = alpha_hat[:, j]
    bad = np.flatnonzero(col_i > col_j)
    if bad.size:
        k = int(bad[0])
        return False, {
            "reason": f"alpha_hat[{k}][{i}] > alpha_hat[{k}][{j}]",
            "row": k,
            "values": [float(col_i[k]), float(col_j[k])],
        }
    if not np.any(col_i < col_j):
        return False, {"reason": f"columns {i} and {j} are identical after normalization"}
    return True, {}


def is_regular(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff all row sums of a square array are equal and all column sums are equal.

    Sums are compared with absolute tolerance ``tol``, each against the first.
    """
    row_sums = matrix.sum(axis=1)
    col_sums = matrix.sum(axis=0)
    return bool(
        np.all(np.abs(row_sums - row_sums[0]) <= tol)
        and np.all(np.abs(col_sums - col_sums[0]) <= tol)
    )


def reference_damped_chain(weights: np.ndarray, beta: float) -> np.ndarray:
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
    return weights


def dense_power_iteration(matrix, tolerance=1e-12, max_iters=100_000):
    """Stationary vector of a row-stochastic array by power iteration on every entry.

    Iterates ``pi <- matrix.T @ pi`` from the uniform vector and returns the
    first iterate whose max relative defect ``max_j |(matrix.T @ pi)_j / pi_j
    - 1|`` is at most ``tolerance``, with the number of steps taken: the
    quantity the market certificate bounds, by which the package's iteration
    on edges stops.
    """
    n = matrix.shape[0]
    pi = np.full(n, 1.0 / n)
    for it in range(max_iters):
        nxt = matrix.T @ pi
        if np.abs(nxt / pi - 1.0).max() <= tolerance:
            return pi, it
        pi = nxt / nxt.sum()
    raise RuntimeError(f"dense power iteration did not converge in {max_iters} iterations")


def random_problem_arrays(rng, n, rho_low=-0.5, rho_high=0.5, zero_prob=0.3, common_rho=False):
    """Random preference matrix (with zero entries, possibly zero rows) and rho."""
    alpha = rng.random((n, n)) * (rng.random((n, n)) > zero_prob)
    if common_rho:
        rho = np.full(n, _round_away_from_band(rng.uniform(rho_low, rho_high)))
    else:
        rho = np.array([_round_away_from_band(rng.uniform(rho_low, rho_high)) for _ in range(n)])
    return alpha, rho


def _round_away_from_band(r, band=1e-9):
    """Keep random rho out of the reserved near-zero band (0 itself is fine)."""
    return 0.0 if abs(r) < band else r


def dominance_instance(rng, n, rho, i, j):
    """Strictly positive alpha where column i is entrywise below column j.

    Row normalization divides each row by its own sum, and damping mixes with
    a constant, so per-row inequalities between columns i and j survive the
    whole preprocessing pipeline.
    """
    alpha = 0.05 + rng.random((n, n))
    alpha[:, j] = alpha[:, i] + 0.05 + rng.random(n)
    return alpha


def dense_tatonnement(demand_matrix, economy):
    """The plain tatonnement loop on the dense n x n demand kernel: `plain_tatonnement` of its column sums."""
    return plain_tatonnement(lambda p: demand_matrix(economy, p).sum(axis=0), economy)


def plain_tatonnement(aggregate_demand, economy):
    """The tatonnement loop at the plain step, without extrapolation.

    Same start (uniform), step rule ``p <- p * d**gamma`` renormalized with
    ``gamma = min(0.5, 1 - max(rho))``, stopping test (1e-10) and budget
    (200 000) as the package's solver with default settings, with the
    aggregate demand ``d = aggregate_demand(p)``. Returns ``(prices,
    iterations)``, with ``prices`` None when a price or a demand stops being
    finite and positive or the budget runs out.
    """
    tolerance, max_iters = 1e-10, 200_000
    gamma = min(0.5, 1.0 - float(economy.rho.max()))
    n = economy.n
    p = np.full(n, 1.0 / n)
    for it in range(max_iters + 1):
        demand = aggregate_demand(p)
        if not np.all(np.isfinite(demand)):
            return None, it
        if float(np.abs(demand - 1.0).max()) <= tolerance:
            return p / p.sum(), it
        if it == max_iters:
            break
        p = p * demand**gamma
        p /= p.sum()
        if not np.all(np.isfinite(p) & (p > 0.0)):
            return None, it
    return None, max_iters


def lstsq_jump(logs):
    """The extrapolated prices of one window of tatonnement's log prices, by `numpy.linalg.lstsq`, or None.

    ``logs`` holds the log prices ``y[0], ..., y[w]`` of a window, one row
    each; ``f[k] = y[k + 1] - y[k]`` and ``dF`` holds the differences of
    consecutive ``f``. The jump is ``exp(y[w] - c @ f[1:])`` on the simplex,
    with ``c`` the minimum-norm minimizer of ``|f[-1] - dF.T @ c|`` from
    `numpy.linalg.lstsq` (Anderson type II, Walker & Ni, SIAM J. Numer.
    Anal. 49(4), 2011). None when ``dF`` has rank 0 or a jumped price is not
    finite and positive.
    """
    f = logs[1:] - logs[:-1]
    df = f[1:] - f[:-1]
    c, _, rank, _ = np.linalg.lstsq(df.T, f[-1])
    if rank == 0:
        return None
    y = logs[-1] - c @ f[1:]
    jump = np.exp(y - y.max())
    jump /= jump.sum()
    return jump if jump.min() > 0.0 else None


@dataclass(frozen=True, eq=False)
class MultistartReport:
    """Spread of equilibria computed from several random interior starts.

    ``within_bound`` compares the spread against 10x the solver tolerance; it
    is ``None`` when some trader has a negative elasticity parameter, where
    uniqueness is not guaranteed and the spread is reported without judgement.
    """

    spread: float
    bound: float
    within_bound: bool | None
    prices: list = field(default_factory=list)
    reports: list = field(default_factory=list)


def multistart_probe(economy: CesEconomy, config: SolverConfig | None = None, k_starts: int = 5) -> MultistartReport:
    """Solve from ``k_starts`` random interior starts and report the spread.

    Always runs the iterative solver (the closed form ignores its start, so
    probing it would be vacuous). For economies where every trader has
    ``rho >= 0`` the equilibrium is unique, and the max pairwise distance
    between the computed equilibria must land within ten times the solver
    tolerance; for some negative rho the spread is reported without judgement.
    The starts come from a fixed seed, so a probe is reproducible. Any
    non-converging start propagates its error.
    """
    cfg = config or SolverConfig()
    if k_starts < 2:
        raise ValueError(f"need at least 2 starts to measure a spread, got {k_starts}")
    rng = np.random.default_rng(0)
    n = economy.n
    prices = []
    reports = []
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


def reference_triplet_alpha(spec, n: int) -> np.ndarray:
    """A triplet ``alpha`` as an n x n array, from one loop that checks each triplet in turn.

    This was the package's triplet parser; it is kept as the reference for
    the order of the checks: shape, each index, duplicate, weight.
    """
    triplets = spec.get("triplets")
    if not isinstance(triplets, list):
        raise DocumentError("sparse alpha must be an object with a 'triplets' list", "alpha")
    alpha = np.zeros((n, n))
    seen: set[tuple[int, int]] = set()
    for k, entry in enumerate(triplets):
        where = f"alpha.triplets[{k}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise DocumentError(f"expected [i, j, weight], got {entry!r}", where)
        i = _require_index(entry[0], where, n)
        j = _require_index(entry[1], where, n)
        if (i, j) in seen:
            raise DocumentError(f"duplicate entry for ({i}, {j})", where)
        seen.add((i, j))
        alpha[i, j] = _require_number(entry[2], where, minimum=0.0)
    return alpha


def reference_load_edge_list(source) -> tuple[DirectedGraph, np.ndarray]:
    """``load_edge_list`` as one loop over the lines, checking each in turn.

    This was the package's parser; it is kept as the independent reference
    for both of its paths, the bytes path and the line loop. It parses an
    edge-list document into a graph and its edge weights.

    Expected layout, with '#' lines and blank lines ignored::

        format: 1
        n 3
        0 1
        1 2 2.5
        2 0

    Indices are 0-based and a missing weight means 1.0. The graph holds an
    edge wherever the weight is strictly positive, and the weight vector is
    aligned with ``graph.src`` / ``graph.dst``; a zero-weight line is left out
    of both. Nothing of size n x n is built.
    """
    text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise DocumentError("empty document, expected a 'format: 1' header")

    lineno, header = lines[0]
    parts = [p.strip() for p in header.split(":", 1)]
    if len(parts) != 2 or parts[0] != "format":
        raise DocumentError(f"expected 'format: {FORMAT_VERSION}' header, got {header!r}", f"line {lineno}")
    if parts[1] != str(FORMAT_VERSION):
        raise DocumentError(f"unsupported format version {parts[1]!r}, expected {FORMAT_VERSION}", f"line {lineno}")

    if len(lines) < 2:
        raise DocumentError("missing 'n <count>' line after the header")
    lineno, size_line = lines[1]
    tokens = size_line.split()
    if len(tokens) != 2 or tokens[0] != "n":
        raise DocumentError(f"expected 'n <count>', got {size_line!r}", f"line {lineno}")
    try:
        n = int(tokens[1])
    except ValueError as e:
        raise DocumentError(f"vertex count {tokens[1]!r} is not an integer", f"line {lineno}") from e
    if n < 1:
        raise DocumentError(f"vertex count must be >= 1, got {n}", f"line {lineno}")
    if n > np.iinfo(np.int64).max:
        raise DocumentError(f"vertex count {n} does not fit a 64-bit index", f"line {lineno}")

    src: list[int] = []
    dst: list[int] = []
    weights: list[float] = []
    first_line: dict[tuple[int, int], int] = {}
    for lineno, line in lines[2:]:
        where = f"line {lineno}"
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise DocumentError(f"expected 'i j [weight]', got {line!r}", where)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError as e:
            raise DocumentError(f"malformed vertex index in {line!r}", where) from e
        for idx in (i, j):
            if not (0 <= idx < n):
                raise DocumentError(f"vertex {idx} out of range [0, {n})", where)
        if (i, j) in first_line:
            raise DocumentError(f"duplicate edge ({i}, {j}), first seen on line {first_line[i, j]}", where)
        first_line[i, j] = lineno
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError as e:
                raise DocumentError(f"malformed weight {tokens[2]!r}", where) from e
            if not math.isfinite(w) or w < 0:
                raise DocumentError(f"weight must be finite and >= 0, got {tokens[2]}", where)
        else:
            w = 1.0
        if w > 0:
            src.append(i)
            dst.append(j)
            weights.append(w)

    # sorted by (src, dst) here, so the graph keeps the arrays as they are
    src_a, dst_a = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    order = np.lexsort((dst_a, src_a))
    return DirectedGraph(n, src_a[order], dst_a[order]), np.array(weights)[order]


def reference_tie_groups(ids, scores, order) -> list[list[str]]:
    """``cli._tie_groups`` as a walk over every agent in ``order``."""
    groups: list[list[int]] = []
    anchor = None
    for k in order:
        if anchor is not None and abs(scores[k] - scores[anchor]) <= TIE_TOL * scores[anchor]:
            groups[-1].append(k)
        else:
            groups.append([k])
            anchor = k
    return [[ids[k] for k in sorted(g)] for g in groups if len(g) > 1]


def reference_ranking_text(ids, scores, report, method: str, fmt: str) -> str:
    """What ``cli._emit_ranking`` writes, built as one dict and encoded by ``json.dumps``; ``ids`` None names agents ``v{k}``."""
    n = len(scores)
    ids = ids if ids is not None else [f"v{k}" for k in range(n)]
    order = sorted(range(n), key=lambda k: (-scores[k], k))
    if fmt == "tsv":
        return "".join(f"{rank}\t{ids[k]}\t{scores[k]:.12g}\n" for rank, k in enumerate(order, start=1))
    doc = {
        "format": 1,
        "method": method,
        "ranking": [
            {"rank": rank, "agent": ids[k], "score": float(scores[k])}
            for rank, k in enumerate(order, start=1)
        ],
        "ties": reference_tie_groups(ids, scores, order),
        "report": report.to_dict(),
    }
    return json.dumps(doc, indent=2) + "\n"

"""On-disk formats: the JSON problem document and the plain-text edge list.

Two formats on purpose. Ranking problems need real-valued preference weights
plus elasticity parameters, which fits a structured JSON document. Link graphs
arrive as edge lists, so those get a line-oriented format that is easy to
produce from a shell. Both carry a leading format version so they can evolve.

All parse failures raise :class:`DocumentError` carrying a human-readable
location (a line number for edge lists, a field path for JSON documents).
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

from .markov import DirectedGraph
from .problem import RankingProblem

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """A document failed to parse or validate.

    ``location`` pinpoints the offending line or field when known.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text(encoding="utf-8")


def _require_number(value, where: str, minimum: float | None = None) -> float:
    # bool is an int subclass; JSON "true" must not pass as 1.0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"expected a number, got {value!r}", where)
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise DocumentError(f"number must be finite, got {value!r}", where)
    if minimum is not None and x < minimum:
        raise DocumentError(f"must be >= {minimum:g}, got {value!r}", where)
    return x


def _require_index(value, where: str, n: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"expected an integer index, got {value!r}", where)
    if not (0 <= value < n):
        raise DocumentError(f"index {value} out of range [0, {n})", where)
    return value


def _parse_dense_alpha(rows, n: int) -> np.ndarray:
    if len(rows) != n:
        raise DocumentError(f"expected {n} rows to match {n} agents, got {len(rows)}", "alpha")
    alpha = np.zeros((n, n))
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentError(f"expected a list of numbers, got {row!r}", f"alpha[{i}]")
        if len(row) != n:
            raise DocumentError(f"row has length {len(row)}, expected {n}", f"alpha[{i}]")
        for j, value in enumerate(row):
            alpha[i, j] = _require_number(value, f"alpha[{i}][{j}]", minimum=0.0)
    return alpha


def _parse_triplet_alpha(spec, n: int) -> np.ndarray:
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


def load_problem(source) -> RankingProblem:
    """Parse a JSON problem document from a path or an open text stream."""
    text = _read_text(source)

    def _reject_constant(token):
        raise DocumentError(f"non-finite number {token} is not allowed")

    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except DocumentError:
        raise
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e.msg}", f"line {e.lineno}") from e
    except (ValueError, RecursionError) as e:  # an integer over the digit limit, or nesting too deep
        raise DocumentError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")

    version = doc.get("format")
    if version is None:
        raise DocumentError("missing 'format' version key")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {version!r}, expected {FORMAT_VERSION}", "format")

    agents = doc.get("agents")
    if not (isinstance(agents, list) and agents and all(isinstance(a, str) for a in agents)):
        raise DocumentError("'agents' must be a non-empty list of strings", "agents")
    n = len(agents)

    raw_alpha = doc.get("alpha")
    if isinstance(raw_alpha, list):
        alpha = _parse_dense_alpha(raw_alpha, n)
    elif isinstance(raw_alpha, dict):
        alpha = _parse_triplet_alpha(raw_alpha, n)
    else:
        raise DocumentError("'alpha' must be a list of rows or a {'triplets': ...} object", "alpha")

    raw_rho = doc.get("rho")
    if isinstance(raw_rho, list):
        if len(raw_rho) != n:
            raise DocumentError(f"expected {n} entries, got {len(raw_rho)}", "rho")
        rho = np.array([_require_number(v, f"rho[{i}]") for i, v in enumerate(raw_rho)])
    else:
        rho = _require_number(raw_rho, "rho")

    beta = _require_number(doc.get("beta", 0.85), "beta")

    try:
        return RankingProblem(tuple(agents), alpha, rho, beta=beta)
    except ValueError as e:
        raise DocumentError(str(e)) from e


def dump_problem(problem: RankingProblem, stream=None) -> str:
    """Serialize a problem to its JSON document form.

    The output reloads to a field-for-field identical problem: floats are
    emitted at full precision and rho collapses to a scalar only when every
    agent shares the value.
    """
    rho = problem.rho
    doc = {
        "format": FORMAT_VERSION,
        "agents": list(problem.agent_ids),
        "alpha": [[float(x) for x in row] for row in problem.alpha],
        "rho": float(rho[0]) if np.unique(rho).size == 1 else [float(r) for r in rho],
        "beta": float(problem.beta),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def load_edge_list(source) -> tuple[DirectedGraph, np.ndarray]:
    """Parse an edge-list document into a graph and its edge weights.

    Expected layout, with '#' lines and blank lines ignored::

        format: 1
        n 3
        0 1
        1 2 2.5
        2 0

    Indices are 0-based and a missing weight means 1.0. The graph holds an
    edge wherever the weight is strictly positive, and the weight vector is
    aligned with ``graph.src`` / ``graph.dst``; a zero-weight line is left out
    of both. Nothing of size n x n is built: ``weight_matrix`` does that for
    the callers that need it.
    """
    text = _read_text(source)
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


def weight_matrix(graph: DirectedGraph, weights: np.ndarray) -> np.ndarray:
    """The n x n weight matrix of an edge list: ``weights`` on the graph's edges, 0 elsewhere."""
    matrix = np.zeros((graph.n, graph.n))
    matrix[graph.src, graph.dst] = weights
    return matrix


def problem_from_edge_list(weights: np.ndarray, rho=0.0, beta: float = 0.85) -> RankingProblem:
    """Wrap an n x n weight matrix (see ``weight_matrix``) as a ranking problem.

    Agents are named ``v0 .. v{n-1}`` in index order, so rankings stay
    traceable back to the vertices of the source graph.
    """
    n = weights.shape[0]
    ids = tuple(f"v{k}" for k in range(n))
    return RankingProblem(ids, weights, rho, beta=beta)


def sniff_and_load(source) -> tuple[RankingProblem | None, tuple[DirectedGraph, np.ndarray] | None]:
    """Load a path or stream as either document kind, by inspecting content.

    JSON documents start with '{'; anything else is treated as an edge list.
    Returns ``(problem, None)`` or ``(None, (graph, weights))``, with
    ``weights`` aligned with the graph's edges as ``load_edge_list`` gives them.
    """
    text = _read_text(source)
    if text.lstrip().startswith("{"):
        return load_problem(io.StringIO(text)), None
    return None, load_edge_list(io.StringIO(text))

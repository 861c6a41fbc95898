"""On-disk formats: the JSON problem document and the plain-text edge list.

Two formats on purpose. Ranking problems need real-valued preference weights
plus elasticity parameters, which fits a structured JSON document. Link graphs
arrive as edge lists, so those get a line-oriented format that is easy to
produce from a shell. Both carry a leading format version so they can evolve.

All parse failures raise :class:`DocumentError` carrying a human-readable
location (a line number for edge lists, a field path for JSON documents).
"""

from __future__ import annotations

import json
import math
import re
import warnings
from itertools import repeat
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


def _parse_triplets(spec, n: int) -> tuple[DirectedGraph, np.ndarray]:
    """The graph and weights of a triplet ``alpha``; a zero weight is no edge, as in an edge list."""
    triplets = spec.get("triplets")
    if not isinstance(triplets, list):
        raise DocumentError("sparse alpha must be an object with a 'triplets' list", "alpha")
    entries: dict[tuple[int, int], float] = {}
    for k, entry in enumerate(triplets):
        where = f"alpha.triplets[{k}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise DocumentError(f"expected [i, j, weight], got {entry!r}", where)
        i = _require_index(entry[0], where, n)
        j = _require_index(entry[1], where, n)
        if (i, j) in entries:
            raise DocumentError(f"duplicate entry for ({i}, {j})", where)
        entries[i, j] = _require_number(entry[2], where, minimum=0.0)
    pairs = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    weights = np.fromiter(entries.values(), float, len(entries))
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    order = order[weights[order] > 0.0]
    return DirectedGraph(n, pairs[order, 0], pairs[order, 1]), weights[order]


def load_problem(source) -> RankingProblem:
    """Parse a JSON problem document from a path or an open text stream."""
    return _parse_problem(_read_text(source))


def _parse_problem(text: str) -> RankingProblem:
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
        edges = _parse_triplets(raw_alpha, n)
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
        if isinstance(raw_alpha, dict):
            return RankingProblem.from_edges(tuple(agents), *edges, rho, beta=beta)
        return RankingProblem(tuple(agents), alpha, rho, beta=beta)
    except ValueError as e:
        raise DocumentError(str(e)) from e


def json_document(head: dict, path: tuple[str, ...], entries: list[str], tail: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, with the list at ``path`` in ``doc`` encoded by the caller.

    ``doc`` is ``{**head, path[0]: {path[1]: ... [entries]}, **tail}``.
    ``entries`` holds each item of the list as ``json.dumps`` writes it there:
    ``2 * (len(path) + 1)`` spaces in, its inner lines deeper. A long list of
    numbers or records so skips the pure-Python encoder that ``indent``
    selects; ``head`` and ``tail`` are short and go through ``json.dumps``,
    and neither is empty. The pieces are joined once, not added in turn: a
    long list is held as its entries, their join and the document, never more.
    """
    depth = len(path)
    keys = "".join(f"\n{'  ' * d}{json.dumps(key)}: {'{' if d < depth else '['}" for d, key in enumerate(path, 1))
    items = ("\n", ",\n".join(entries), f"\n{'  ' * depth}]") if entries else ("]",)
    closing = "".join(f"\n{'  ' * d}}}" for d in range(depth - 1, 0, -1))
    opening = json.dumps(head, indent=2)[:-2] + "," + keys
    return "".join((opening, *items, closing, ",", json.dumps(tail, indent=2)[1:], "\n"))


#: One triplet of a problem document's ``alpha``, as ``json.dumps(..., indent=2)`` writes it there.
_JSON_TRIPLET = "      [\n        {},\n        {},\n        {}\n      ]".format


def dump_problem(problem: RankingProblem, stream=None) -> str:
    """Serialize a problem to its JSON document form, with ``alpha`` as triplets of its edges.

    The output reloads to a field-for-field identical problem: floats are
    emitted at full precision and rho collapses to a scalar only when every
    agent shares the value. It is O(n + edges), whatever the problem's size.
    """
    graph, rho = problem.graph, problem.rho
    head = {"format": FORMAT_VERSION, "agents": list(problem.agent_ids)}
    triplets = list(map(_JSON_TRIPLET, graph.src.tolist(), graph.dst.tolist(), map(float.__repr__, problem.weights.tolist())))
    tail = {
        "rho": float(rho[0]) if (rho == rho[0]).all() else [float(r) for r in rho],
        "beta": problem.beta,
    }
    text = json_document(head, ("alpha", "triplets"), triplets, tail)
    if stream is not None:
        stream.write(text)
    return text


def _convert_prefix(convert, tokens) -> tuple[list, int | None]:
    """``convert`` mapped over ``tokens`` up to the first token it rejects with ValueError.

    Returns the converted prefix and the index of the rejected token, or None
    when every token converts. ``list.extend`` keeps what it appended before
    the iterator raised, so that index is the length of the prefix.
    """
    values: list = []
    try:
        values.extend(map(convert, tokens))
    except ValueError:
        return values, len(values)
    return values, None


# the line breaks of ``str.splitlines``, with "\r\n" tried first so that it is one break
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# a whole-line comment after a '\n'; it ends before the next ASCII break of
# ``str.splitlines``, which the bytes path then rejects unless it is a '\n'
_COMMENT = re.compile(rb"\n[ \t]*#[^\n\r\x0b\x0c\x1c\x1d\x1e]*")


def _edge_list_head(text: str) -> tuple[int, int, int]:
    """The vertex count of an edge list, the offset of the text after its size line, and the lines up to there.

    Lines are read one at a time, with the breaks of ``str.splitlines``, only
    until the ``format`` header and the ``n <count>`` line are found, so a
    long body costs nothing here. '#' lines and blank lines are skipped.
    """
    head: list[tuple[int, str]] = []
    pos = read = 0
    while len(head) < 2:
        brk = _LINE_BREAK.search(text, pos)
        line = text[pos : brk.start() if brk else len(text)].strip()
        read += 1
        if line and not line.startswith("#"):
            head.append((read, line))
        if brk is None:
            pos = len(text)
            break
        pos = brk.end()
    if not head:
        raise DocumentError("empty document, expected a 'format: 1' header")

    lineno, header = head[0]
    parts = [p.strip() for p in header.split(":", 1)]
    if len(parts) != 2 or parts[0] != "format":
        raise DocumentError(f"expected 'format: {FORMAT_VERSION}' header, got {header!r}", f"line {lineno}")
    if parts[1] != str(FORMAT_VERSION):
        raise DocumentError(f"unsupported format version {parts[1]!r}, expected {FORMAT_VERSION}", f"line {lineno}")

    if len(head) < 2:
        raise DocumentError("missing 'n <count>' line after the header")
    lineno, size_line = head[1]
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
    return n, pos, read


def _edge_bytes(text: str, start: int, n: int) -> tuple[DirectedGraph, np.ndarray] | None:
    """The edges of ``text[start:]`` read from its bytes, or None when the line parser must read them.

    This path takes a body of ASCII digits, spaces, tabs, '\n' and '.eE+-'
    with 0, 2 or 3 tokens on each line and digits only in the indices, once
    its whole-line '#' comments are blanked, and every check runs over all
    bytes or tokens at once. Whatever it cannot prove valid, from a '\r' or
    a '#' after a token to a duplicate edge, it leaves to ``_edge_lines``,
    the one source of error messages; on what it accepts the two give the
    same arrays.
    """
    if not text.isascii():
        return None
    body = text[start:].encode("ascii")
    if b"#" in body:
        body = _COMMENT.sub(b"\n", b"\n" + body)
    raw = np.frombuffer(body, np.uint8)
    line_break = raw == ord("\n")
    blank = line_break | (raw == ord(" ")) | (raw == ord("\t"))
    # uint8 wraps below '0', so only the ten digits land under 10
    odd = np.flatnonzero(~blank & ((raw - ord("0")) >= 10))
    floating = odd.size > 0
    if floating:
        odd_bytes, allowed = raw[odd], np.zeros(odd.size, dtype=bool)
        for byte in b".eE+-":
            allowed |= odd_bytes == byte
        if not allowed.all():
            return None
    first = ~blank
    first[1:] &= blank[:-1]
    starts = np.flatnonzero(first)
    del first
    # tokens before each line break, so line k holds tokens bounds[k] .. bounds[k + 1]
    bounds = np.concatenate(([0], np.searchsorted(starts, np.flatnonzero(line_break)), [starts.size]))
    del line_break
    counts = np.diff(bounds)
    if ((counts == 1) | (counts > 3)).any():
        return None
    lines = counts > 0
    head, counts = bounds[:-1][lines], counts[lines]
    del bounds, lines
    weight_at = head[counts == 3] + 2
    if floating:
        # every '.eE+-' byte must sit in a weight token
        is_weight = np.zeros(starts.size, dtype=bool)
        is_weight[weight_at] = True
        if not is_weight[np.searchsorted(starts, odd, side="right") - 1].all():
            return None
        del is_weight
    tokens = starts.size
    del blank, raw, starts
    # numpy 1.x warns on data it cannot parse, where numpy 2 raises
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(body, dtype=float if floating else np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    del body
    if values.size != tokens:
        return None
    # an integer past the int64 range parses as its largest value, so every
    # value from 10**18 up is left to the line parser
    if not floating and values.max(initial=0) >= 10**18:
        return None
    src, dst = values[head], values[head + 1]
    # a float index is exact below 2**53
    limit = min(n, 2**53) if floating else n
    if src.size and max(src.max(), dst.max()) >= limit:
        return None
    weights = np.ones(head.size)
    weights[counts == 3] = values[weight_at]
    del values
    if floating:
        src, dst = src.astype(np.int64), dst.astype(np.int64)
        if not (np.isfinite(weights).all() and (weights >= 0).all()):
            return None
    # strictly increasing (src, dst) pairs are sorted and free of duplicates
    if not ((src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] > dst[:-1]))).all():
        order = np.lexsort((dst, src))
        src, dst, weights = src[order], dst[order], weights[order]
        if ((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])).any():
            return None
    keep = weights > 0
    return DirectedGraph(n, src[keep], dst[keep]), weights[keep]


def _edge_lines(body: str, n: int, lines_before: int) -> tuple[DirectedGraph, np.ndarray]:
    """The edges of ``body``, the text after an edge list's size line, which holds line ``lines_before`` of the document.

    A malformed body is reported at its first offending line in file order.
    Each check runs over all edge lines at once, and on one line the checks
    rank as: token count, index syntax, index range, duplicate edge, weight
    syntax, weight value.
    """
    lines = body.splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    # a comment is a line that starts with '#' once stripped
    comment = np.fromiter(map(str.startswith, map(str.lstrip, lines), repeat("#")), bool, len(lines))
    del lines
    # edge line k is line lines_before + at[k] + 1 of the document
    at = np.flatnonzero((counts > 0) & ~comment)
    # every line break is whitespace to str.split, so the tokens of edge line
    # k are flat[starts[k] : starts[k] + counts[k]]; the edge lines live on as
    # tokens, and one that is quoted in an error is cut from the text again
    flat = body.split()
    counts, starts = counts[at], (np.cumsum(counts) - counts)[at]
    # ``stop`` is the first offending edge line found so far and ``error`` its
    # message. Each check looks only at the lines before ``stop``, so it can
    # only move it earlier, and on one line the check made first wins.
    stop, error = len(at), None

    bad = (counts < 2) | (counts > 3)
    if bad.any():
        stop = int(np.argmax(bad))
        error = f"expected 'i j [weight]', got {body.splitlines()[at[stop]].strip()!r}"

    # indices as Python ints, i and j of each line in turn; ranges are checked
    # before the cast to int64, so a huge index is reported, not overflowed
    ij, bad_at = _convert_prefix(int, map(flat.__getitem__, (starts[:stop, None] + [0, 1]).ravel().tolist()))
    # the weight tokens are cut out here too, so the token list is freed
    # before any array of the edges is built
    weight_at = np.flatnonzero(counts[:stop] == 3)
    raw_weights = list(map(flat.__getitem__, (starts[weight_at] + 2).tolist()))
    del flat
    if bad_at is not None:
        stop = bad_at // 2
        error = f"malformed vertex index in {body.splitlines()[at[stop]].strip()!r}"
    del ij[2 * stop :]
    if ij and not (min(ij) >= 0 and max(ij) < n):
        t = int(np.argmin(np.fromiter(map(range(n).__contains__, ij), bool, len(ij))))
        stop, error = t // 2, f"vertex {ij[t]} out of range [0, {n})"
        del ij[2 * stop :]
    pairs = np.array(ij, dtype=np.int64).reshape(-1, 2)
    del ij
    src, dst = pairs[:, 0], pairs[:, 1]

    # the one sort keeps equal pairs in file order, so the earliest repeat
    # follows the line it repeats
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    repeats = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if repeats.any():
        later, earlier = order[1:][repeats], order[:-1][repeats]
        r = int(np.argmin(later))
        stop = int(later[r])
        error = f"duplicate edge ({pairs[stop, 0]}, {pairs[stop, 1]}), first seen on line {lines_before + at[earlier[r]] + 1}"

    # only the weights of the lines before ``stop`` are read
    before = int(np.searchsorted(weight_at, stop))
    weight_at, raw_weights = weight_at[:before], raw_weights[:before]
    values, bad_at = _convert_prefix(float, raw_weights)
    if bad_at is not None:
        stop, error = int(weight_at[bad_at]), f"malformed weight {raw_weights[bad_at]!r}"
    values = np.array(values, dtype=float)
    bad = ~np.isfinite(values) | (values < 0)
    if bad.any():
        k = int(np.argmax(bad))
        stop, error = int(weight_at[k]), f"weight must be finite and >= 0, got {raw_weights[k]}"

    if error is not None:
        raise DocumentError(error, f"line {lines_before + at[stop] + 1}")

    weights = np.ones(len(at))
    weights[weight_at] = values
    weights = weights[order]
    # sorted by (src, dst) here, so the graph keeps the arrays as they are
    keep = weights > 0
    return DirectedGraph(n, src[keep], dst[keep]), weights[keep]


def _parse_edge_list(text: str) -> tuple[DirectedGraph, np.ndarray]:
    n, start, lines_before = _edge_list_head(text)
    edges = _edge_bytes(text, start, n)
    return edges if edges is not None else _edge_lines(text[start:], n, lines_before)


def load_edge_list(source) -> tuple[DirectedGraph, np.ndarray]:
    """Parse an edge-list document, from a path or an open text stream, into a graph and its edge weights.

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

    A malformed document is reported at its first offending line in file
    order. A well-formed body of ASCII digits and '#' lines, split by line
    feeds alone, is read from its bytes in a few array passes; any other body goes
    line by line, to the same arrays.
    """
    return _parse_edge_list(_read_text(source))


def sniff_and_load(source) -> tuple[RankingProblem | None, tuple[DirectedGraph, np.ndarray] | None]:
    """Load a path or stream as either document kind, by inspecting content.

    JSON documents start with '{'; anything else is treated as an edge list.
    Returns ``(problem, None)`` or ``(None, (graph, weights))``, with
    ``weights`` aligned with the graph's edges as ``load_edge_list`` gives them.
    """
    text = _read_text(source)
    if text.lstrip().startswith("{"):
        return _parse_problem(text), None
    return None, _parse_edge_list(text)

"""On-disk formats: the JSON problem document and the plain-text edge list.

Two formats on purpose. Ranking problems need real-valued preference weights
plus elasticity parameters, which fits a structured JSON document. Link graphs
arrive as edge lists, so those get a line-oriented format that is easy to
produce from a shell. Both carry a leading format version so they can evolve.

All parse failures raise :class:`DocumentError` carrying a human-readable
location (a line number for edge lists, a field path for JSON documents).
"""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings
from array import array
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from .problem import DEFAULT_BETA, DirectedGraph, RankingProblem, _agent_names, _out_of_order

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """A document failed to parse or validate.

    ``location`` pinpoints the offending line or field when known.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _read_text(source) -> str:
    """The text of a path or stream, without one leading byte order mark, which RFC 8259 §8.1 lets a reader ignore."""
    text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
    return text.removeprefix("\ufeff")


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


def _edge_graph(n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray) -> tuple[DirectedGraph, np.ndarray] | None:
    """The graph and weights of every reader's int64 edges ``src -> dst`` in ``range(n)``, sorted, zero weights left out; None if a pair repeats."""
    # strictly increasing (src, dst) pairs are sorted and free of duplicates, and keep their order
    if _out_of_order(src, dst).any():
        order = np.lexsort((dst, src))
        src, dst, weights = src[order], dst[order], weights[order]
        if _out_of_order(src, dst).any():  # sorted, an edge out of order repeats the one before it
            return None
    keep = weights > 0
    return DirectedGraph._trusted(n, src[keep], dst[keep]), weights[keep]


def _parse_dense_alpha(rows, n: int) -> tuple[DirectedGraph, np.ndarray]:
    """The graph and weights of a dense ``alpha``: its positive entries, row by row, as `_parse_triplets` gives them."""
    if len(rows) != n:
        raise DocumentError(f"expected {n} rows to match {n} agents, got {len(rows)}", "alpha")
    src, dst, weights = array("q"), array("q"), array("d")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentError(f"expected a list of numbers, got {row!r}", f"alpha[{i}]")
        if len(row) != n:
            raise DocumentError(f"row has length {len(row)}, expected {n}", f"alpha[{i}]")
        for j, value in enumerate(row):
            w = _require_number(value, f"alpha[{i}][{j}]", minimum=0.0)
            if w > 0.0:
                src.append(i)
                dst.append(j)
                weights.append(w)
    return _edge_graph(n, np.frombuffer(src, np.int64), np.frombuffer(dst, np.int64), np.frombuffer(weights))


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
    return _edge_graph(n, pairs[:, 0], pairs[:, 1], np.fromiter(entries.values(), float, len(entries)))


def load_problem(source) -> RankingProblem:
    """Parse a JSON problem document from a path or an open text stream.

    ``alpha`` as rows or as triplets parses to the graph of its positive
    entries and their weights, for `RankingProblem.from_edges`.
    """
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
        edges = _parse_dense_alpha(raw_alpha, n)
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

    beta = _require_number(doc.get("beta", DEFAULT_BETA), "beta")

    try:
        return RankingProblem._trusted(tuple(agents), *edges, rho, beta)
    except ValueError as e:
        raise DocumentError(str(e)) from e


def json_document(head: dict, path: tuple[str, ...], items: Iterator[str], tail: dict) -> Iterator[str]:
    """The pieces of ``json.dumps(doc, indent=2) + "\\n"``, with the list at ``path`` in ``doc`` encoded by the caller.

    ``doc`` is ``{**head, path[0]: {path[1]: ... [items]}, **tail}``.
    ``items`` yields the list's items as ``json.dumps`` writes them there,
    ``2 * (len(path) + 1)`` spaces in with their inner lines deeper, joined by
    ``",\\n"`` and cut anywhere: `_row_blocks` gives them so. A long list of
    numbers or records so skips the pure-Python encoder that ``indent``
    selects; ``head`` and ``tail`` are short and go through ``json.dumps``,
    and neither is empty. Both are encoded, and the first piece of ``items``
    drawn, before this returns, so whatever can fail fails before the first
    piece is written; the pieces are never joined here.
    """
    depth = len(path)
    keys = "".join(f"\n{'  ' * d}{json.dumps(key)}: {'{' if d < depth else '['}" for d, key in enumerate(path, 1))
    opening = json.dumps(head, indent=2)[:-2] + "," + keys
    closing = "".join(f"\n{'  ' * d}}}" for d in range(depth - 1, 0, -1)) + "," + json.dumps(tail, indent=2)[1:] + "\n"
    first = next(items, None)
    if first is None:
        return iter((opening, "]", closing))
    return itertools.chain((opening, "\n", first), items, (f"\n{'  ' * depth}]", closing))


#: Rows per block of `_row_blocks`: a block's text and lists stay within a few hundred KiB.
_BLOCK = 4096


def _row_blocks(entry: str, sep: str, n: int, columns: Callable[[int, int], tuple]) -> Iterator[str]:
    """``sep.join(entry % row for row in rows)`` over ``n`` rows, as pieces of at most `_BLOCK` rows.

    ``columns(lo, hi)`` gives rows ``lo .. hi - 1`` as one iterable per ``%``
    field of ``entry``. Each block is one ``%`` over a template of its rows,
    built once for every full block, so no string is made per row; ``sep``
    goes between blocks as its own piece.
    """
    size = min(n, _BLOCK)
    template = sep.join([entry] * size)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        fields = columns(lo, hi)
        values = [None] * (len(fields) * (hi - lo))
        for k, column in enumerate(fields):
            values[k :: len(fields)] = column
        if lo:
            yield sep
        yield (template if hi - lo == size else sep.join([entry] * (hi - lo))) % tuple(values)


#: One triplet of a problem document's ``alpha``, as ``json.dumps(..., indent=2)`` writes it there.
_JSON_TRIPLET = "      [\n        %d,\n        %d,\n        %r\n      ]"


def dump_problem(problem: RankingProblem) -> str:
    """Serialize a problem to its JSON document form, with ``alpha`` as triplets of its edges.

    The output reloads to a field-for-field identical problem: floats are
    emitted at full precision and rho collapses to a scalar only when every
    agent shares the value. It is O(n + edges), whatever the problem's size.
    """
    graph, rho, weights = problem.graph, problem.rho, problem.weights
    head = {"format": FORMAT_VERSION, "agents": _agent_names(problem.agent_ids, range(problem.n))}
    tail = {
        "rho": float(rho[0]) if (rho == rho[0]).all() else [float(r) for r in rho],
        "beta": problem.beta,
    }

    def triplets(lo, hi):
        return graph.src[lo:hi].tolist(), graph.dst[lo:hi].tolist(), weights[lo:hi].tolist()

    return "".join(json_document(head, ("alpha", "triplets"), _row_blocks(_JSON_TRIPLET, ",\n", graph.src.size, triplets), tail))


# a '#' comment up to its line break; it stops before any ASCII break of
# ``str.splitlines``, and the bytes path rejects every such break but '\n'
_COMMENT_TEXT = rb"#[^\n\r\x0b\x0c\x1c\x1d\x1e]*"
# the header of an edge list as the bytes path takes it: 'format: 1' and
# 'n <count>', each after any blank and whole-line comment lines, with only
# spaces and tabs for blank space and a count that fits int64 whatever its digits
_SKIPPED = rb"(?:[ \t]*(?:" + _COMMENT_TEXT + rb")?\n)*"
_HEAD = re.compile(
    _SKIPPED + rb"[ \t]*format[ \t]*:[ \t]*" + str(FORMAT_VERSION).encode()
    + rb"[ \t]*\n" + _SKIPPED + rb"[ \t]*n[ \t]+([0-9]{1,18})[ \t]*(?:\n|\Z)"
)
# a whole-line comment in the body, after the '\n' that ends the line before it
_COMMENT = re.compile(rb"\n[ \t]*" + _COMMENT_TEXT)


def _edge_bytes(text: str) -> tuple[DirectedGraph, np.ndarray] | None:
    r"""The edge list ``text`` read from its bytes, or None when ``_edge_lines`` must read it.

    This path takes a header that ``_HEAD`` matches and a body of ASCII
    digits, spaces, tabs, '\n' and '.eE+-' with 0, 2 or 3 tokens on each
    line and digits only in the indices, once its whole-line '#' comments are
    blanked. A comment may hold any text but the line breaks '\x85',
    '\u2028' and '\u2029'. Every check runs over all bytes or tokens at once.
    Whatever it cannot prove valid, from a '\r' or a '#' after a token to a
    duplicate edge, it leaves to ``_edge_lines``, the one source of error
    messages, and it raises nothing itself; on what it accepts the two give
    the same arrays.
    """
    if not text.isascii() and ("\x85" in text or "\u2028" in text or "\u2029" in text):
        return None
    data = text.encode("utf-8", "surrogatepass")
    header = _HEAD.match(data)
    if header is None:
        return None
    # the match holds ``data``, so both go before the body is read
    n, body = int(header[1]), data[header.end() :]
    del header, data
    if n < 1:
        return None
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
    values = np.empty(0, np.int64)  # np.fromstring reads a body of no tokens as [0]
    if tokens:
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
    # value from 10**18 up is left to the loop
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
    return _edge_graph(n, src, dst, weights)


def _edge_lines(text: str) -> tuple[DirectedGraph, np.ndarray]:
    """The edge list ``text`` read one line at a time, with the breaks of ``str.splitlines``.

    It reads whatever ``_edge_bytes`` declines and writes every error
    message: a malformed document is reported at its first offending line,
    and on one line the checks run in turn: token count, index syntax, index
    range, duplicate edge, weight syntax, weight value.
    """
    # the lines that hold a token and are not '#' comments; a line starts
    # with '#' once stripped exactly when its first token does
    lines = (
        (lineno, tokens, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if (tokens := line.split()) and tokens[0][0] != "#"
    )
    lineno, _, header = next(lines, (0, None, None))
    if header is None:
        raise DocumentError("empty document, expected a 'format: 1' header")
    header = header.strip()
    parts = [p.strip() for p in header.split(":", 1)]
    if len(parts) != 2 or parts[0] != "format":
        raise DocumentError(f"expected 'format: {FORMAT_VERSION}' header, got {header!r}", f"line {lineno}")
    if parts[1] != str(FORMAT_VERSION):
        raise DocumentError(f"unsupported format version {parts[1]!r}, expected {FORMAT_VERSION}", f"line {lineno}")

    lineno, tokens, size_line = next(lines, (0, None, None))
    if tokens is None:
        raise DocumentError("missing 'n <count>' line after the header")
    if len(tokens) != 2 or tokens[0] != "n":
        raise DocumentError(f"expected 'n <count>', got {size_line.strip()!r}", f"line {lineno}")
    try:
        n = int(tokens[1])
    except ValueError as e:
        raise DocumentError(f"vertex count {tokens[1]!r} is not an integer", f"line {lineno}") from e
    if n < 1:
        raise DocumentError(f"vertex count must be >= 1, got {n}", f"line {lineno}")
    if n > np.iinfo(np.int64).max:
        raise DocumentError(f"vertex count {n} does not fit a 64-bit index", f"line {lineno}")

    # the edges, zero weights included, as machine numbers
    src, dst, weights = array("q"), array("q"), array("d")
    first_line: dict[tuple[int, int], int] = {}
    for lineno, tokens, line in lines:
        if len(tokens) not in (2, 3):
            raise DocumentError(f"expected 'i j [weight]', got {line.strip()!r}", f"line {lineno}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError as e:
            raise DocumentError(f"malformed vertex index in {line.strip()!r}", f"line {lineno}") from e
        if not (0 <= i < n and 0 <= j < n):
            raise DocumentError(f"vertex {i if not 0 <= i < n else j} out of range [0, {n})", f"line {lineno}")
        seen = first_line.setdefault((i, j), lineno)
        if seen != lineno:
            raise DocumentError(f"duplicate edge ({i}, {j}), first seen on line {seen}", f"line {lineno}")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError as e:
                raise DocumentError(f"malformed weight {tokens[2]!r}", f"line {lineno}") from e
            if not (math.isfinite(w) and w >= 0):
                raise DocumentError(f"weight must be finite and >= 0, got {tokens[2]}", f"line {lineno}")
        src.append(i)
        dst.append(j)
        weights.append(w)
    del first_line
    return _edge_graph(n, np.frombuffer(src, np.int64), np.frombuffer(dst, np.int64), np.frombuffer(weights))


def _parse_edge_list(text: str) -> tuple[DirectedGraph, np.ndarray]:
    edges = _edge_bytes(text)
    return edges if edges is not None else _edge_lines(text)


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
    order. A well-formed document split by line feeds alone, with blank
    space of spaces and tabs, ASCII numbers and whole-line '#' comments of
    any text, is read from its bytes in a few array passes; any other
    document goes line by line, to the same arrays.
    """
    return _parse_edge_list(_read_text(source))


def sniff_and_load(source) -> RankingProblem:
    """Load a path or stream as either document kind, by inspecting content, into its problem.

    JSON documents start with '{'; anything else is treated as an edge list,
    whose problem has the edges and weights ``load_edge_list`` gives, no
    ``agent_ids`` (agent k is ``v{k}``), rho 0 and beta `DEFAULT_BETA`.
    """
    text = _read_text(source)
    if text.lstrip().startswith("{"):
        return _parse_problem(text)
    return RankingProblem._trusted(None, *_parse_edge_list(text), 0.0, DEFAULT_BETA)

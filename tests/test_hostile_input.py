"""Property tests over hostile documents: the parsers and the CLI fail cleanly.

Every declared size stays at most 64, so no n x n array grows large; a huge
declared ``n`` is covered by ``test_cli.py::test_unallocatable_declared_size``
and by ``DECLARED_SIZE``, which loads without building anything of size n.
"""

import contextlib
import functools
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cesrank.cli
from cesrank import DocumentError, SolverConfig, sniff_and_load
from cesrank.cli import main

NESTED = '{"format": 1, "alpha": ' + "[" * 100_000 + "]" * 100_000 + "}"
HUGE_ROW = json.dumps({"format": 1, "agents": ["a", "b"], "alpha": [[1e308, 1e308], [1.0, 1.0]], "rho": 0.5})
BOOL_FORMAT = json.dumps({"format": True, "agents": ["a", "b"], "alpha": [[0.0, 1.0], [1.0, 0.0]], "rho": 0.0})
LONG_INTEGER = '{"format": 1, "agents": ["a"], "alpha": [[1]], "rho": ' + "9" * 400 + "}"
# 10^15 agents: one float each would be 7.11 PiB, so loading must build nothing of size n
DECLARED_SIZE = "format: 1\nn 1000000000000000\n"
# tatonnement drives five prices below 1e-190, where a buyer's total
# spending underflows to 0 and the demand kernel divides by it
ZERO_SPENDING = json.dumps({
    "format": 1,
    "agents": [f"a{i}" for i in range(6)],
    "alpha": [[0.0] * 6] * 3 + [[0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, 1e308]],
    "rho": [-1.0, -1.0, -1.0, -1.0, 0.8, -1.0],
    "beta": 1.0,
})

NASTY_NUMBERS = st.sampled_from([0, 1, -1, 0.0, -0.0, 5e-324, 1e-300, 0.5, 0.95, 0.97, 1e308, 1.7976931348623157e308, 10**400, True])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4) | NASTY_NUMBERS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _mostly(draw, valid, hostile):
    """Draw from ``valid`` seven times in eight, so that most documents get past the parser."""
    return draw(hostile) if draw(st.integers(0, 7)) == 0 else draw(valid)


@st.composite
def problem_documents(draw):
    """JSON text shaped like a problem document, each field valid or not."""
    n = draw(st.integers(1, 6))
    weight = st.floats(min_value=0.0, max_value=4.0) | st.sampled_from([0.0, 5e-324, 1e308])
    vertex = st.integers(0, n - 1)
    rho = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 0.8, 0.9, 0.95])
    fields = {
        "format": (st.just(1), json_values),
        "agents": (st.just([f"a{k}" for k in range(n)]), st.lists(st.text(max_size=3), min_size=n, max_size=n) | json_values),
        "alpha": (
            st.lists(st.lists(weight, min_size=n, max_size=n), min_size=n, max_size=n)
            | st.fixed_dictionaries({"triplets": st.lists(st.tuples(vertex, vertex, weight).map(list), max_size=3 * n, unique_by=lambda t: tuple(t[:2]))}),
            st.lists(st.lists(weight | NASTY_NUMBERS, min_size=n, max_size=n), min_size=n, max_size=n)
            | st.fixed_dictionaries({"triplets": st.lists(st.lists(st.integers(-1, n) | NASTY_NUMBERS, min_size=3, max_size=3), max_size=2 * n)})
            | json_values,
        ),
        "rho": (rho | st.lists(rho, min_size=n, max_size=n), st.floats(-1.1, 1.0) | NASTY_NUMBERS | json_values),
        "beta": (st.floats(0.5, 1.0), st.floats(0.0, 1.1) | NASTY_NUMBERS | json_values),
    }
    doc = {key: _mostly(draw, *pair) for key, pair in fields.items() if draw(st.integers(0, 15))}
    return json.dumps(doc, allow_nan=False)


@st.composite
def edge_lists(draw):
    """Text shaped like an edge list, header, size line and edges each valid or not."""
    n = _mostly(draw, st.integers(1, 12), st.integers(-1, 64))
    header = _mostly(draw, st.just("format: 1"), st.sampled_from(["format:1", "format: 2", "format 1", "# c", ""]))
    size = _mostly(draw, st.just("n {}"), st.sampled_from(["n  {}", "n {}.0", "m {}", "{}"])).format(n)
    vertex = st.integers(0, max(n - 1, 0)).map(str)
    edge = st.tuples(vertex, vertex, st.sampled_from(["", "1", "2.5", "0", "1e308", "1e-300"])).map(" ".join)
    token = st.integers(-2, 66).map(str) | st.sampled_from(["1e308", "nan", "inf", "-0", "0.5", "x", "#", "\u0663"])
    edges = draw(st.lists(edge | st.lists(token, max_size=4).map(" ".join), max_size=3 * max(n, 1)))
    return "\n".join([header, size, *edges]) + draw(st.sampled_from(["", "\n", "\r\n"]))


documents = problem_documents() | edge_lists() | st.text(max_size=40)


@settings(max_examples=300, deadline=None)
@given(text=documents)
@example(text=NESTED)
@example(text=HUGE_ROW)
@example(text=BOOL_FORMAT)
@example(text=LONG_INTEGER)
@example(text=DECLARED_SIZE)
def test_sniff_and_load_raises_only_document_errors(text):
    try:
        sniff_and_load(io.StringIO(text))
    except DocumentError:
        pass


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "input"


COMMANDS = [
    ["rank"],
    ["rank", "--format", "json"],
    ["rank", "--rho", "0.9"],
    ["rank", "--method", "pagerank"],
    ["rank", "--method", "invariant"],
    ["compare"],
    ["convert"],
]


@settings(max_examples=150, deadline=None)
@given(text=documents, command=st.sampled_from(COMMANDS))
@example(text=NESTED, command=["rank"])
@example(text=HUGE_ROW, command=["rank"])
@example(text=HUGE_ROW, command=["rank", "--method", "invariant"])
@example(text=LONG_INTEGER, command=["rank"])
@example(text=ZERO_SPENDING, command=["rank"])
@example(text=DECLARED_SIZE, command=["rank"])
def test_main_exits_with_a_documented_code(document_path, text, command):
    document_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    # a budget of 2000 iterations keeps every example fast; running out of
    # it is still a non-convergence, exit 3
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(cesrank.cli, "SolverConfig", functools.partial(SolverConfig, max_iters=2000))
        code = main([*command, "--input", str(document_path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")

import io
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesrank import (
    DocumentError,
    RankingProblem,
    damped_economy,
    dump_problem,
    load_edge_list,
    load_fixture,
    load_problem,
    sniff_and_load,
)
from cesrank import formats

from oracles import dense_weights, out_regular_edges, reference_load_edge_list, reference_triplet_alpha

MINIMAL = {
    "format": 1,
    "agents": ["a", "b"],
    "alpha": [[0.0, 3.0], [2.0, 0.0]],
    "rho": 0.5,
}


def doc(**overrides) -> io.StringIO:
    merged = {**MINIMAL, **overrides}
    for key, value in list(overrides.items()):
        if value is None:
            del merged[key]
    return io.StringIO(json.dumps(merged))


class TestLoadProblem:
    def test_dense_document(self):
        problem = load_problem(doc())
        assert problem.agent_ids == ("a", "b")
        np.testing.assert_array_equal(dense_weights(problem.graph, problem.weights), [[0.0, 3.0], [2.0, 0.0]])
        np.testing.assert_array_equal(problem.rho, [0.5, 0.5])
        assert problem.beta == 0.85  # default when the key is absent

    def test_explicit_beta(self):
        assert load_problem(doc(beta=1.0)).beta == 1.0

    def test_triplet_document(self):
        problem = load_problem(doc(alpha={"triplets": [[0, 1, 3.0], [1, 0, 2.0]]}))
        np.testing.assert_array_equal(dense_weights(problem.graph, problem.weights), [[0.0, 3.0], [2.0, 0.0]])

    def test_per_agent_rho(self):
        problem = load_problem(doc(rho=[0.5, -0.25]))
        np.testing.assert_array_equal(problem.rho, [0.5, -0.25])

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(doc().getvalue(), encoding="utf-8")
        assert load_problem(path).agent_ids == ("a", "b")

    def test_missing_format(self):
        with pytest.raises(DocumentError, match="missing 'format'"):
            load_problem(doc(format=None))

    def test_wrong_format_version(self):
        with pytest.raises(DocumentError, match="format: unsupported format version 2"):
            load_problem(doc(format=2))

    def test_agents_must_be_strings(self):
        with pytest.raises(DocumentError, match="agents"):
            load_problem(doc(agents=["a", 3]))

    def test_empty_agents(self):
        with pytest.raises(DocumentError, match="non-empty"):
            load_problem(doc(agents=[]))

    def test_row_length_mismatch_names_row(self):
        with pytest.raises(DocumentError, match=r"alpha\[1\]: row has length 3"):
            load_problem(doc(alpha=[[0.0, 1.0], [1.0, 0.0, 2.0]]))

    def test_row_count_mismatch(self):
        with pytest.raises(DocumentError, match="alpha: expected 2 rows"):
            load_problem(doc(alpha=[[0.0, 1.0]]))

    def test_row_must_be_a_list(self):
        with pytest.raises(DocumentError) as raised:
            load_problem(doc(alpha=[[0, 1], 5]))
        assert str(raised.value) == "alpha[1]: expected a list of numbers, got 5"

    def test_negative_entry_names_cell(self):
        with pytest.raises(DocumentError, match=r"alpha\[0\]"):
            load_problem(doc(alpha=[[-1.0, 1.0], [1.0, 0.0]]))

    def test_bool_is_not_a_number(self):
        with pytest.raises(DocumentError, match="expected a number, got True"):
            load_problem(doc(alpha=[[0.0, True], [1.0, 0.0]]))

    def test_nan_literal_rejected(self):
        text = doc().getvalue().replace("0.5", "NaN")
        with pytest.raises(DocumentError, match="non-finite number NaN"):
            load_problem(io.StringIO(text))

    def test_infinity_literal_rejected(self):
        text = doc().getvalue().replace("3.0", "Infinity")
        with pytest.raises(DocumentError, match="non-finite"):
            load_problem(io.StringIO(text))

    def test_malformed_json_reports_line(self):
        with pytest.raises(DocumentError, match="line 3"):
            load_problem(io.StringIO('{\n"format": 1,\n"agents": [,]\n}'))

    def test_non_object_root(self):
        with pytest.raises(DocumentError, match="root must be an object"):
            load_problem(io.StringIO("[1, 2]"))

    def test_rho_list_length(self):
        with pytest.raises(DocumentError, match="rho: expected 2 entries, got 3"):
            load_problem(doc(rho=[0.1, 0.2, 0.3]))

    def test_rho_entry_location(self):
        with pytest.raises(DocumentError, match=r"rho\[1\]"):
            load_problem(doc(rho=[0.1, "x"]))

    def test_missing_rho(self):
        with pytest.raises(DocumentError, match="rho"):
            load_problem(doc(rho=None))

    def test_duplicate_triplet(self):
        bad = {"triplets": [[0, 1, 1.0], [0, 1, 2.0]]}
        with pytest.raises(DocumentError, match=r"alpha.triplets\[1\]: duplicate entry for \(0, 1\)"):
            load_problem(doc(alpha=bad))

    def test_triplet_index_out_of_range(self):
        bad = {"triplets": [[0, 5, 1.0]]}
        with pytest.raises(DocumentError, match=r"index 5 out of range"):
            load_problem(doc(alpha=bad))

    def test_sparse_alpha_needs_a_triplets_list(self):
        with pytest.raises(DocumentError) as raised:
            load_problem(doc(alpha={"entries": []}))
        assert str(raised.value) == "alpha: sparse alpha must be an object with a 'triplets' list"

    def test_triplet_shape(self):
        with pytest.raises(DocumentError, match=r"expected \[i, j, weight\]"):
            load_problem(doc(alpha={"triplets": [[0, 1]]}))

    @settings(max_examples=300, deadline=None)
    @given(
        triplets=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from([0, 0.0, -0.0, 1, 2.5, 1e308])).map(list)
            | st.lists(st.integers(-1, 3) | st.sampled_from([0.5, -1.0, True, None, "x"]), max_size=4)
            | st.integers(0, 2),
            max_size=8,
        )
    )
    @example(triplets=[[0, 1, 1.0], [0, 1, -1.0]])  # a duplicate before a bad weight, in one triplet
    @example(triplets=[[0, 1, 1.0], [1, 1, -1.0], [0, 1, 1.0]])  # a bad weight before a duplicate
    @example(triplets=[[0, 1, 1.0], [0, 1, 1.0], [5, 0, 1.0]])  # a duplicate before a bad index
    @example(triplets=[[0, 1, 1.0], [0, 5, 1.0], [0, 1, 1.0]])  # a bad index before a duplicate
    def test_triplets_parse_as_the_triplet_loop(self, triplets):
        # the first failed check in triplet order, and the same dense alpha
        # (zero weights are no edge) when none fails
        n = len(MINIMAL["agents"])
        try:
            expected = reference_triplet_alpha({"triplets": triplets}, n)
        except DocumentError as e:
            with pytest.raises(DocumentError) as raised:
                load_problem(doc(alpha={"triplets": triplets}))
            assert str(raised.value) == str(e)
            return
        problem = load_problem(doc(alpha={"triplets": triplets}))
        np.testing.assert_array_equal(dense_weights(problem.graph, problem.weights), expected)
        assert problem.weights.min(initial=1.0) > 0.0

    def test_semantic_error_wrapped(self):
        # structurally fine, semantically out of range: surfaces as DocumentError
        with pytest.raises(DocumentError, match=r"rho\[0\]"):
            load_problem(doc(rho=1.5))


    def test_rho_above_cap_rejected(self):
        with pytest.raises(DocumentError, match=r"rho\[0\] = 0.97 outside \[-1, 0.95\]"):
            load_problem(doc(rho=0.97))

    def test_unknown_fixture_names_the_bundled_ones(self):
        with pytest.raises(ValueError) as raised:
            load_fixture("nope")
        assert str(raised.value) == "unknown fixture 'nope'; available: nonuniform3, monotone3"


@st.composite
def problems(draw):
    """Problems over the whole accepted input space: any ids, any finite weights, every rho."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))
    entry = st.floats(min_value=0.0, max_value=1.7976931348623157e308) | st.sampled_from([0.0, 5e-324, 1e308])
    alpha = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    rho_value = st.floats(-1.0, 0.95).map(lambda r: 0.0 if abs(r) < 1e-9 else r)
    rho = draw(rho_value | st.lists(rho_value, min_size=n, max_size=n))
    beta = draw(st.floats(0.0, 1.0, exclude_min=True))
    return RankingProblem(tuple(ids), alpha, rho, beta=beta)


class TestDumpProblem:
    def test_round_trip_fixture(self):
        problem = load_problem(doc(beta=0.9, rho=[0.5, -0.25]))
        again = load_problem(io.StringIO(dump_problem(problem)))
        assert again.agent_ids == problem.agent_ids
        np.testing.assert_array_equal(dense_weights(again.graph, again.weights), dense_weights(problem.graph, problem.weights))
        np.testing.assert_array_equal(again.rho, problem.rho)
        assert again.beta == problem.beta

    def test_uniform_rho_collapses_to_scalar(self):
        text = dump_problem(load_problem(doc()))
        assert json.loads(text)["rho"] == 0.5

    def test_writes_the_edges_as_json_dumps_would(self):
        problem = load_problem(doc(beta=0.9, rho=[0.5, -0.25]))
        expected = {
            "format": 1,
            "agents": ["a", "b"],
            "alpha": {"triplets": [[0, 1, 3.0], [1, 0, 2.0]]},
            "rho": [0.5, -0.25],
            "beta": 0.9,
        }
        assert dump_problem(problem) == json.dumps(expected, indent=2) + "\n"
        empty = RankingProblem(("a",), np.zeros((1, 1)), 0.0)
        assert json.loads(dump_problem(empty))["alpha"] == {"triplets": []}

    @settings(max_examples=200, deadline=None)
    @given(problem=problems(), block=st.integers(1, 4))
    def test_round_trip_is_exact(self, problem, block):
        # blocks of 1-4 triplets: up to 36 edges cross block boundaries and may end on a partial block
        with mock.patch.object(formats, "_BLOCK", block):
            text = dump_problem(problem)
        graph, rho = problem.graph, problem.rho
        expected = {
            "format": 1,
            "agents": list(problem.agent_ids),
            "alpha": {"triplets": [[i, j, w] for i, j, w in zip(graph.src.tolist(), graph.dst.tolist(), problem.weights.tolist())]},
            "rho": float(rho[0]) if (rho == rho[0]).all() else rho.tolist(),
            "beta": problem.beta,
        }
        assert text == json.dumps(expected, indent=2) + "\n"
        again = load_problem(io.StringIO(text))
        np.testing.assert_array_equal(dense_weights(again.graph, again.weights), dense_weights(problem.graph, problem.weights))
        np.testing.assert_array_equal(again.rho, problem.rho)
        assert again.beta == problem.beta and again.agent_ids == problem.agent_ids


EDGES = """\
format: 1
n 3

# a triangle with one weighted edge
0 1
1 2 2.5
2 0
"""


class TestLoadEdgeList:
    def test_happy_path(self):
        graph, weights = load_edge_list(io.StringIO(EDGES))
        assert graph.n == 3
        assert (graph.src.tolist(), graph.dst.tolist()) == ([0, 1, 2], [1, 2, 0])
        assert weights.tolist() == [1.0, 2.5, 1.0]

    def test_weights_follow_the_sorted_edges(self):
        text = "format: 1\nn 3\n2 0 3.0\n0 2 2.0\n1 0\n0 1 0.5\n"
        graph, weights = load_edge_list(io.StringIO(text))
        assert (graph.src.tolist(), graph.dst.tolist()) == ([0, 0, 1, 2], [1, 2, 0, 0])
        assert weights.tolist() == [0.5, 2.0, 1.0, 3.0]

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(EDGES, encoding="utf-8")
        graph, _ = load_edge_list(path)
        assert graph.n == 3

    def test_zero_weight_edge_kept_out_of_graph(self):
        text = "format: 1\nn 2\n0 1 0.0\n1 0\n"
        graph, weights = load_edge_list(io.StringIO(text))
        assert (graph.src.tolist(), graph.dst.tolist()) == ([1], [0])
        assert weights.tolist() == [1.0]

    def test_missing_header(self):
        with pytest.raises(DocumentError, match="empty document"):
            load_edge_list(io.StringIO("\n# nothing here\n"))

    def test_wrong_header(self):
        with pytest.raises(DocumentError, match="line 1"):
            load_edge_list(io.StringIO("fmt 1\nn 2\n0 1\n"))

    def test_wrong_version(self):
        with pytest.raises(DocumentError, match="unsupported format version"):
            load_edge_list(io.StringIO("format: 2\nn 2\n0 1\n"))

    def test_missing_size_line(self):
        with pytest.raises(DocumentError, match="missing 'n <count>'"):
            load_edge_list(io.StringIO("format: 1\n"))

    def test_bad_size_line(self):
        with pytest.raises(DocumentError, match="line 2"):
            load_edge_list(io.StringIO("format: 1\nnodes 2\n"))

    def test_non_integer_count(self):
        with pytest.raises(DocumentError, match="not an integer"):
            load_edge_list(io.StringIO("format: 1\nn two\n"))

    def test_count_beyond_the_index_type(self):
        with pytest.raises(DocumentError, match="line 2: vertex count 9{20} does not fit a 64-bit index"):
            load_edge_list(io.StringIO("format: 1\nn " + "9" * 20 + "\n0 1\n"))

    def test_duplicate_edge_cites_first_line(self):
        text = "format: 1\nn 2\n0 1\n1 0\n0 1 3.0\n"
        with pytest.raises(DocumentError, match=r"line 5: duplicate edge \(0, 1\), first seen on line 3"):
            load_edge_list(io.StringIO(text))

    def test_vertex_out_of_range(self):
        with pytest.raises(DocumentError, match=r"line 3: vertex 9 out of range"):
            load_edge_list(io.StringIO("format: 1\nn 3\n0 9\n"))

    def test_malformed_vertex(self):
        with pytest.raises(DocumentError, match="malformed vertex index"):
            load_edge_list(io.StringIO("format: 1\nn 3\na b\n"))

    def test_malformed_weight(self):
        with pytest.raises(DocumentError, match="malformed weight 'heavy'"):
            load_edge_list(io.StringIO("format: 1\nn 3\n0 1 heavy\n"))

    def test_negative_weight(self):
        with pytest.raises(DocumentError, match="weight must be finite"):
            load_edge_list(io.StringIO("format: 1\nn 3\n0 1 -2\n"))

    def test_too_many_tokens(self):
        with pytest.raises(DocumentError, match=r"expected 'i j \[weight\]'"):
            load_edge_list(io.StringIO("format: 1\nn 3\n0 1 2 3\n"))

    def test_comment_lines_do_not_shift_reported_numbers(self):
        text = "# prologue\nformat: 1\n# note\nn 2\n0 1\n0 1\n"
        with pytest.raises(DocumentError, match="line 6: duplicate edge"):
            load_edge_list(io.StringIO(text))


@st.composite
def edge_list_texts(draw):
    """Edge-list documents, valid or not, in every line-break, header and token spelling ``int``/``float`` take.

    Blank and comment lines come before, between and after the two header
    lines, and among the edges. Four documents in five are well formed, and
    four in five spell everything the usual way, with '\n' as the line break,
    which the bytes path reads; the rest draw from every spelling.
    """
    n = draw(st.integers(1, 9))
    malformed = draw(st.sampled_from([False] * 4 + [True]))
    usual = draw(st.sampled_from([True] * 4 + [False]))

    def spelled(common, other):
        return st.sampled_from(common if usual else common + other)

    skipped = st.sampled_from(["", " \t", "#", "# note", "  #\u00e9 \u2603 comment", "\t# \U0001f600"])
    format_line = spelled(["format: 1", "format:1", "  format : 1\t", "format :1 "], ["format:\u30001"])
    size_line = spelled([f"n {n}", f"  n\t{n:03d}", f"n {n} "], [f"n +{n}", f"n\x1f{n}"])
    if n == 1 and not usual:
        size_line |= st.just("n 1_0")
    index = st.integers(0, n - 1).map(str) | spelled(["00"], ["+1", "0_2", "\u0663"])
    weight = spelled(["", "", "1", "2.5", "0", "0.0", "-0", "5e-324", "1e308"], ["1_0.5", "123456789012345678901"])
    separator = spelled([" ", " ", "\t"], ["\x1f", "\u3000"])
    line_break = spelled(["\n"], ["\n", "\r\n", "\r", "\x85", "\x1c", "\x0b", "\u2028"])
    junk = st.sampled_from(["", "   ", "# note", "  #\u00e9 \u2603 comment"])
    if malformed:
        index |= st.sampled_from(["-1", str(n), "99999999999999999999", "x", "1.0", "#"])
        weight = st.sampled_from(["-1", "1e400", "nan", "inf", "heavy", "0x1", "1 2"]) | weight
        junk |= st.sampled_from(["0", "0 1 2 3", "n 2", "format: 1"])
        skipped |= st.sampled_from(["#x\x0b0 1", "# \u00e9\x85 0", "x", "n"])
        format_line |= st.sampled_from(["format: 2", "format 1", "format: 01", "format:"])
        size_line |= st.sampled_from(["n 0", "n -1", "n 2 3", "n x", "n " + "9" * 19, "nodes 2", "n 0x2"])
    edge = st.tuples(index, separator, index, separator, weight).map(lambda t: "".join(t).rstrip())

    def listed(line):  # the edge a line lists, read as ``int`` reads indices; a line without one is its own key
        tokens = line.split()
        return (int(tokens[0]), int(tokens[1])) if len(tokens) > 1 and not tokens[0].startswith("#") else line

    # a repeated edge is an error, so only a malformed document repeats one
    body = draw(st.lists(edge | junk, max_size=8, unique_by=None if malformed else listed))
    gap = st.lists(skipped, max_size=2)
    header = [*draw(gap), draw(format_line), *draw(gap), draw(size_line)]
    if malformed:
        header = draw(st.sampled_from([header] * 4 + [header[:-1], []]))
    return draw(line_break).join(header + body) + draw(spelled(["", "\n"], ["\r\n"]))


def bits(graph, weights):
    return graph.n, graph.src.dtype, graph.src.tolist(), graph.dst.tolist(), weights.dtype, weights.tobytes()


def parsed(load, text):
    """``load`` on ``text``: the graph and weights bit for bit, or the DocumentError message."""
    try:
        return bits(*load(io.StringIO(text)))
    except DocumentError as e:
        return "error", str(e)


@settings(max_examples=500, deadline=None)
@given(text=edge_list_texts())
@example(text="format: 1\nn 3\n0 99999999999999999999\n")
@example(text="format: 1\nn 4\n+1 0_2\n\u0663 +1 2\n")
@example(text="format: 1\nn 2\n0 1 -0\n1 0 1_0.5\n")
@example(text="format: 1\nn 2\n0 1 1e400\n")
@example(text="format: 1\nn 2\n1 0\n0 1 nan\n")
@example(text="format: 1\x85n 2\x1c0 1\x0b1 0 2\r\n")
@example(text="# \u00e9t\u00e9 \u2603\nformat: 1\nn 2\n0 1\n")
@example(text="format: 1\n#x\x0b0 1\nn 2\n")
@example(text="format:1\n  n\t007\n0 1\n")
@example(text="format: 1\nn +2\n0 1\n")
@example(text="format: 1\nn 1_0\n9 0\n")
@example(text="format: 1\n# \u00e9\x85 1 0\nn 2\n0 1\n")
@example(text="format: 1\nn 2\n0 1 0\n1 0\n0 1\n")
@example(text="format: 1\nn 2\n0 1\n0 1 heavy\n")
@example(text="format: 1\nn 2\n0 5\n0 1 2 3\n")
@example(text="format: 1\nn 2\n0 1 99999999999999999999\n")
@example(text="format: 1\nn 2\n0 1 9223372036854775808\n")
@example(text="format: 1\nn 2\n0 1 1-2\n")
@example(text="format: 1\nn 2\n0 1 1.5.5\n")
@example(text="format: 1\nn 2\n0 1 5e\n")
@example(text="format: 1\nn 2\n1.0 0\n")
@example(text="format: 1\nn 2\n1e0 0\n")
@example(text="format: 1\nn 2\n0 +1\n")
@example(text="format: 1\nn 2\n0 1 .5\n")
@example(text="format: 1\nn 2\n0 1 5.\n")
@example(text="format: 1\nn 2\n0 1 +1.5\n")
@example(text="format: 1\nn 2\n0 1 1E5\n")
@example(text="format: 1\nn 2\n1 0\n0 1 -0\n")
@example(text="format: 1\nn 3\n0 1\n1 2 2.5")
@example(text="format: 1\nn 3\n0 1 \t\n1 2 2.5\t \n")
@example(text="format: 1\nn 3\n2 0\n0 1\n1 2\n0 1 3\n")
@example(text="format: 1\nn 4\n\n\n")
@example(text="format: 1\nn 4\n# no edges\n")
def test_bulk_parser_matches_the_line_loop(text):
    assert parsed(load_edge_list, text) == parsed(reference_load_edge_list, text)


# documents that the bytes path must leave to the line loop: a token past
# int64, a token ``np.fromstring`` cannot read whole, an index that is not all
# digits, a duplicate, a bad weight, index or token count, bytes it does not
# take, among them a '#' after a token and a comment line that a break other
# than '\n' ends, and header spellings that only the loop reads or rejects
BYTES_PATH_REJECTS = [
    "format: 1\nn 2\n0 1 99999999999999999999\n",
    "format: 1\nn 2\n0 1 9223372036854775808\n",
    "format: 1\nn 2\n0 1 1-2\n",
    "format: 1\nn 2\n0 1 1.5.5\n",
    "format: 1\nn 2\n0 1 5e\n",
    "format: 1\nn 2\n1.0 0\n",
    "format: 1\nn 2\n1e0 0\n",
    "format: 1\nn 2\n0 +1\n",
    "format: 1\nn 3\n2 0\n0 1\n1 2\n0 1 3\n",
    "format: 1\nn 2\n0 1 -1\n",
    "format: 1\nn 2\n0 1 1e400\n",
    "format: 1\nn 2\n0 2\n",
    "format: 1\nn 2\n0\n",
    "format: 1\nn 2\n0 1\r\n",
    "format: 1\nn 2\n# a note\r\n0 1\n",
    "format: 1\nn 2\n# a note\x0c0 1\n",
    "format: 1\nn 2\n0 1 # a note\n",
    "format: 1\nn 2\n\x1f# a note\n0 1\n",
    "format: 1\nn 2\n# caf\u00e9\x850 1\n",
    "format: 1\nn 2\n# a\u2028note\n0 1\n",
    "# caf\u00e9\u2029format: 1\nn 2\n",
    "format: 1\nn 2\n\u3000# a note\n0 1\n",
    "format: 1\nn 2\n0 1 \u00e9\n",
    "format: 1\nn +2\n0 1\n",
    "format: 1\nn 1_0\n0 1\n",
    "format: 1\r\nn 2\n0 1\n",
    "format: 1\nn 0\n",
    "format: 1\nn 1000000000000000000\n0 1\n",
    "format: 1\nn 2 # a note\n0 1\n",
    "format: 2\nn 2\n",
    "",
]
# documents that it reads itself, to the line loop's arrays: every float
# spelling, blank space, no final line break, an empty body, header spellings,
# whole-line comments of any UTF-8 text before, inside and after the header,
# and bodies of blank and comment lines alone, which hold no token to parse
BYTES_PATH_ACCEPTS = [
    "format: 1\nn 2\n0 1 .5\n",
    "format: 1\nn 2\n0 1 5.\n",
    "format: 1\nn 2\n0 1 +1.5\n",
    "format: 1\nn 2\n0 1 1E5\n",
    "format: 1\nn 2\n1 0\n0 1 -0\n",
    "format: 1\nn 3\n0 1\n1 2 2.5",
    "format: 1\nn 3\n0 1 \t\n\n1 2 2.5\t \n",
    "format: 1\nn 2\n0 1 999999999999999999\n",
    "format: 1\nn 2\n",
    "format: 1\nn 2\n# a note\n0 1\n",
    "format: 1\nn 3\n# a\n  \t# b 2 0\n0 1\n#\n1 2 2.5\n# c",
    "format:1\n  n\t007\n0 1\n",
    "\n \t\n  format : 1\t\n\nn 2",
    "# \u00e9t\u00e9 \u2603\nformat: 1\nn 2\n0 1\n",
    "format: 1\n  # \u2014 inside \U0001f600\nn 2\n0 1\n",
    "format: 1\nn 2\n# \u00e9t\u00e9\n0 1\n1 0 2.5\n# \u00fcber",
    "format: 1\nn 2\n0 1\n#\udc80 a lone surrogate\n",
    "format: 1\nn 4\n\n\n",
    "format: 1\nn 4\n# no edges\n",
    "format: 1\nn 4\n  \t\n# no edges\n\n",
]


class TestBytesPath:
    def test_reads_a_sorted_unweighted_document(self):
        edges = out_regular_edges(np.random.default_rng(3), 3000)
        text = "format: 1\nn 3000\n" + "\n".join(f"{i} {j}" for i, j in edges) + "\n"
        fast = formats._edge_bytes(text)
        assert fast is not None
        assert bits(*fast) == parsed(reference_load_edge_list, text)

    def test_reads_a_shuffled_weighted_document(self):
        rng = np.random.default_rng(4)
        edges = out_regular_edges(rng, 2000, out_degree=10)
        spellings = [
            lambda w: "",
            lambda w: f" {w!r}",
            lambda w: f" {int(w * 1e3)}",
            lambda w: f"\t{w:.3e}",
            lambda w: f" {w:.6E}",
            lambda w: f" {w:.2f}".replace(" 0.", " ."),
            lambda w: " 0",
        ]
        weights = rng.lognormal(0.0, 3.0, len(edges))
        choice = rng.integers(len(spellings), size=len(edges))
        lines = [f"{i} {j}{spellings[c](w)}" for (i, j), w, c in zip(edges, weights.tolist(), choice.tolist())]
        text = "format: 1\nn 2000\n" + "\n".join(rng.permutation(lines).tolist()) + "\n"
        fast = formats._edge_bytes(text)
        assert fast is not None
        assert bits(*fast) == parsed(reference_load_edge_list, text)

    @pytest.mark.parametrize("text", BYTES_PATH_REJECTS)
    def test_leaves_the_traps_to_the_line_parser(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert formats._edge_bytes(text) is None

    @pytest.mark.parametrize("text", BYTES_PATH_ACCEPTS)
    def test_reads_what_it_takes_as_the_line_parser_does(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = formats._edge_bytes(text)
        assert fast is not None
        assert bits(*fast) == parsed(reference_load_edge_list, text)

    def test_a_short_read_is_left_to_the_line_parser(self, monkeypatch):
        # np.fromstring reading fewer values than there are tokens
        text = "format: 1\nn 3\n0 1\n1 2 2.5\n2 0\n"
        fromstring = np.fromstring
        monkeypatch.setattr(formats.np, "fromstring", lambda *args, **kwargs: fromstring(*args, **kwargs)[:-1])
        assert formats._edge_bytes(text) is None
        assert parsed(load_edge_list, text) == bits(*formats._edge_lines(text))

    def test_memory_is_linear_in_the_lines(self, tmp_path):
        # 2e5 lines of about 12 bytes; the line loop peaks at 289 bytes a
        # line, holding every line as a str, and the bytes path at 86
        n, out_degree = 20_000, 10
        src = np.repeat(np.arange(n), out_degree)
        dst = (src + 1 + 37 * np.tile(np.arange(out_degree), n)) % n
        path = tmp_path / "g.edges"
        path.write_text(f"format: 1\nn {n}\n" + "".join(f"{i} {j}\n" for i, j in zip(src.tolist(), dst.tolist())), encoding="utf-8")
        tracemalloc.start()
        try:
            graph, _ = load_edge_list(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.src.size == src.size
        assert peak < 140 * src.size


class TestEdgeGraph:
    """`formats._edge_graph`, the one assembler every reader returns through."""

    @staticmethod
    def assemble(pairs, weights, n=4):
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return formats._edge_graph(n, pairs[:, 0], pairs[:, 1], np.array(weights, dtype=float))

    def test_sorted_edges_come_back_as_given(self):
        pairs, weights = [[0, 1], [0, 3], [1, 0], [2, 2], [3, 1]], [2.0, 0.5, 1.0, 3.0, 1e-300]
        graph, kept = self.assemble(pairs, weights)
        assert graph.n == 4
        assert graph.src.dtype == graph.dst.dtype == np.int64
        assert graph.src.tolist() == [0, 0, 1, 2, 3] and graph.dst.tolist() == [1, 3, 0, 2, 1]
        assert kept.tobytes() == np.array(weights).tobytes()

    def test_shuffled_edges_are_sorted_with_their_weights(self):
        graph, kept = self.assemble([[3, 1], [0, 3], [2, 2], [0, 1], [1, 0]], [5.0, 2.0, 4.0, 1.0, 3.0])
        assert graph.src.tolist() == [0, 0, 1, 2, 3] and graph.dst.tolist() == [1, 3, 0, 2, 1]
        assert kept.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("weights", [[1.0, 2.0, 1.0], [1.0, 2.0, 0.0], [0.0, 2.0, 1.0]])
    def test_a_repeated_pair_gives_none(self, weights):
        assert self.assemble([[2, 0], [1, 3], [2, 0]], weights) is None

    def test_zero_weights_are_no_edge(self):
        graph, kept = self.assemble([[1, 2], [0, 1], [3, 3], [0, 2]], [0.0, 1.5, 0.0, 2.5])
        assert graph.src.tolist() == [0, 0] and graph.dst.tolist() == [1, 2]
        assert kept.tolist() == [1.5, 2.5]

    def test_order_past_the_int64_key_range(self):
        # at n = 2**62, src * n + dst wraps: (n - 1, 0) would key below every
        # other pair, and (0, n - 1) and (4, n - 1) would key alike
        n = 2**62
        graph, kept = self.assemble([[4, n - 1], [n - 1, 0], [0, n - 1], [n - 2, 3]], [1.0, 2.0, 3.0, 4.0], n=n)
        assert graph.src.tolist() == [0, 4, n - 2, n - 1] and graph.dst.tolist() == [n - 1, n - 1, 3, 0]
        assert kept.tolist() == [3.0, 1.0, 4.0, 2.0]
        assert self.assemble([[n - 1, 0], [4, n - 1], [n - 1, 0]], [1.0, 2.0, 3.0], n=n) is None

    def test_no_edges_give_an_edgeless_graph(self):
        graph, kept = self.assemble([], [], n=3)
        assert graph.n == 3
        assert graph.src.size == graph.dst.size == kept.size == 0
        assert graph.src.dtype == np.int64 and kept.dtype == np.float64


class TestProblemFromEdgeList:
    def test_edges_and_defaults(self):
        graph, weights = load_edge_list(io.StringIO(EDGES))
        problem = RankingProblem.from_edges(("a", "b", "c"), graph, weights, 0.0)
        assert problem.graph is graph
        assert problem.weights.tolist() == [1.0, 2.5, 1.0] and not problem.weights.flags.writeable
        assert problem.beta == 0.85
        np.testing.assert_array_equal(problem.rho, 0.0)
        assert not hasattr(problem, "alpha")
        np.testing.assert_array_equal(dense_weights(problem.graph, problem.weights), [[0, 1, 0], [0, 0, 2.5], [1, 0, 0]])

    def test_overrides(self):
        problem = RankingProblem.from_edges(("a", "b", "c"), *load_edge_list(io.StringIO(EDGES)), 0.5, beta=1.0)
        assert problem.beta == 1.0
        np.testing.assert_array_equal(problem.rho, 0.5)

    @pytest.mark.parametrize(
        "weights,message",
        [
            ([1.0, 2.5], r"weights must be one per edge: 3 edges, got shape \(2,\)"),
            ([1.0, 0.0, 1.0], r"edge \(1, 2\) has weight 0.0; weights must be positive and finite"),
            ([1.0, 1.0, np.inf], r"edge \(2, 0\) has weight inf"),
        ],
    )
    def test_weights_checked_as_the_economy_checks_them(self, weights, message):
        graph, _ = load_edge_list(io.StringIO(EDGES))
        with pytest.raises(ValueError, match=message):
            RankingProblem.from_edges(("a", "b", "c"), graph, weights, 0.0)
        with pytest.raises(ValueError, match=message):
            damped_economy(graph, weights, 0.0, 0.85)

    def test_graph_must_match_the_agents(self):
        graph, weights = load_edge_list(io.StringIO(EDGES))
        with pytest.raises(ValueError, match="alpha is 3x3 but there are 2 agents"):
            RankingProblem.from_edges(("a", "b"), graph, weights, 0.0)


class TestSniffAndLoad:
    def test_json_dispatch(self):
        problem = sniff_and_load(doc())
        assert problem.agent_ids is not None

    def test_edge_list_dispatch(self):
        # agents v0 .. v{n-1}, rho 0 and the default damping
        problem = sniff_and_load(io.StringIO(EDGES))
        assert problem.agent_ids is None
        graph, weights = problem.graph, problem.weights
        assert graph.n == 3 and weights.shape == graph.src.shape == (3,)
        assert problem.beta == 0.85
        np.testing.assert_array_equal(problem.rho, 0.0)
        assert json.loads(dump_problem(problem))["agents"] == ["v0", "v1", "v2"]

    def test_leading_whitespace_still_json(self):
        problem = sniff_and_load(io.StringIO("\n  " + doc().getvalue()))
        assert problem.agent_ids is not None

    def test_declared_size_builds_nothing_of_that_size(self):
        # one float per agent would be 7.11 PiB; a shared rho is one read-only value
        problem = sniff_and_load(io.StringIO("format: 1\nn 1000000000000000\n"))
        assert problem.n == 10**15 and problem.rho[-1] == 0.0 and not problem.rho.flags.writeable
        assert problem.graph.src.size == problem.weights.size == 0

"""End-to-end command tests driven through ``main(argv)``."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesrank.cli
import cesrank.markov
from cesrank import (
    DirectedGraph,
    RankingProblem,
    TransitionMatrix,
    build_web_transition,
    dump_problem,
    load_fixture,
    load_problem,
    stationary_distribution,
)
from cesrank.cli import TIE_TOL, _emit_ranking, _tie_groups, main

from oracles import out_regular_edges, reference_ranking_text, reference_tie_groups

TWO_CYCLE = "format: 1\nn 2\n0 1\n1 0\n"
TRIANGLE = "format: 1\nn 3\n0 1\n1 2\n2 0\n2 1\n"
DANGLING = "format: 1\nn 3\n0 1\n0 2\n1 0\n"  # vertex 2 has no out-links
NOT_CONNECTED = "format: 1\nn 3\n0 1\n1 0\n"  # vertex 2 is isolated


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.edges"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def problem_file(tmp_path):
    def write(problem, name="p.json"):
        path = tmp_path / name
        path.write_text(dump_problem(problem), encoding="utf-8")
        return str(path)

    return write


def assert_memory_is_linear_in_the_edges(graph_file, capsys, *flags, n=3000):
    # one n x n float array is 8 n^2 bytes, 69 MiB at n = 3000; the edge list
    # and the chain or economy on its 5 n edges fit in a few
    edges = out_regular_edges(np.random.default_rng(5), n)
    path = graph_file(f"format: 1\nn {n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    tracemalloc.start()
    try:
        code = main(["rank", *flags, "--input", path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == n
    assert peak < min(24 * 2**20, 8 * n * n)


class TestRankPagerank:
    def test_two_cycle_ties(self, graph_file, capsys):
        code = main(["rank", "--method", "pagerank", "--input", graph_file(TWO_CYCLE)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "1\tv0\t0.5\n2\tv1\t0.5\n"

    def test_json_reports_tie_group(self, graph_file, capsys):
        code = main(
            ["rank", "--method", "pagerank", "--format", "json", "--input", graph_file(TWO_CYCLE)]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["method"] == "pagerank"
        assert doc["ties"] == [["v0", "v1"]]
        assert "wall_time" not in doc["report"]

    def test_rho_flag_warns_and_is_ignored(self, graph_file, capsys):
        code = main(
            ["rank", "--method", "pagerank", "--rho", "0.5", "--input", graph_file(TRIANGLE)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "--rho only applies" in captured.err

    def test_damping_changes_scores(self, graph_file, capsys):
        path = graph_file(TRIANGLE)
        main(["rank", "--method", "pagerank", "--input", path])
        strong = capsys.readouterr().out
        main(["rank", "--method", "pagerank", "--damping", "0.5", "--input", path])
        weak = capsys.readouterr().out
        assert strong != weak

    def test_power_on_the_edges_at_twenty_vertices(self, graph_file, capsys):
        # vertices 0 and 7 dangle; even a small chain is iterated on its
        # edges, and agrees with the exact solve of its dense matrix
        n = 20
        edges = [(i, j) for i, j in out_regular_edges(np.random.default_rng(3), n) if i not in (0, 7)]
        path = graph_file(f"format: 1\nn {n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
        assert main(["rank", "--method", "pagerank", "--format", "json", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        chain = build_web_transition(DirectedGraph(n, *zip(*edges)))
        solved, _ = stationary_distribution(TransitionMatrix(chain.matrix))
        assert doc["report"]["method"] == "power"
        assert doc["report"]["residual"] <= 1e-12
        assert max(abs(r["score"] - solved.pi[int(r["agent"][1:])]) for r in doc["ranking"]) <= 1e-12

    def test_memory_is_linear_in_the_edges(self, graph_file, capsys):
        assert_memory_is_linear_in_the_edges(graph_file, capsys, "--method", "pagerank")

    def test_no_dense_matrix_below_two_thousand_vertices(self, graph_file, capsys):
        # the chain is iterated on its edges at every size: at n = 1500 the
        # peak stays under one 1500 x 1500 float array (17.2 MiB)
        assert_memory_is_linear_in_the_edges(graph_file, capsys, "--method", "pagerank", n=1500)


class TestRankCes:
    def test_tsv_shape_and_order(self, problem_file, capsys):
        code = main(["rank", "--input", problem_file(load_fixture("nonuniform3"))])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line.split("\t") for line in out.splitlines()]
        assert [row[0] for row in lines] == ["1", "2", "3"]
        assert lines[0][1] == "a2"  # the agent everyone else favors
        scores = [float(row[2]) for row in lines]
        assert scores == sorted(scores, reverse=True)
        assert abs(sum(scores) - 1.0) <= 1e-9

    def test_json_tie_group_for_symmetric_pair(self, problem_file, capsys):
        code = main(
            ["rank", "--format", "json", "--input", problem_file(load_fixture("nonuniform3"))]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["ties"] == [["a1", "a3"]]
        assert [entry["rank"] for entry in doc["ranking"]] == [1, 2, 3]

    def test_output_is_byte_identical(self, problem_file, capsys):
        path = problem_file(load_fixture("nonuniform3"))
        argv = ["rank", "--format", "json", "--input", path]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_edge_list_input_with_rho_override(self, graph_file, capsys):
        code = main(["rank", "--rho", "0.5", "--input", graph_file(TRIANGLE)])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_beta_override_changes_result(self, problem_file, capsys):
        path = problem_file(load_fixture("monotone3"))
        main(["rank", "--input", path])
        base = capsys.readouterr().out
        main(["rank", "--beta", "0.6", "--input", path])
        damped = capsys.readouterr().out
        assert base != damped

    @pytest.mark.parametrize("rho", ["0.5", "-0.5"])
    def test_memory_is_linear_in_the_edges(self, graph_file, capsys, rho):
        assert_memory_is_linear_in_the_edges(graph_file, capsys, "--rho", rho)

    @pytest.mark.parametrize("rho", ["0", "0.5"])
    @pytest.mark.parametrize(
        "text",
        [NOT_CONNECTED, "format: 1\nn 3\n1 0\n2 2\n"],
        ids=["isolated dangling vertex", "dangling vertex in the component"],
    )
    def test_undamped_disconnected_edge_list_names_a_component(self, graph_file, capsys, text, rho):
        # a dangling row wants every good; 2 cannot reach 0 either way
        code = main(["rank", "--beta", "1", "--rho", rho, "--input", graph_file(text)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: economy graph is not strongly connected (one component: [0, 1]); "
            "no strictly positive equilibrium is guaranteed; damp with beta < 1 to connect it\n"
        )

    def test_rho_above_economy_cap_is_bad_input(self, problem_file, capsys):
        path = problem_file(load_fixture("nonuniform3"))
        code = main(["rank", "--rho", "0.97", "--input", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err


@pytest.mark.parametrize("method", ["ces", "invariant"])
def test_row_sum_overflow_ranks_as_rescaled_row(problem_file, capsys, method):
    # invariance to reference intensity: a row whose sum overflows ranks
    # like the same row scaled to 1
    alpha = np.array([[1.0, 1.0, 0.5], [0.2, 0.0, 0.8], [0.5, 0.5, 0.0]])
    huge = alpha.copy()
    huge[0] *= 1e308
    scores = []
    for weights, name in ((alpha, "unit.json"), (huge, "huge.json")):
        path = problem_file(RankingProblem(("a", "b", "c"), weights, 0.5), name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rank", "--method", method, "--format", "json", "--input", path])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        scores.append({r["agent"]: r["score"] for r in json.loads(captured.out)["ranking"]})
    for agent, score in scores[0].items():
        assert abs(scores[1][agent] - score) <= 1e-12


class TestRankInvariant:
    def test_weighted_invariant_ranking(self, graph_file, capsys):
        text = "format: 1\nn 3\n0 1 2.0\n0 2 1.0\n1 0\n1 2\n2 0\n2 1 3.0\n"
        code = main(["rank", "--method", "invariant", "--input", graph_file(text)])
        out = capsys.readouterr().out
        assert code == 0
        scores = [float(line.split("\t")[2]) for line in out.splitlines()]
        assert abs(sum(scores) - 1.0) <= 1e-9

    def test_agent_without_weight_named(self, graph_file, capsys):
        # one vertex, no edges: connected, but its row cannot be normalized
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rank", "--method", "invariant", "--input", graph_file("format: 1\nn 1\n")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: agent v0 has no positive weight; the invariant method needs one in every row\n"

    def test_disconnected_graph_rejected(self, graph_file, capsys):
        code = main(["rank", "--method", "invariant", "--input", graph_file(NOT_CONNECTED)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "strongly connected" in captured.err

    def test_large_periodic_graph_is_solved(self, graph_file, capsys):
        # a star 0 <-> 1..19 has period 2; the dense chain is solved exactly,
        # and ranks like its Cobb-Douglas economy
        path = graph_file("format: 1\nn 20\n" + "".join(f"0 {k}\n{k} 0\n" for k in range(1, 20)))

        def scores(*flags):
            assert main(["rank", *flags, "--format", "json", "--input", path]) == 0
            doc = json.loads(capsys.readouterr().out)
            return doc["report"], {r["agent"]: r["score"] for r in doc["ranking"]}

        report, invariant = scores("--method", "invariant")
        _, market = scores("--rho", "0", "--beta", "1")
        assert report["method"] == "solve"
        assert abs(invariant["v0"] - 0.5) <= 1e-12
        assert max(abs(invariant[agent] - score) for agent, score in market.items()) <= 1e-12

    def test_edge_list_graph_reused(self, graph_file, capsys, monkeypatch):
        # the parser's graph is checked; the weight matrix is not scanned again
        calls = []
        original = cesrank.cli.support_graph

        def counted(matrix):
            calls.append(matrix.shape[0])
            return original(matrix)

        monkeypatch.setattr(cesrank.cli, "support_graph", counted)
        assert main(["rank", "--method", "invariant", "--input", graph_file(TRIANGLE)]) == 0
        assert calls == []


class TestExitCodes:
    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"format": 1,,}', encoding="utf-8")
        code = main(["rank", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err

    def test_unallocatable_declared_size(self, graph_file, capsys):
        # 10^7 x 10^7 float64 is 728 TiB: numpy refuses before touching memory
        code = main(["rank", "--input", graph_file("format: 1\nn 10000000\n0 1\n")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_steep_rho_certifies(self, graph_file, capsys):
        # rho 0.9 once overshot at a fixed step of 0.5 until a price
        # underflowed (exit 3); the derived step 1 - rho = 0.1 certifies it
        edges = out_regular_edges(np.random.default_rng(1), 20)
        text = "format: 1\nn 20\n" + "".join(f"{i} {j}\n" for i, j in edges)
        code = main(["rank", "--rho", "0.9", "--format", "json", "--input", graph_file(text)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        report = json.loads(captured.out)["report"]
        assert report["converged"] is True
        assert report["residual"] <= 1e-10

    def test_missing_file(self, tmp_path, capsys):
        code = main(["rank", "--input", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "flags", [["--method", "ces", "--rho", "0.5"], ["--method", "pagerank"], ["--method", "invariant"]],
        ids=["ces", "pagerank", "invariant"],
    )
    def test_tolerance_must_be_finite_and_positive(self, graph_file, capsys, flags, tol):
        # a NaN tolerance certifies nothing and an infinite one anything
        code = main(["rank", *flags, f"--tol={tol}", "--format", "json", "--input", graph_file(TRIANGLE)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: tolerance must be finite and positive, got {float(tol)!r}\n"

    def test_unreachable_tolerance(self, problem_file, capsys):
        base = load_fixture("monotone3")
        path = problem_file(RankingProblem(base.agent_ids, base.alpha, 0.0, beta=0.85))
        code = main(["rank", "--input", path, "--tol", "1e-30"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "residual" in captured.err


class TestVerify:
    def test_all_bundled_checks(self, capsys):
        code = main(["verify", "--axiom", "all"])
        captured = capsys.readouterr()
        records = json.loads(captured.out)
        assert code == 0
        assert [r["axiom"] for r in records] == [
            "minimal_fairness",
            "strict_monotonicity",
            "invariance",
            "uniformity",
            "gross_substitutes",
        ]
        assert all(r["ok"] for r in records)
        by_axiom = {r["axiom"]: r for r in records}
        assert by_axiom["uniformity"]["status"] == "fail"
        assert by_axiom["uniformity"]["note"] == "non-uniform, as claimed"

    def test_fairness_parameters(self, capsys):
        code = main(["verify", "--axiom", "fairness", "--n", "6", "--rho", "-0.25", "--beta", "0.9"])
        records = json.loads(capsys.readouterr().out)
        assert code == 0
        assert records[0]["status"] == "pass"
        assert len(records[0]["witness"]["prices"]) == 6

    def test_invariance_row_and_lambda(self, capsys):
        code = main(["verify", "--axiom", "invariance", "--row", "2", "--lambda", "10"])
        records = json.loads(capsys.readouterr().out)
        assert code == 0
        assert records[0]["status"] == "pass"
        assert records[0]["witness"]["difference"] <= 1e-8

    def test_monotone_not_applicable_warns_but_passes(self, problem_file, capsys):
        problem = RankingProblem(
            ("a", "b", "c"), 0.1 + np.eye(3), np.array([0.0, 0.5, 0.0]), beta=1.0
        )
        code = main(["verify", "--axiom", "monotone", "--input", problem_file(problem)])
        captured = capsys.readouterr()
        records = json.loads(captured.out)
        assert code == 0
        assert records[0]["status"] == "not_applicable"
        assert "not applicable" in captured.err

    def test_custom_uniform_input_is_informational(self, problem_file, capsys):
        problem = RankingProblem(("a", "b"), np.full((2, 2), 0.5), 0.25, beta=1.0)
        code = main(["verify", "--axiom", "uniformity", "--input", problem_file(problem)])
        records = json.loads(capsys.readouterr().out)
        assert code == 0
        assert records[0]["status"] == "pass"
        assert records[0]["note"] == "uniform"

    def test_gs_on_custom_document(self, problem_file, capsys):
        code = main(
            ["verify", "--axiom", "gs", "--good", "1", "--delta", "0.1",
             "--input", problem_file(load_fixture("nonuniform3"))]
        )
        records = json.loads(capsys.readouterr().out)
        assert code == 0
        assert records[0]["status"] == "pass"


class TestCompare:
    def test_strongly_connected_graph(self, graph_file, capsys):
        code = main(["compare", "--input", graph_file(TRIANGLE)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["max_difference"] <= 1e-8
        assert doc["reports"]["stationary"]["method"] == "power"
        assert doc["reports"]["equilibrium"]["method"] == "closed_form"
        np.testing.assert_allclose(sum(doc["stationary"]), 1.0, atol=1e-9)

    def test_dangling_vertex_graph(self, graph_file, capsys):
        code = main(["compare", "--input", graph_file(DANGLING)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["passed"] is True

    def test_problem_document_uses_support_graph(self, problem_file, capsys):
        problem = RankingProblem(
            ("a", "b", "c"), np.ones((3, 3)) - np.eye(3), 0.0, beta=1.0
        )
        code = main(["compare", "--input", problem_file(problem)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["agents"] == ["a", "b", "c"]

    def test_no_connectivity_check(self, graph_file, capsys, monkeypatch):
        # a damped chain is complete, so there is nothing to check
        calls = []
        original = cesrank.markov.is_strongly_connected

        def counted(graph):
            calls.append(graph.n)
            return original(graph)

        monkeypatch.setattr(cesrank.markov, "is_strongly_connected", counted)
        assert main(["compare", "--input", graph_file(DANGLING)]) == 0
        assert calls == []

    def test_self_preference_cannot_become_a_chain(self, problem_file, capsys):
        # a positive diagonal has no counterpart in the link graph
        code = main(["compare", "--input", problem_file(load_fixture("nonuniform3"))])
        captured = capsys.readouterr()
        assert code == 2
        assert "self-loop" in captured.err


class TestConvert:
    def test_round_trip_matches_pagerank(self, graph_file, tmp_path, capsys):
        source = graph_file(DANGLING)
        out_path = tmp_path / "converted.json"
        code = main(["convert", "--input", source, "--output", str(out_path)])
        assert code == 0

        converted = load_problem(out_path)
        assert converted.beta == 1.0
        np.testing.assert_array_equal(converted.rho, 0.0)

        main(["rank", "--method", "pagerank", "--input", source])
        pagerank_out = capsys.readouterr().out
        main(["rank", "--input", str(out_path)])
        ces_out = capsys.readouterr().out

        reference = {line.split("\t")[1]: float(line.split("\t")[2])
                     for line in pagerank_out.splitlines()}
        for line in ces_out.splitlines():
            _, agent, score = line.split("\t")
            assert abs(float(score) - reference[agent]) <= 1e-8

    def test_no_connectivity_check(self, graph_file, capsys, monkeypatch):
        # a damped chain is complete, so there is nothing to check
        calls = []
        original = cesrank.markov.is_strongly_connected

        def counted(graph):
            calls.append(graph.n)
            return original(graph)

        monkeypatch.setattr(cesrank.markov, "is_strongly_connected", counted)
        assert main(["convert", "--input", graph_file(DANGLING)]) == 0
        assert calls == []

    def test_does_not_import_numpy_ma(self, graph_file, tmp_path):
        # asking whether every rho is equal needs no np.unique, whose first
        # call imports numpy.ma
        script = (
            "import sys\n"
            "from cesrank.cli import main\n"
            f"assert main(['convert', '--input', {graph_file(TRIANGLE)!r}, '--output', {str(tmp_path / 'out.json')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert result.stdout == "False\n"

    def test_stdout_document_is_loadable(self, graph_file, capsys):
        code = main(["convert", "--input", graph_file(TRIANGLE)])
        text = capsys.readouterr().out
        assert code == 0
        problem = load_problem(io.StringIO(text))
        assert problem.agent_ids == ("v0", "v1", "v2")
        np.testing.assert_allclose(problem.alpha.sum(axis=1), 1.0, atol=1e-12)


class TestLogging:
    def test_unknown_level_warns(self, graph_file, capsys, monkeypatch):
        monkeypatch.setenv("RANK_LOG", "chatty")
        code = main(["rank", "--method", "pagerank", "--input", graph_file(TWO_CYCLE)])
        captured = capsys.readouterr()
        assert code == 0
        assert "unknown RANK_LOG level" in captured.err

    def test_known_level_accepted_silently(self, graph_file, capsys, monkeypatch):
        monkeypatch.setenv("RANK_LOG", "debug")
        code = main(["rank", "--method", "pagerank", "--input", graph_file(TWO_CYCLE)])
        captured = capsys.readouterr()
        assert code == 0
        assert "unknown RANK_LOG" not in captured.err


class _Report:
    def to_dict(self, include_wall_time):
        return {"method": "power", "iterations": 7, "residual": 1.5e-13, "trace": [0.5, 1e-300]}


#: The lowest score tied with 0.25: its gap to 0.25 is at most TIE_TOL * 0.25, one ulp lower misses.
_EDGE = 0.25 - 0.25 * TIE_TOL

#: Scores that tie, or miss a tie by one ulp, with each other and with 0: a
#: relative gap of TIE_TOL ties, and chains of 0.4e-9 relative steps run past
#: TIE_TOL end to end, at two scales.
_SCORES = [0.0, 5e-324, 1e-323, 2.2e-308, np.nextafter(_EDGE, 0.0), _EDGE, 0.25 * (1 - 8e-10), 0.25 * (1 - 4e-10), 0.25,
           1e-4 * (1 - 1.2e-9), 1e-4 * (1 - 8e-10), 1e-4 * (1 - 4e-10), 1e-4, 0.5, 1.0]


@st.composite
def rankings(draw):
    """Agent ids that JSON must escape, and scores with ties, near-ties and zeros."""
    n = draw(st.integers(1, 12))
    char = st.characters(exclude_categories=()) | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\ud800", "\U0001f600"])
    ids = tuple(draw(st.lists(st.text(char, max_size=4), min_size=n, max_size=n)))
    score = st.sampled_from(_SCORES) | st.floats(0.0, 1.0)
    scores = np.array(draw(st.lists(score, min_size=n, max_size=n)))
    return ids, scores


@settings(max_examples=300, deadline=None)
@given(ranking=rankings(), fmt=st.sampled_from(["tsv", "json"]))
def test_emitted_bytes_match_the_dict_encoder(ranking, fmt):
    ids, scores = ranking
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_ranking(ids, scores, _Report(), "pagerank", fmt)
    assert out.getvalue() == reference_ranking_text(ids, scores, _Report(), "pagerank", fmt)


@settings(max_examples=300, deadline=None)
@given(ranking=rankings())
def test_tie_groups_match_the_anchor_walk(ranking):
    ids, scores = ranking
    order = np.argsort(-scores, kind="stable")
    assert _tie_groups(ids, scores, order) == reference_tie_groups(ids, scores, order.tolist())


@settings(max_examples=300, deadline=None)
@given(ranking=rankings(), exponent=st.integers(-60, 60))
def test_tie_groups_ignore_the_scale_of_the_scores(ranking, exponent):
    ids, scores = ranking
    # kept clear of subnormals, where scaling by a power of two rounds
    scores = np.where(scores < 2.0**-900, 0.0, scores)
    scaled = np.ldexp(scores, exponent)
    order = np.argsort(-scores, kind="stable")
    assert _tie_groups(ids, scaled, np.argsort(-scaled, kind="stable")) == _tie_groups(ids, scores, order)


def test_no_tie_among_ten_thousand_scores_a_relative_2e_6_apart():
    # a typical score is 1e-4 here, so neighbours 2e-6 apart in relative
    # terms differ by about 2e-10 in absolute terms
    n = 10_000
    scores = (1.0 - 2e-6) ** np.random.default_rng(0).permutation(n)
    scores /= scores.sum()
    gaps = -np.diff(np.sort(scores)[::-1])
    assert np.all(gaps > 1e-6 * np.sort(scores)[::-1][:-1]) and gaps.max() < TIE_TOL
    ids = tuple(f"v{k}" for k in range(n))
    assert _tie_groups(ids, scores, np.argsort(-scores, kind="stable")) == []

"""End-to-end command tests driven through ``main(argv)``."""

import io
import json
import warnings

import numpy as np
import pytest

import cesrank.markov
from cesrank import RankingProblem, dump_problem, load_fixture, load_problem
from cesrank.cli import main

from oracles import out_regular_edges

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

    def test_rho_above_economy_cap_is_bad_input(self, problem_file, capsys):
        path = problem_file(load_fixture("nonuniform3"))
        code = main(["rank", "--rho", "0.97", "--input", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err


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

    def test_price_underflow_is_no_convergence(self, graph_file, capsys):
        edges = out_regular_edges(np.random.default_rng(1), 20)
        text = "format: 1\nn 20\n" + "".join(f"{i} {j}\n" for i, j in edges)
        code = main(["rank", "--rho", "0.9", "--input", graph_file(text)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: price of good ")
        assert "tatonnement diverged" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["rank", "--input", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

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

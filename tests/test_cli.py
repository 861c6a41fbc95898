"""End-to-end command tests driven through ``main(argv)``."""

import contextlib
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesrank.cli
import cesrank.economy
import cesrank.formats
import cesrank.problem
import cesrank.solver
from cesrank import (
    AxiomVerdict,
    DirectedGraph,
    RankingProblem,
    SolverConfig,
    build_economy,
    damped_economy,
    dump_problem,
    load_edge_list,
    load_fixture,
    load_problem,
    sniff_and_load,
    solve_cobb_douglas,
    verify_equilibrium,
    web_economy,
)
from cesrank.cli import TIE_TOL, _emit_ranking, _require_tsv_ids, _tie_groups, main

from oracles import (
    SKEWED_GRAPHS,
    dense_alpha,
    dense_weights,
    out_regular_edges,
    reference_ranking_text,
    reference_tie_groups,
    skewed_edge_list,
)

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


def traced_peak(run):
    """Peak bytes traced while ``run()`` runs, and what it returns."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def child_env() -> dict:
    """The environment of a child Python that imports this tree's ``cesrank``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def random_graph(graph_file, n, triplets=False) -> str:
    """Path of an n-vertex graph with 5 n edges.

    The graph is an edge list, or with ``triplets`` the problem document of
    its unit weights, with agents ``v0 .. v{n-1}``, rho 0 and beta 0.85: the
    same problem by another path.
    """
    edges = out_regular_edges(np.random.default_rng(5), n)
    if triplets:
        alpha = {"triplets": [[int(i), int(j), 1.0] for i, j in edges]}
        doc = {"format": 1, "agents": [f"v{k}" for k in range(n)], "alpha": alpha, "rho": 0.0, "beta": 0.85}
        return graph_file(json.dumps(doc), "g.json")
    return graph_file(f"format: 1\nn {n}\n" + "".join(f"{i} {j}\n" for i, j in edges))


def dangling_graph(graph_file, n):
    """Path and graph of an n-vertex edge list: 5 out-edges per vertex, except a random tenth that dangle."""
    rng = np.random.default_rng(11)
    dangling = set(rng.choice(n, size=n // 10, replace=False).tolist())
    edges = [(i, j) for i, j in out_regular_edges(rng, n) if i not in dangling]
    return graph_file(f"format: 1\nn {n}\n" + "".join(f"{i} {j}\n" for i, j in edges)), DirectedGraph(n, *zip(*edges))


def peak_memory(graph_file, capsys, *argv, n, triplets=False):
    """Peak traced bytes and stdout of one run of the subcommand ``argv`` on a `random_graph`."""
    path = random_graph(graph_file, n, triplets)
    peak, code = traced_peak(lambda: main([*argv, "--input", path]))
    assert code == 0
    return peak, capsys.readouterr().out


def assert_memory_is_linear_in_the_edges(graph_file, capsys, *argv, n=3000, triplets=False):
    """Run `peak_memory` and check its peak; returns the run's stdout."""
    # one n x n float array is 8 n^2 bytes, 69 MiB at n = 3000; the edge list
    # and the chain or economy on its 5 n edges fit in a few
    peak, out = peak_memory(graph_file, capsys, *argv, n=n, triplets=triplets)
    if argv[0] == "rank":
        assert len(out.splitlines()) == n
    assert peak < min(24 * 2**20, 8 * n * n)
    return out


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
        economy = web_economy(DirectedGraph(n, *zip(*edges)))
        solved, _ = solve_cobb_douglas(economy, SolverConfig(tolerance=1e-12))
        assert doc["report"]["method"] == "power"
        assert doc["report"]["residual"] <= 1e-12
        assert max(abs(r["score"] - solved.pi[int(r["agent"][1:])]) for r in doc["ranking"]) <= 1e-12

    def test_memory_is_linear_in_the_edges(self, graph_file, capsys):
        assert_memory_is_linear_in_the_edges(graph_file, capsys, "rank", "--method", "pagerank")

    def test_residual_is_the_certificate(self, graph_file, capsys):
        # the report carries the market certificate's residual at the printed
        # scores, the max relative excess demand, not an absolute defect
        n = 1000
        path, graph = dangling_graph(graph_file, n)
        assert main(["rank", "--method", "pagerank", "--format", "json", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        scores = np.zeros(n)
        for entry in doc["ranking"]:
            scores[int(entry["agent"][1:])] = entry["score"]
        certificate = verify_equilibrium(web_economy(graph, 0.85), scores, 1e-12)
        assert doc["report"]["method"] == "power"
        assert doc["report"]["residual"] == certificate.residual <= 1e-12

    def test_no_dense_matrix_below_two_thousand_vertices(self, graph_file, capsys):
        # the chain is iterated on its edges at every size: at n = 1500 the
        # peak stays under one 1500 x 1500 float array (17.2 MiB)
        assert_memory_is_linear_in_the_edges(graph_file, capsys, "rank", "--method", "pagerank", n=1500)


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

    @pytest.mark.parametrize("rho", ["0.5", "-0.5", "0"])
    def test_memory_is_linear_in_the_edges(self, graph_file, capsys, rho):
        assert_memory_is_linear_in_the_edges(graph_file, capsys, "rank", "--rho", rho)

    @pytest.mark.parametrize("rho", ["0.5", "0"])
    def test_triplet_document_ranks_as_its_edge_list(self, graph_file, capsys, rho):
        # the document parses to the edge list's graph and weights: the same
        # bytes out, and no n x n array on the way
        edge_list = assert_memory_is_linear_in_the_edges(graph_file, capsys, "rank", "--rho", rho)
        assert assert_memory_is_linear_in_the_edges(graph_file, capsys, "rank", "--rho", rho, triplets=True) == edge_list

    def test_weak_damping_iterates_in_linear_memory(self, graph_file, capsys):
        # a random graph mixes fast: even at beta 0.9999 the prices are
        # certified within n steps, and no n x n array (122 MiB) is built
        n = 4000
        path, _ = dangling_graph(graph_file, n)
        peak, code = traced_peak(lambda: main(["rank", "--rho", "0", "--beta", "0.9999", "--format", "json", "--input", path]))
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["method"] == "power"
        assert peak < 60 * 2**20

    def test_closed_form_holds_one_dense_array(self, graph_file, capsys):
        # the n-cycle with the chord 0 -> n/2 mixes slowly: damped this
        # weakly, n steps leave it uncertified, and rho 0 falls back to the
        # closed form. It eliminates in place on the n x n shares, under 2
        # arrays of 1000 x 1000 (15.3 MiB)
        n = 1000
        edges = sorted([(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])
        path = graph_file(f"format: 1\nn {n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
        peak, code = traced_peak(lambda: main(["rank", "--rho", "0", "--beta", "0.9999", "--format", "json", "--input", path]))
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["method"] == "closed_form"
        assert len(doc["ranking"]) == n
        assert peak < 2 * 8 * n * n

    def test_huge_declared_size_ranks_at_rho_zero(self, graph_file, capsys):
        # 10^5 vertices, three edges: an n x n array would be 74.5 GiB, the
        # ranking needs a few hundred bytes a vertex, its output included
        n = 100_000
        path = graph_file(f"format: 1\nn {n}\n0 1\n1 2\n2 0\n")
        tracemalloc.start()
        try:
            code = main(["rank", "--input", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == n
        assert [line.split("\t")[1] for line in lines[:3]] == ["v0", "v1", "v2"]  # the cycle holds the weight
        assert peak < 400 * n

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


@pytest.mark.parametrize("method, hint", [("ces", "; use --beta to damp --method ces"), ("invariant", "")])
def test_damping_flag_warns_outside_pagerank(graph_file, capsys, method, hint):
    path = graph_file(TRIANGLE)
    plain = _rank_json(path, capsys, method, [])
    flagged = _rank_json(path, capsys, method, ["--damping"])
    assert plain.err == ""
    assert flagged.err == f"warning: --damping only applies to --method pagerank; ignored{hint}\n"
    assert flagged.out == plain.out


def _rank_json(path, capsys, method, flags):
    """``rank --format json`` of ``path`` with each of ``flags`` set to 0.5: its captured stdout and stderr."""
    argv = ["rank", "--method", method, "--format", "json", "--input", path]
    for flag in flags:
        argv += [flag, "0.5"]
    assert main(argv) == 0
    return capsys.readouterr()


@pytest.mark.parametrize("flag", ["--rho", "--beta"])
@pytest.mark.parametrize("method", ["pagerank", "invariant"])
def test_ces_flag_warns_outside_ces(graph_file, capsys, method, flag):
    path = graph_file(TRIANGLE)
    plain = _rank_json(path, capsys, method, [])
    flagged = _rank_json(path, capsys, method, [flag])
    assert plain.err == ""
    assert flagged.err == f"warning: {flag} only applies to --method ces; ignored\n"
    assert flagged.out == plain.out


@pytest.mark.parametrize(
    "method, applied, warnings",
    [
        ("ces", ["--rho", "--beta"], ["--damping only applies to --method pagerank; ignored; use --beta to damp --method ces"]),
        ("pagerank", ["--damping"], ["--rho only applies to --method ces; ignored", "--beta only applies to --method ces; ignored"]),
        (
            "invariant",
            [],
            [
                "--damping only applies to --method pagerank; ignored",
                "--rho only applies to --method ces; ignored",
                "--beta only applies to --method ces; ignored",
            ],
        ),
    ],
)
def test_all_three_flags_warn_in_a_fixed_order(graph_file, capsys, method, applied, warnings):
    # the flags go in backwards: the warnings keep --damping, --rho, --beta order
    path = graph_file(TRIANGLE)
    plain = _rank_json(path, capsys, method, applied)
    flagged = _rank_json(path, capsys, method, ["--beta", "--rho", "--damping"])
    assert plain.err == ""
    assert flagged.err == "".join(f"warning: {line}\n" for line in warnings)
    assert flagged.out == plain.out


def test_readme_quick_start(tmp_path, monkeypatch, capsys):
    # each `$ cesrank ...` line of the README's Quick start prints the lines shown under it
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    commands = 0
    for command, shown in (chunk.split("\n", 1) for chunk in block.split("$ ")[1:]):
        argv = shlex.split(command, comments=True)
        shown = shown.rstrip("\n") + "\n"
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text(shown, encoding="utf-8")
            continue
        assert argv[0] == "cesrank"
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out == shown, command
        commands += 1
    assert commands == 2


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
        assert report["method"] == "closed_form"
        assert abs(invariant["v0"] - 0.5) <= 1e-12
        assert max(abs(invariant[agent] - score) for agent, score in market.items()) <= 1e-12

    def test_nearly_decomposable_graph_is_solved_exactly(self, graph_file, capsys):
        # two directed 50-cycles joined by edges of weight 1e-11 and 3e-11:
        # the uniform start's excess demand is 3e-11, under the tolerance, yet
        # the first cycle holds 3/4 of the price mass. The undamped economy
        # goes to the closed form, which gives 0.75 to O(1e-11); a price
        # loop started there would certify the uniform 0.5 split
        cycles = "".join(f"{b + k} {b + (k + 1) % 50}\n" for b in (0, 50) for k in range(50))
        path = graph_file(f"format: 1\nn 100\n{cycles}0 50 1e-11\n50 0 3e-11\n")
        for flags in (("--method", "invariant"), ("--rho", "0", "--beta", "1")):
            assert main(["rank", *flags, "--format", "json", "--input", path]) == 0
            scores = {r["agent"]: r["score"] for r in json.loads(capsys.readouterr().out)["ranking"]}
            assert abs(sum(scores[f"v{k}"] for k in range(50)) - 0.75) <= 1e-9

    def test_connectivity_checked_once(self, graph_file, capsys, search_calls):
        # by the solver, on the economy graph, also for a skewed chain: one
        # search forward and one backward
        for text in (TRIANGLE, skewed_edge_list("three")):
            assert main(["rank", "--method", "invariant", "--input", graph_file(text)]) == 0
        assert search_calls == [3, 3, 3, 3]

    def test_connectivity_check_memory_is_linear_in_the_entries(self):
        # the searches read the economy's own sorted entries: one stable
        # argsort and one reordered copy for the backward search, plus one
        # level's gather at a time, within 8 times the entry rows' bytes
        n = 100_000
        rng = np.random.default_rng(11)
        src = np.repeat(np.arange(n), 5)
        dst = rng.integers(0, n - 1, src.size)
        dst += dst >= src  # no self-loops
        src, dst = np.divmod(np.unique(src * n + dst), n)
        keep = ~np.isin(src, rng.choice(n, size=n // 10, replace=False))  # a tenth of the vertices dangle
        economy = damped_economy(DirectedGraph(n, src[keep], dst[keep]), np.ones(int(keep.sum())), 0.0, 1.0)
        peak, _ = traced_peak(lambda: cesrank.solver._require_connected_economy(economy))
        assert peak <= 8 * economy.rows.nbytes

    @pytest.mark.parametrize("name", sorted(SKEWED_GRAPHS))
    def test_skewed_weights_are_certified(self, name, graph_file, capsys):
        # a LAPACK solve left excess demand of 8e-8 on "three" (exit 3 at
        # --rho 0 --beta 1) and a negative price on "five" (exit 2, and a
        # score of exactly 0 under --method invariant); GTH certifies both
        path = graph_file(skewed_edge_list(name))

        def run(*flags):
            code = main(["rank", "--input", path, *flags])
            return code, capsys.readouterr().out

        assert run("--rho", "0", "--beta", "1")[0] == 0
        code, invariant = run("--method", "invariant")
        assert code == 0
        assert invariant == run("--rho", "0", "--beta", "1", "--tol", "1e-12")[1]
        code, text = run("--method", "invariant", "--format", "json")
        doc = json.loads(text)
        assert doc["report"]["method"] == "closed_form" and doc["report"]["iterations"] == 1
        assert doc["report"]["converged"] and doc["report"]["residual"] <= 1e-12
        assert min(r["score"] for r in doc["ranking"]) > 0.0
        if name == "five":
            assert abs(doc["ranking"][-1]["score"] / 4.975e-20 - 1.0) <= 1e-3

    def test_edge_list_graph_reused(self, graph_file, capsys, monkeypatch):
        # every document reaches the economy as the edges it parses to: a
        # dense alpha is collected row by row, never scanned as a matrix
        calls = []
        original = cesrank.problem.support_graph

        def counted(matrix):
            calls.append(matrix.shape[0])
            return original(matrix)

        monkeypatch.setattr(cesrank.problem, "support_graph", counted)
        triangle = {"format": 1, "agents": ["a", "b", "c"], "rho": 0.0}
        triplets = {**triangle, "alpha": {"triplets": [[0, 1, 1], [1, 2, 1], [2, 0, 1], [2, 1, 1]]}}
        dense = {**triangle, "alpha": [[0, 1, 0], [0, 0, 1], [1, 1, 0]]}
        for path in (graph_file(TRIANGLE), graph_file(json.dumps(triplets), "t.json")):
            assert main(["rank", "--method", "invariant", "--input", path]) == 0
        assert calls == []
        assert main(["rank", "--method", "invariant", "--input", graph_file(json.dumps(dense), "d.json")]) == 0
        assert calls == []

    def test_triplet_document_keeps_no_dense_alpha(self, capsys, monkeypatch):
        loaded = []

        def load(path):
            problem = sniff_and_load(path)
            loaded.append(problem)
            return problem

        monkeypatch.setattr(cesrank.cli, "sniff_and_load", load)
        assert main(["rank", "--input", str(Path(__file__).parent / "golden" / "monotone3-triplets.json")]) == 0
        assert "alpha" not in vars(loaded[0])


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
        # undamped, row 0 has a zero floor, so the solve is the dense closed
        # form: 10^7 x 10^7 float64 is 728 TiB, and numpy refuses before
        # touching memory (damped, the same input ranks in O(n))
        code = main(["rank", "--beta", "1", "--input", graph_file("format: 1\nn 10000000\n0 1\n")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_declared_size_beyond_memory(self, graph_file, capsys):
        # the edge list loads in O(1) memory, and the economy's first array of 10^15 floats cannot be allocated
        code = main(["rank", "--input", graph_file("format: 1\nn 1000000000000000\n")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "agent, message",
        [("b\tc", "agent 'b\\tc' holds a tab or line break"), ("b\nc", "agent 'b\\nc' holds"), ("b\rc", "agent 'b\\rc' holds"),
         ("b\ud800", "an agent id holds '\\ud800', which stdout cannot encode as UTF-8")],
        ids=["tab", "newline", "return", "surrogate"],
    )
    @pytest.mark.parametrize("method", ["ces", "pagerank", "invariant"])
    def test_tsv_refuses_an_id_it_cannot_write_before_solving(self, problem_file, capsys, monkeypatch, method, agent, message):
        path = problem_file(RankingProblem(("a", agent), np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0))

        def solve(*args):
            raise AssertionError("solved an input whose ranking cannot be written")

        with monkeypatch.context() as m:
            m.setattr(cesrank.cli, "solve_equilibrium", solve)
            m.setattr(cesrank.cli, "solve_power", solve)
            code = main(["rank", "--method", method, "--format", "tsv", "--input", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.endswith("; use --format json\n")
        assert main(["rank", "--method", method, "--format", "json", "--input", path]) == 0
        assert [entry["agent"] for entry in json.loads(capsys.readouterr().out)["ranking"]] == ["a", agent]

    def test_tsv_checks_the_ids_once(self, problem_file, capsys, monkeypatch):
        calls = []
        original = cesrank.cli._require_tsv_ids

        def counted(ids):
            calls.append(ids)
            return original(ids)

        monkeypatch.setattr(cesrank.cli, "_require_tsv_ids", counted)
        path = problem_file(RankingProblem(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0))
        assert main(["rank", "--format", "tsv", "--input", path]) == 0
        assert calls == [("a", "b")]
        assert [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()] == ["a", "b"]

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

    def test_unreachable_tolerance(self, capsys):
        # the undamped closed form's residual is a rounding error, 2.2e-16 here
        path = str(Path(__file__).parent / "golden" / "dangling.edges")
        code = main(["rank", "--input", path, "--rho", "0", "--beta", "1", "--tol", "1e-30"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "residual" in captured.err

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_stdout_ends_the_process_quietly(self, graph_file):
        # the cycle plus the chords i -> 7i + 3 mod n: its ranking is many
        # times a pipe's buffer, so the child is still writing when the
        # reader goes away, as under `| head`; a closed pipe is no bad input
        n = 20_000
        edges = sorted({(i, j) for i in range(n) for j in ((i + 1) % n, (7 * i + 3) % n)})
        path = graph_file(f"format: 1\nn {n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
        argv = [sys.executable, "-m", "cesrank", "rank", "--input", path, "--method", "pagerank"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as child:
            assert child.stdout.readline() == b"1\tv0\t5e-05\n"
            child.stdout.close()
            assert child.stderr.read() == b""
            assert child.wait(timeout=60) == -signal.SIGPIPE


@pytest.mark.parametrize("module", ["cesrank", "cesrank.cli"])
def test_python_m_runs_the_cli(module):
    golden = Path(__file__).parent / "golden"
    argv = [sys.executable, "-m", module, "rank", "--input", str(golden / "dangling.edges"), "--method", "pagerank", "--format", "json"]
    result = subprocess.run(argv, env=child_env(), capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (golden / "rank-dangling-pagerank-json.out").read_bytes()


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

    def test_custom_non_uniform_input_is_informational(self, problem_file, capsys):
        # the bundled fixture's own document, read as an input: non-uniform, and still ok
        code = main(["verify", "--axiom", "uniformity", "--input", problem_file(load_fixture("nonuniform3"))])
        records = json.loads(capsys.readouterr().out)
        assert code == 0
        assert records[0]["status"] == "fail"
        assert records[0]["ok"] is True
        assert records[0]["note"] == "non-uniform"

    def test_gs_on_custom_document(self, problem_file, capsys):
        code = main(
            ["verify", "--axiom", "gs", "--good", "1", "--delta", "0.1",
             "--input", problem_file(load_fixture("nonuniform3"))]
        )
        records = json.loads(capsys.readouterr().out)
        assert code == 0
        assert records[0]["status"] == "pass"

    @pytest.mark.parametrize("check, axiom", [("check_minimal_fairness", "fairness"), ("check_invariance", "invariance")])
    def test_not_applicable_check_is_ok(self, capsys, monkeypatch, check, axiom):
        # a check is ok unless it fails, whichever axiom it checks
        verdict = AxiomVerdict(axiom=axiom, status="not_applicable", witness={"reason": "stubbed"})
        monkeypatch.setattr(cesrank.cli, check, lambda *args, **kwargs: verdict)
        code = main(["verify", "--axiom", axiom])
        captured = capsys.readouterr()
        (record,) = json.loads(captured.out)
        assert code == 0
        assert record["status"] == "not_applicable" and record["ok"] is True
        assert captured.err == f"warning: {axiom}: not applicable (stubbed)\n"

    def test_edge_list_is_checked_undamped(self, capsys):
        # at beta 0.85 every floor would be positive, and gs would apply
        code = main(["verify", "--axiom", "gs", "--input", str(Path(__file__).parent / "golden" / "dangling.edges")])
        (record,) = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["status"] == "not_applicable"
        assert record["witness"]["reason"] == "alpha[0][0] is not strictly positive"

    @pytest.mark.parametrize("axiom", ["monotone", "uniformity"])
    def test_memory_is_linear_in_the_edges(self, graph_file, capsys, axiom):
        # both read the economy's floors and entries: on this graph column 0
        # is not below column 1, and the column sums differ, so neither solves
        out = assert_memory_is_linear_in_the_edges(graph_file, capsys, "verify", "--axiom", axiom)
        (record,) = json.loads(out)
        assert record["status"] == "not_applicable"
        if axiom == "uniformity":
            assert len(record["witness"]["row_sums"]) == len(record["witness"]["column_sums"]) == 3000


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

    def test_no_connectivity_check(self, graph_file, capsys, search_calls):
        # a damped chain is complete, so there is nothing to check
        assert main(["compare", "--input", graph_file(DANGLING)]) == 0
        assert search_calls == []

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
        assert converted.beta == 0.85
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

    def test_no_connectivity_check(self, graph_file, capsys, search_calls):
        # a damped chain is complete, so there is nothing to check
        assert main(["convert", "--input", graph_file(DANGLING)]) == 0
        assert search_calls == []

    def test_does_not_import_numpy_ma(self, graph_file, tmp_path):
        # asking whether every rho is equal needs no np.unique, whose first
        # call imports numpy.ma
        script = (
            "import sys\n"
            "from cesrank.cli import main\n"
            f"assert main(['convert', '--input', {graph_file(TRIANGLE)!r}, '--output', {str(tmp_path / 'out.json')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, check=True)
        assert result.stdout == "False\n"

    def test_stdout_document_is_loadable(self, graph_file, capsys):
        code = main(["convert", "--input", graph_file(TRIANGLE)])
        text = capsys.readouterr().out
        assert code == 0
        problem = load_problem(io.StringIO(text))
        assert problem.agent_ids == ("v0", "v1", "v2")
        np.testing.assert_allclose(dense_alpha(build_economy(problem)).sum(axis=1), 1.0, atol=1e-12)


    def test_memory_is_linear_in_the_edges(self, graph_file, capsys):
        out = assert_memory_is_linear_in_the_edges(graph_file, capsys, "convert")
        problem = load_problem(io.StringIO(out))
        assert problem.graph.src.size == 5 * 3000 and (problem.weights == 1.0).all()

    def test_dump_problem_memory_is_linear_in_the_edges(self, graph_file):
        n = 3000
        problem = RankingProblem.from_edges(tuple(f"v{k}" for k in range(n)), *load_edge_list(random_graph(graph_file, n)), 0.0)
        peak, text = traced_peak(lambda: dump_problem(problem))
        assert load_problem(io.StringIO(text)).graph.src.size == 5 * n
        assert peak < min(24 * 2**20, 8 * n * n)

    def test_damping_is_written_as_beta(self, graph_file, capsys):
        assert main(["convert", "--damping", "0.9", "--input", graph_file(TRIANGLE)]) == 0
        assert json.loads(capsys.readouterr().out)["beta"] == 0.9

    @pytest.mark.parametrize("text", [TRIANGLE, DANGLING], ids=["triangle", "dangling"])
    @pytest.mark.parametrize(
        "flags",
        [["--rho", "0"], ["--rho", "0.5"], ["--rho", "-0.5"], ["--method", "pagerank"], ["--method", "invariant"]],
        ids=["ces-rho0", "ces-rho0.5", "ces-rho-0.5", "pagerank", "invariant"],
    )
    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_document_ranks_as_its_edge_list(self, graph_file, tmp_path, capsys, text, flags, fmt):
        # an unweighted edge list and its converted document are one economy:
        # the same exit code and the same bytes under every method
        source = graph_file(text)
        converted = str(tmp_path / "converted.json")
        assert main(["convert", "--input", source, "--output", converted]) == 0

        def run(path):
            code = main(["rank", *flags, "--format", fmt, "--input", path])
            return code, capsys.readouterr()

        code, edge_list = run(source)
        assert run(converted) == (code, edge_list)
        assert code == (2 if text == DANGLING and "invariant" in flags else 0)


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
    def to_dict(self):
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
@given(ranking=rankings(), named=st.booleans(), fmt=st.sampled_from(["tsv", "json"]), block=st.integers(1, 4))
def test_emitted_bytes_match_the_dict_encoder(ranking, named, fmt, block):
    # blocks of 1-4 rows: up to 12 agents cross block boundaries and may end on a partial block
    ids, scores = ranking
    ids = ids if named else None
    out = io.StringIO()
    with mock.patch.object(cesrank.formats, "_BLOCK", block), contextlib.redirect_stdout(out):
        if fmt == "tsv" and ids is not None and any(c in a for a in ids for c in "\t\n\r"):
            # `rank` refuses these ids before the solve, and the writer trusts that check
            with pytest.raises(ValueError, match="use --format json"):
                _require_tsv_ids(ids)
            return
        _emit_ranking(ids, scores, _Report(), "pagerank", fmt)
    assert out.getvalue() == reference_ranking_text(ids, scores, _Report(), "pagerank", fmt)


class _Discard:
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_emitting_an_edge_list_ranking_holds_no_string_per_agent(fmt):
    # the order and a few score-sized temporaries are 8 bytes per agent each;
    # a name, an entry or the whole document held per agent is 50 or more
    n = 100_000
    scores = np.random.default_rng(3).random(n)
    scores /= scores.sum()
    with contextlib.redirect_stdout(_Discard()):
        peak, _ = traced_peak(lambda: _emit_ranking(None, scores, _Report(), "pagerank", fmt))
    assert peak <= 64 * n


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


@pytest.mark.parametrize("ratio", [1 - 3e-10, 1 - 6e-10, 1 - 9e-10, 1 - 1.1e-9])
def test_tie_groups_in_long_runs_match_the_anchor_walk(ratio):
    # every neighbour is close, so the whole ranking is one run that the
    # anchor splits into groups of one to four; repeated scores add exact ties
    scores = np.repeat(ratio ** np.arange(500), np.random.default_rng(1).integers(1, 3, size=500))
    scores = np.random.default_rng(2).permutation(scores)
    ids = tuple(f"v{k}" for k in range(scores.size))
    order = np.argsort(-scores, kind="stable")
    assert _tie_groups(ids, scores, order) == reference_tie_groups(ids, scores, order.tolist())


def test_tie_groups_of_a_large_tied_block():
    # 10^5 equal scores below three distinct ones: one group, as the walk finds it
    scores = np.concatenate([[0.3, 0.2, 0.1], np.full(100_000, 0.4 / 100_000)])
    ids = tuple(f"v{k}" for k in range(scores.size))
    order = np.argsort(-scores, kind="stable")
    assert _tie_groups(ids, scores, order) == [list(ids[3:])]
    assert _tie_groups(ids, scores, order) == reference_tie_groups(ids, scores, order.tolist())


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

"""Every door that builds a frozen record leaves it frozen and holding exactly its fields.

A record's fields are set unchecked by `cesrank.problem._frozen`, which
takes them as keywords: a misspelled keyword would add a stray attribute
beside the field it meant, without an error. So each record that a public
constructor, a parser, an economy builder or the certificate returns is
checked here for exactly its dataclass fields in ``vars`` and for read-only
ndarray fields, and so is every record it holds.

The one-value rho tests follow a rho given once through every path that
hands a problem's rho on to a new problem or economy: it must stay one
value broadcast (a stride-0 view), which both demand kernels take as one
group, and rank to the same bits as the same rho given per agent.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

import cesrank.economy
import cesrank.formats
from cesrank import (
    CesEconomy,
    ClearingReport,
    DirectedGraph,
    PriceVector,
    RankingProblem,
    SolverConfig,
    build_economy,
    check_invariance,
    check_uniformity,
    damped_economy,
    excess_demand,
    load_edge_list,
    load_problem,
    sniff_and_load,
    solve_equilibrium,
    support_graph,
    verify_equilibrium,
    web_economy,
)
from cesrank.cli import main
from cesrank.economy import aggregate_demand
from cesrank.problem import _frozen

EDGES = "format: 1\nn 4\n# a comment line\n0 1 2.0\n0 2\n1 0\n2 3 0.5\n3 0\n"
# a '+0' index is valid but is read line by line, not from the bytes
EDGES_BY_LINE = EDGES.replace("\n0 1 2.0\n", "\n+0 1 2.0\n")
ALPHA = [[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]
DENSE_DOC = {"format": 1, "agents": ["a", "b", "c"], "alpha": ALPHA, "rho": 0.5, "beta": 0.9}
TRIPLET_DOC = {**DENSE_DOC, "alpha": {"triplets": [[0, 1, 2.0], [0, 2, 1.0], [1, 0, 1.0], [2, 0, 0.5], [2, 1, 0.5]]}, "rho": [0.5, -0.25, 0.0]}


def _economy():
    return CesEconomy(np.array(ALPHA) + 0.1, 0.5)


DOORS = {
    "DirectedGraph": lambda: DirectedGraph(4, [0, 1, 3], [2, 0, 1]),
    "support_graph": lambda: support_graph(np.array(ALPHA)),
    "RankingProblem": lambda: RankingProblem(("a", "b", "c"), ALPHA, 0.5),
    "RankingProblem per-agent rho": lambda: RankingProblem(None, ALPHA, [0.5, 0.0, -1.0], beta=1.0),
    "RankingProblem.from_edges": lambda: RankingProblem.from_edges(None, DirectedGraph(3, [0, 2], [1, 0]), [1.0, 3.0], 0.0),
    "load_edge_list from bytes": lambda: load_edge_list(io.StringIO(EDGES))[0],
    "load_edge_list by line": lambda: load_edge_list(io.StringIO(EDGES_BY_LINE))[0],
    "sniff_and_load edge list from bytes": lambda: sniff_and_load(io.StringIO(EDGES)),
    "sniff_and_load edge list by line": lambda: sniff_and_load(io.StringIO(EDGES_BY_LINE)),
    "load_problem dense": lambda: load_problem(io.StringIO(json.dumps(DENSE_DOC))),
    "load_problem triplets": lambda: load_problem(io.StringIO(json.dumps(TRIPLET_DOC))),
    "CesEconomy": _economy,
    "build_economy": lambda: build_economy(load_problem(io.StringIO(json.dumps(TRIPLET_DOC)))),
    "damped_economy": lambda: damped_economy(DirectedGraph(3, [0, 1], [1, 2]), [2.0, 1.0], [0.5, 0.0, 0.9], 0.85),
    "web_economy": lambda: web_economy(sniff_and_load(io.StringIO(EDGES)).graph),
    "PriceVector": lambda: PriceVector([0.25, 0.75]),
    "PriceVector.from_unnormalized": lambda: PriceVector.from_unnormalized([1.0, 3.0]),
    "ClearingReport": lambda: ClearingReport(0.0, [0.0, 0.0], 1e-10),
    "verify_equilibrium": lambda: verify_equilibrium(_economy(), np.full(3, 1.0 / 3.0)),
    "solve_equilibrium": lambda: solve_equilibrium(_economy()),
    "SolverConfig": lambda: SolverConfig(initial_prices=PriceVector([0.5, 0.5])),
}


def _records(value):
    """Every dataclass record in ``value``, a record or a tuple of them, and every record each one holds."""
    if isinstance(value, tuple):
        for item in value:
            yield from _records(item)
    elif dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from _records(getattr(value, f.name))


def test_both_edge_list_paths_are_exercised():
    assert cesrank.formats._edge_bytes(EDGES) is not None
    assert cesrank.formats._edge_bytes(EDGES_BY_LINE) is None


@pytest.mark.parametrize("door", DOORS)
def test_every_door_freezes_exactly_the_fields(door):
    records = list(_records(DOORS[door]()))
    assert records
    for record in records:
        names = [f.name for f in dataclasses.fields(record)]
        assert sorted(vars(record)) == sorted(names), type(record).__name__
        for name in names:
            value = getattr(record, name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, f"{type(record).__name__}.{name}"
                with pytest.raises(ValueError, match="read-only"):
                    value[...] = value


def _per_agent(economy: CesEconomy) -> CesEconomy:
    """The same economy with its rho as n separate values, which the kernels sort into groups."""
    fields = {f.name: getattr(economy, f.name) for f in dataclasses.fields(economy)}
    return _frozen(CesEconomy.__new__(CesEconomy), **{**fields, "rho": np.array(economy.rho)})


def _assert_one_value_ranks_as_per_agent(economy: CesEconomy) -> None:
    assert economy.rho.strides == (0,)
    separate = _per_agent(economy)
    assert separate.rho.strides != (0,)
    p = np.linspace(1.0, 2.0, economy.n)
    p /= p.sum()
    assert aggregate_demand(economy)(p).tobytes() == aggregate_demand(separate)(p).tobytes()
    assert excess_demand(economy, p).tobytes() == excess_demand(separate, p).tobytes()
    assert solve_equilibrium(economy)[0].pi.tobytes() == solve_equilibrium(separate)[0].pi.tobytes()


@pytest.fixture
def built(monkeypatch):
    """The economies that the damping rule builds while a test runs, in order."""
    economies = []
    damped = cesrank.economy._damped

    def spy(*args):
        economies.append(damped(*args))
        return economies[-1]

    monkeypatch.setattr(cesrank.economy, "_damped", spy)
    return economies


def test_a_problems_one_value_rho_stays_one_value_through_a_new_problem():
    problem = load_problem(io.StringIO(json.dumps(DENSE_DOC)))
    assert problem.rho.strides == (0,)
    again = RankingProblem.from_edges(problem.agent_ids, problem.graph, problem.weights, problem.rho, beta=1.0)
    assert again.rho.strides == (0,) and again.rho.tobytes() == problem.rho.tobytes()
    economy = damped_economy(problem.graph, problem.weights, problem.rho, problem.beta)
    assert economy.rho.strides == (0,) and economy.rho.tobytes() == build_economy(problem).rho.tobytes()


def test_a_one_value_rho_of_another_length_is_still_rejected():
    with pytest.raises(ValueError, match=r"rho must have length 3, got shape \(4,\)"):
        damped_economy(DirectedGraph(3, [0], [1]), [1.0], np.broadcast_to(0.5, (4,)), 0.85)


def test_rank_without_rho_keeps_the_documents_one_value(built, tmp_path, capsys):
    once, per_agent = tmp_path / "once.json", tmp_path / "per-agent.json"
    once.write_text(json.dumps(DENSE_DOC))
    per_agent.write_text(json.dumps({**DENSE_DOC, "rho": [0.5] * 3}))
    outputs = []
    for path in (once, per_agent):
        assert main(["rank", "--input", str(path), "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert [e.rho.strides == (0,) for e in built] == [True, False]
    _assert_one_value_ranks_as_per_agent(built[0])


@pytest.mark.parametrize("axiom", ["invariance", "uniformity", "monotone", "gs"])
def test_verify_on_an_edge_list_keeps_its_one_value(built, tmp_path, capsys, axiom):
    path = tmp_path / "g.edges"
    path.write_text(EDGES)
    main(["verify", "--axiom", axiom, "--input", str(path), "--i", "1", "--j", "0"])
    capsys.readouterr()
    assert built
    for economy in built:
        _assert_one_value_ranks_as_per_agent(economy)


def test_check_uniformity_and_invariance_keep_the_one_value(built):
    problem = load_problem(io.StringIO(json.dumps(DENSE_DOC)))
    check_uniformity(problem)
    check_invariance(problem, 1, 3.0)
    assert len(built) == 3  # uniformity's undamped economy, then the problem's and the scaled problem's
    for economy in built:
        _assert_one_value_ranks_as_per_agent(economy)

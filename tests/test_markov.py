import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cesrank.solver
from cesrank import (
    ConvergenceError,
    DirectedGraph,
    SolverConfig,
    damped_economy,
    solve_cobb_douglas,
    solve_power,
    support_graph,
    web_economy,
)
from cesrank.solver import _connectivity_refusal

from oracles import dense_alpha, dense_power_iteration, economy_component, random_strongly_connected_graph


class TestDirectedGraph:
    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(0, 5\)"):
            DirectedGraph(3, [0], [5])

    def test_adjacency_views(self):
        g = DirectedGraph(3, [0, 0, 2], [1, 2, 0])
        assert g.src.tolist() == [0, 0, 2]
        assert g.dst.tolist() == [1, 2, 0]
        assert g.src.dtype == np.int64
        with pytest.raises(ValueError):
            g.src[0] = 1

    @pytest.mark.parametrize(
        "src, dst, message",
        [
            ([2, 0], [0, 1], r"edge \(0, 1\) follows \(2, 0\)"),
            ([0, 0], [2, 1], r"edge \(0, 1\) follows \(0, 2\)"),
            ([0, 1, 1], [1, 0, 0], r"edge \(1, 0\) follows \(1, 0\)"),
        ],
        ids=["src", "dst", "duplicate"],
    )
    def test_edges_out_of_order_rejected(self, src, dst, message):
        # weights given alongside the edges keep their order, so the graph cannot sort them
        with pytest.raises(ValueError, match=message + "; edges must be distinct and sorted by \\(src, dst\\)"):
            DirectedGraph(3, src, dst)

    def test_order_past_the_int64_key_range(self):
        # src * n + dst wraps past 2**63 here, where 10**9 * n is; the pairs still compare right
        n = 10**10
        g = DirectedGraph(n, [1, 1, 10**9], [0, n - 1, 1])
        assert g.src.tolist() == [1, 1, 10**9]
        assert g.dst.tolist() == [0, n - 1, 1]
        with pytest.raises(ValueError, match=r"edge \(1, 0\) follows \(1000000000, 1\)"):
            DirectedGraph(n, [10**9, 1], [1, 0])

    def test_edge_arrays_must_match(self):
        with pytest.raises(ValueError, match="one length"):
            DirectedGraph(3, [0, 1], [1])

    @pytest.mark.parametrize("n", [0, 2.9, "3", True])
    def test_needs_a_vertex(self, n):
        # a count that is not an integer is refused, not truncated; numpy's integers pass
        with pytest.raises(ValueError, match="vertex count"):
            DirectedGraph(n, [0], [1])
        assert DirectedGraph(np.int64(2), [0], [1]).n == 2

    def test_support_graph(self):
        g = support_graph(np.array([[0.0, 1.0], [0.5, 0.5]]))
        assert (g.n, g.src.tolist(), g.dst.tolist()) == (2, [0, 1, 1], [1, 0, 1])

    def test_support_graph_of_a_tall_matrix(self):
        # the flat read splits its indices by the row length, not the row count
        g = support_graph(np.array([[0.0, 1.0], [0.5, 0.0], [0.0, 0.0]]))
        assert (g.n, g.src.tolist(), g.dst.tolist()) == (3, [0, 1], [1, 0])


def _check_against_oracle(n, edges) -> bool:
    """The solver's verdict on the undamped economy of ``edges``, checked against the oracle.

    The economy graph is the support of its dense alpha, where a dangling
    vertex values every good; the witness is vertex 0's component there.
    """
    edges = sorted(edges)
    graph = DirectedGraph(n, [i for i, _ in edges], [j for _, j in edges])
    economy = damped_economy(graph, np.ones(len(edges)), 0.0, 1.0)
    component = economy_component(economy)
    reason = _connectivity_refusal(economy)
    if reason is not None:
        assert component != list(range(n))
        assert f"(one component: {component})" in reason
        return False
    assert component == list(range(n))
    return True


class TestConnectivity:
    def test_cycle_is_strongly_connected(self):
        assert _check_against_oracle(3, {(0, 1), (1, 2), (2, 0)})

    def test_chain_is_not(self):
        # the loop keeps vertex 2 from dangling
        assert not _check_against_oracle(3, {(0, 1), (1, 2), (2, 2)})

    def test_single_vertex(self):
        assert _check_against_oracle(1, set())

    def test_component_witness(self):
        # the witness is the two-cycle: 2 and 3 are reached from it but never lead back
        assert not _check_against_oracle(4, {(0, 1), (1, 0), (1, 2), (2, 3), (3, 3)})

    def test_long_cycle_searches_in_scalar_steps(self, monkeypatch):
        # every level of both searches is one vertex with one out-edge, so no
        # level pays a vectorized level's twenty array calls
        numpy = _RepeatCounter()
        monkeypatch.setattr(cesrank.solver, "np", numpy)
        assert _connectivity_refusal(_long_cycle(20_000)) is None
        assert numpy.repeats == 0

    def test_cut_long_cycle_names_trader_0s_component(self):
        # cut after vertex 10 000, which keeps a self-loop, as a dangling vertex
        # would value every good: 0 reaches 1..10 000, which never lead back
        assert "not strongly connected (one component: [0])" in _connectivity_refusal(_long_cycle(20_000, cut=10_000))

    def test_a_large_component_is_named_by_its_size(self):
        # the cycle 0 -> 1 -> ... -> 0 of ``size`` traders, and one more pointing into it that nothing reaches
        def refusal(size):
            n = size + 1
            return _connectivity_refusal(damped_economy(DirectedGraph(n, np.arange(n), (np.arange(n) + 1) % size), np.ones(n), 0.5, 1.0))

        assert f"(one component: {list(range(64))});" in refusal(64)
        assert "(one component: 65 traders, first [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);" in refusal(65)


class _RepeatCounter:
    """numpy, counting the calls of `np.repeat`: each vectorized level of `solver._reached` makes two."""

    def __init__(self):
        self.repeats = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def repeat(self, *args, **kwargs):
        self.repeats += 1
        return np.repeat(*args, **kwargs)


def _long_cycle(n, cut=None):
    """The undamped economy of the directed cycle ``k -> k + 1 mod n``, with ``cut -> cut + 1`` made a self-loop."""
    dst = (np.arange(n) + 1) % n
    if cut is not None:
        dst[cut] = cut
    return damped_economy(DirectedGraph(n, np.arange(n), dst), np.ones(n), 0.5, 1.0)


def _cycle(n):
    return {(k, (k + 1) % n) for k in range(n)}


def _complete(n, loops):
    return {(i, j) for i in range(n) for j in range(n) if loops or i != j}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.sets(st.tuples(vertex, vertex), max_size=3 * n))
    if draw(st.booleans()):
        edges |= _cycle(n)  # make strongly connected graphs common
    return n, edges


GRAPH_CASES = {
    "lone vertex": (1, set()),
    "lone vertex with a loop": (1, {(0, 0)}),
    "complete without loops": (5, _complete(5, loops=False)),
    "complete with loops": (4, _complete(4, loops=True)),
    "two-cycle": (2, _cycle(2)),
    "six-cycle": (6, _cycle(6)),
    "six-cycle with a loop": (6, _cycle(6) | {(3, 3)}),
    "six-cycle with a chord, period 3": (6, _cycle(6) | {(0, 4)}),
    "bipartite": (4, {(0, 1), (1, 0), (0, 3), (3, 2), (2, 1)}),
    "one-way bridge": (4, _cycle(2) | {(1, 2)} | {(2, 3), (3, 2)}),
    "chain to a dangling vertex": (3, {(0, 1), (1, 2)}),  # 2 values every good, so it leads back
}


class TestConnectivityOracle:
    @pytest.mark.parametrize("name", sorted(GRAPH_CASES))
    def test_named_graphs(self, name):
        _check_against_oracle(*GRAPH_CASES[name])

    @given(small_graphs())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, graph):
        _check_against_oracle(*graph)


class TestWebTransition:
    def test_three_vertex_example(self):
        g = DirectedGraph(3, [0, 0, 1, 2], [1, 2, 2, 0])
        p = dense_alpha(web_economy(g, c=0.85))
        np.testing.assert_allclose(p[0], [0.05, 0.475, 0.475])
        np.testing.assert_allclose(p[1], [0.05, 0.05, 0.90])
        np.testing.assert_allclose(p[2], [0.90, 0.05, 0.05])

    def test_dangling_vertex_spreads_uniformly(self):
        g = DirectedGraph(3, [0, 1], [1, 0])  # vertex 2 dangles
        p = dense_alpha(web_economy(g, c=0.85))
        np.testing.assert_allclose(p[2], 1 / 3)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-15, rtol=0)

    def test_self_loop_rejected(self):
        g = DirectedGraph(2, [0, 0, 1], [0, 1, 0])
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            web_economy(g)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.7])
    def test_damping_range(self, c):
        g = DirectedGraph(2, [0, 1], [1, 0])
        with pytest.raises(ValueError, match="damping"):
            web_economy(g, c=c)

    def test_entries_bounded_below(self):
        g = DirectedGraph(4, [0, 1, 2, 3], [1, 2, 3, 0])
        p = dense_alpha(web_economy(g, c=0.85))
        assert np.all(p >= 0.15 / 4 - 1e-15)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_rows_always_stochastic(self, n, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < 0.3
        np.fill_diagonal(mask, False)
        g = DirectedGraph(n, *np.nonzero(mask))
        p = dense_alpha(web_economy(g, c=0.85))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12, rtol=0)


def _invariant(matrix, tolerance=1e-12):
    """The invariant method on a row-stochastic array: its undamped Cobb-Douglas market, solved."""
    matrix = np.asarray(matrix, dtype=float)
    graph = support_graph(matrix)
    return solve_cobb_douglas(damped_economy(graph, matrix[graph.src, graph.dst], 0.0, 1.0), SolverConfig(tolerance=tolerance))


class TestStationaryDistribution:
    """A chain's stationary distribution as the equilibrium prices of its Cobb-Douglas market."""

    def test_known_three_state_chain(self):
        prices, report = _invariant([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(prices.pi, [0.4, 0.2, 0.4], atol=1e-11, rtol=0)
        assert report.converged
        assert report.residual <= report.tolerance

    def test_power_matches_solve_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = web_economy(DirectedGraph(*random_strongly_connected_graph(rng, int(rng.integers(2, 9)))), c=0.85)
            a, _ = solve_power(p, SolverConfig(tolerance=1e-12))
            b, _ = solve_cobb_douglas(p, SolverConfig(tolerance=1e-12))
            np.testing.assert_allclose(a.pi, b.pi, atol=1e-10, rtol=0)

    def test_periodic_chain_is_solved(self):
        # bipartite: 0 <-> {1, 2}; period 2, stationary (0.5, 0.25, 0.25):
        # iterating would never converge, the exact solve certifies it
        prices, _ = _invariant([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(prices.pi, [0.5, 0.25, 0.25], atol=1e-12, rtol=0)

    def test_large_periodic_chain_is_solved(self):
        # star 0 <-> 1..2000, period 2: a dense chain is solved at every size
        n = 2001
        star = np.zeros((n, n))
        star[0, 1:] = 1.0 / (n - 1)
        star[1:, 0] = 1.0
        prices, report = _invariant(star)
        assert report.method == "closed_form" and report.converged
        assert abs(prices.pi[0] - 0.5) <= 1e-12

    def test_dense_chain_reports_closed_form(self):
        _, report = _invariant([[0.1, 0.9], [0.5, 0.5]])
        assert (report.method, report.iterations) == ("closed_form", 1)

    def test_reducible_chain_raises(self):
        with pytest.raises(ValueError, match=r"not strongly connected \(one component: \[0\]\)"):
            _invariant(np.eye(2))

    def test_residual_is_certified(self):
        rng = np.random.default_rng(11)
        p = web_economy(DirectedGraph(*random_strongly_connected_graph(rng, 20)), c=0.85)
        dist, report = solve_power(p, SolverConfig(tolerance=1e-12))
        direct = float(np.abs(dense_alpha(p).T @ dist.pi - dist.pi).max())
        assert direct <= 2 * report.tolerance

    def test_tolerance_validation(self):
        for tolerance in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance must be finite and positive"):
                _invariant(np.eye(1), tolerance=tolerance)


@st.composite
def link_graphs(draw):
    """Graphs without self-loops on 1..12 vertices, some vertices dangling."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    # (i, d) is the edge i -> i + d mod n with 0 < d < n, never a loop
    pairs = draw(st.sets(st.tuples(vertex, st.integers(min_value=1, max_value=max(n - 1, 1))), max_size=3 * (n - 1)))
    dangling = draw(st.sets(vertex, max_size=n))
    edges = sorted((i, (i + d) % n) for i, d in pairs if i not in dangling)
    return DirectedGraph(n, [i for i, _ in edges], [j for _, j in edges])


class TestWebTransitionPower:
    """Power iteration on the web chain's market against the same chain held dense."""

    @given(link_graphs())
    @example(DirectedGraph(1, [], []))
    @example(DirectedGraph(7, [], []))
    @example(DirectedGraph(4, [0, 1, 2], [1, 2, 0]))  # vertex 3 dangles
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_dense_step(self, graph):
        economy = web_economy(graph)
        sparse, report = solve_power(economy, SolverConfig(tolerance=1e-12))
        dense, dense_iterations = dense_power_iteration(dense_alpha(economy), report.tolerance)
        assert report.residual <= report.tolerance
        # Rounding can put one iterate's relative defect on either side of
        # the tolerance, and then the two stop one step apart, at most that
        # one sub-tolerance step from each other.
        gap = np.abs(sparse.pi - dense).max()
        if report.iterations == dense_iterations:
            assert gap <= 1e-13
        else:
            assert abs(report.iterations - dense_iterations) == 1
            assert gap <= report.tolerance

    def test_out_of_iterations_raises(self):
        economy = web_economy(DirectedGraph(3, [0, 0, 1, 2], [1, 2, 2, 0]))
        with pytest.raises(ConvergenceError, match=r"did not converge in 2 iterations, residual [0-9.e+-]+$") as info:
            solve_power(economy, SolverConfig(tolerance=1e-12, max_iters=2))
        assert info.value.residual > 0.0

    def test_slow_damping_outruns_the_budget(self):
        # the periodic star 0 <-> 1 <-> 2 contracts only at rate c: about
        # log(tol) / log(c) = 276 000 steps at c = 0.9999, so the chain is
        # not certified; the damped economy's closed form gives it exactly
        star3 = DirectedGraph(3, [0, 1, 1, 2], [1, 0, 2, 1])
        with pytest.raises(ConvergenceError, match="did not converge in 1000 iterations"):
            solve_power(web_economy(star3, 0.9999), SolverConfig(tolerance=1e-12, max_iters=1000))

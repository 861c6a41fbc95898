import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesrank import (
    ConvergenceError,
    DirectedGraph,
    Distribution,
    TransitionMatrix,
    WebTransition,
    build_web_transition,
    is_strongly_connected,
    stationary_distribution,
    support_graph,
)
from cesrank.markov import strongly_connected_component

from oracles import component_of, dense_power_iteration, random_strongly_connected_graph


class TestDirectedGraph:
    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(0, 5\)"):
            DirectedGraph(3, [0], [5])

    def test_adjacency_views(self):
        # stored sorted by (src, dst) and deduplicated, whatever the input order
        g = DirectedGraph(3, [2, 0, 0, 2], [0, 2, 1, 0])
        assert g.src.tolist() == [0, 0, 2]
        assert g.dst.tolist() == [1, 2, 0]
        assert g.src.dtype == np.int64
        with pytest.raises(ValueError):
            g.src[0] = 1

    def test_order_past_the_int64_key_range(self):
        # src * n + dst would wrap here; the order and the duplicates still come out right
        n = 10**10
        g = DirectedGraph(n, [n - 1, 1, n - 1, 1], [1, 0, 1, n - 1])
        assert g.src.tolist() == [1, 1, n - 1]
        assert g.dst.tolist() == [0, n - 1, 1]

    def test_edge_arrays_must_match(self):
        with pytest.raises(ValueError, match="one length"):
            DirectedGraph(3, [0, 1], [1])

    def test_needs_a_vertex(self):
        with pytest.raises(ValueError, match="vertex count"):
            DirectedGraph(0, [], [])


class TestConnectivity:
    def test_cycle_is_strongly_connected(self):
        g = DirectedGraph(3, [0, 1, 2], [1, 2, 0])
        assert is_strongly_connected(g)

    def test_chain_is_not(self):
        g = DirectedGraph(3, [0, 1], [1, 2])
        assert not is_strongly_connected(g)

    def test_single_vertex(self):
        assert is_strongly_connected(DirectedGraph(1, [], []))

    def test_component_witness(self):
        g = DirectedGraph(4, [0, 1, 1, 2], [1, 0, 2, 3])
        assert strongly_connected_component(g) == [0, 1]
        assert strongly_connected_component(g, vertex=3) == [3]


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
}


def _check_against_oracle(n, edges):
    g = DirectedGraph(n, [i for i, _ in edges], [j for _, j in edges])
    connected = component_of(n, edges, 0) == list(range(n))
    assert is_strongly_connected(g) == connected
    for v in range(n):
        assert strongly_connected_component(g, v) == component_of(n, edges, v)


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
        p = build_web_transition(g, c=0.85).matrix
        np.testing.assert_allclose(p[0], [0.05, 0.475, 0.475])
        np.testing.assert_allclose(p[1], [0.05, 0.05, 0.90])
        np.testing.assert_allclose(p[2], [0.90, 0.05, 0.05])

    def test_dangling_vertex_spreads_uniformly(self):
        g = DirectedGraph(3, [0, 1], [1, 0])  # vertex 2 dangles
        p = build_web_transition(g, c=0.85).matrix
        np.testing.assert_allclose(p[2], 1 / 3)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-15, rtol=0)

    def test_self_loop_rejected(self):
        g = DirectedGraph(2, [0, 0, 1], [0, 1, 0])
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            build_web_transition(g)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.7])
    def test_damping_range(self, c):
        g = DirectedGraph(2, [0, 1], [1, 0])
        with pytest.raises(ValueError, match="damping"):
            build_web_transition(g, c=c)

    def test_entries_bounded_below(self):
        g = DirectedGraph(4, [0, 1, 2, 3], [1, 2, 3, 0])
        p = build_web_transition(g, c=0.85).matrix
        assert np.all(p >= 0.15 / 4 - 1e-15)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_rows_always_stochastic(self, n, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < 0.3
        np.fill_diagonal(mask, False)
        g = DirectedGraph(n, *np.nonzero(mask))
        p = build_web_transition(g, c=0.85).matrix
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12, rtol=0)


class TestTransitionMatrixType:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError, match="row 1"):
            TransitionMatrix(np.array([[0.5, 0.5], [0.6, 0.5]]))

    def test_rejects_rows_not_summing_to_one(self):
        with pytest.raises(ValueError, match="row 0"):
            TransitionMatrix(np.array([[0.6, 0.5], [0.5, 0.5]]))

    def test_accepts_tiny_rounding(self):
        row = np.array([1 / 3, 1 / 3, 1 / 3])
        TransitionMatrix(np.vstack([row, row, row]))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match=r"\[0\]\[1\]"):
            TransitionMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_support_graph(self):
        g = support_graph(TransitionMatrix(np.array([[0.0, 1.0], [0.5, 0.5]])).matrix)
        assert (g.n, g.src.tolist(), g.dst.tolist()) == (2, [0, 1, 1], [1, 0, 1])


class TestDistributionType:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution(np.array([0.5, 0.4]))

    def test_no_negative_mass(self):
        with pytest.raises(ValueError, match="entry 1"):
            Distribution(np.array([1.1, -0.1]))


class TestStationaryDistribution:
    def test_known_three_state_chain(self):
        p = TransitionMatrix(np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        dist, report = stationary_distribution(p)
        np.testing.assert_allclose(dist.pi, [0.4, 0.2, 0.4], atol=1e-11, rtol=0)
        assert report.converged
        assert report.residual <= report.tolerance

    def test_power_matches_solve_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = build_web_transition(DirectedGraph(*random_strongly_connected_graph(rng, int(rng.integers(2, 9)))), c=0.85)
            a, _ = stationary_distribution(p)
            b, _ = stationary_distribution(TransitionMatrix(p.matrix))
            np.testing.assert_allclose(a.pi, b.pi, atol=1e-10, rtol=0)

    def test_periodic_chain_is_solved(self):
        # bipartite: 0 <-> {1, 2}; period 2, stationary (0.5, 0.25, 0.25):
        # iterating would never converge, the exact solve certifies it
        p = TransitionMatrix(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        dist, _ = stationary_distribution(p, max_iters=1)
        np.testing.assert_allclose(dist.pi, [0.5, 0.25, 0.25], atol=1e-12, rtol=0)

    def test_large_periodic_chain_is_solved(self):
        # star 0 <-> 1..2000, period 2: a dense chain is solved at every size
        n = 2001
        star = np.zeros((n, n))
        star[0, 1:] = 1.0 / (n - 1)
        star[1:, 0] = 1.0
        dist, report = stationary_distribution(TransitionMatrix(star), max_iters=50)
        assert report.method == "solve"
        assert abs(dist.pi[0] - 0.5) <= 1e-12

    def test_dense_chain_reports_solve(self):
        p = TransitionMatrix(np.array([[0.1, 0.9], [0.5, 0.5]]))
        _, report = stationary_distribution(p)
        assert report.method == "solve"

    def test_reducible_chain_raises(self):
        p = TransitionMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="singular|irreducible"):
            stationary_distribution(p)

    def test_residual_is_certified(self):
        rng = np.random.default_rng(11)
        p = build_web_transition(DirectedGraph(*random_strongly_connected_graph(rng, 20)), c=0.85)
        dist, report = stationary_distribution(p)
        direct = float(np.abs(p.matrix.T @ dist.pi - dist.pi).max())
        assert direct <= 2 * report.tolerance

    def test_tolerance_validation(self):
        p = TransitionMatrix(np.eye(1))
        for tolerance in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance must be finite and positive"):
                stationary_distribution(p, tolerance=tolerance)
        with pytest.raises(ValueError, match="max_iters"):
            stationary_distribution(p, max_iters=0)


@st.composite
def link_graphs(draw):
    """Graphs without self-loops on 1..12 vertices, some vertices dangling."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    # (i, d) is the edge i -> i + d mod n with 0 < d < n, never a loop
    pairs = draw(st.sets(st.tuples(vertex, st.integers(min_value=1, max_value=max(n - 1, 1))), max_size=3 * (n - 1)))
    dangling = draw(st.sets(vertex, max_size=n))
    edges = [(i, (i + d) % n) for i, d in pairs if i not in dangling]
    return DirectedGraph(n, [i for i, _ in edges], [j for _, j in edges])


class TestWebTransitionPower:
    """Power iteration on the chain's edges against the same chain held dense."""

    @given(link_graphs())
    @example(DirectedGraph(1, [], []))
    @example(DirectedGraph(7, [], []))
    @example(DirectedGraph(4, [0, 1, 2], [1, 2, 0]))  # vertex 3 dangles
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_dense_step(self, graph):
        chain = build_web_transition(graph)
        sparse, report = stationary_distribution(chain)
        dense, dense_iterations = dense_power_iteration(chain.matrix, report.tolerance)
        assert report.residual <= report.tolerance
        # Rounding can put one L1 step on either side of the tolerance (about
        # one graph in 10^4), and then the two stop one step apart, at most
        # that one sub-tolerance step from each other.
        gap = np.abs(sparse.pi - dense).max()
        if report.iterations == dense_iterations:
            assert gap <= 1e-13
        else:
            assert abs(report.iterations - dense_iterations) == 1
            assert gap <= report.tolerance

    def test_out_of_iterations_raises(self):
        chain = build_web_transition(DirectedGraph(3, [0, 0, 1, 2], [1, 2, 2, 0]))
        with pytest.raises(ConvergenceError, match=r"did not converge in 2 iterations, residual [0-9.e+-]+$") as info:
            stationary_distribution(chain, max_iters=2)
        assert info.value.residual > 0.0

    def test_slow_damping_outruns_the_budget(self):
        # the periodic star 0 <-> 1 <-> 2 contracts only at rate c: about
        # log(tol) / log(c) = 276 000 steps at c = 0.9999, so the chain is
        # not certified; the damped economy's closed form gives it exactly
        star3 = DirectedGraph(3, [0, 1, 1, 2], [1, 0, 2, 1])
        with pytest.raises(ConvergenceError, match="did not converge in 1000 iterations"):
            stationary_distribution(WebTransition(star3, 0.9999), max_iters=1000)

    def test_step_is_the_dense_product(self):
        rng = np.random.default_rng(4)
        chain = build_web_transition(DirectedGraph(*random_strongly_connected_graph(rng, 30)), c=0.7)
        pi = rng.random(30)
        np.testing.assert_allclose(chain.step(pi), chain.matrix.T @ pi, rtol=1e-14, atol=0)

    def test_dense_matrix_only_on_demand(self):
        chain = build_web_transition(DirectedGraph(3, [0, 1, 2], [1, 2, 0]))
        _, report = stationary_distribution(chain)
        assert report.method == "power"
        assert "matrix" not in vars(chain)
        assert chain.matrix is chain.matrix

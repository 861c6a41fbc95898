import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cesrank.axioms
from cesrank import (
    CesEconomy,
    DirectedGraph,
    PriceVector,
    RankingProblem,
    build_economy,
    check_uniformity,
    excess_demand,
    solve_cobb_douglas,
    support_graph,
    web_economy,
)

from oracles import dense_alpha, dense_weights, reference_damped_chain


def ids(n):
    return tuple(f"a{k}" for k in range(n))


def normalized(problem) -> np.ndarray:
    """The damped preference matrix the market consumes, n x n."""
    return dense_alpha(build_economy(problem))


class TestRankingProblemValidation:
    def test_scalar_rho_broadcasts(self):
        p = RankingProblem(ids(3), np.ones((3, 3)), 0.25)
        assert p.rho.shape == (3,)
        assert np.all(p.rho == 0.25)

    def test_negative_alpha_names_the_cell(self):
        alpha = np.ones((2, 2))
        alpha[1, 0] = -0.5
        with pytest.raises(ValueError, match=r"alpha\[1\]\[0\]"):
            RankingProblem(ids(2), alpha, 0.0)

    def test_nan_alpha_rejected(self):
        alpha = np.ones((2, 2))
        alpha[0, 1] = np.nan
        with pytest.raises(ValueError, match=r"alpha\[0\]\[1\]"):
            RankingProblem(ids(2), alpha, 0.0)

    def test_non_square_alpha_rejected(self):
        with pytest.raises(ValueError, match="square"):
            RankingProblem(ids(2), np.ones((2, 3)), 0.0)

    def test_dimension_mismatch_with_agents(self):
        with pytest.raises(ValueError, match="3x3.*2 agents"):
            RankingProblem(ids(2), np.ones((3, 3)), 0.0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RankingProblem(("x", "x"), np.ones((2, 2)), 0.0)

    @pytest.mark.parametrize("rho", [-1.5, 1.0, 2.0, np.nan, np.inf])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(ValueError, match="rho"):
            RankingProblem(ids(2), np.ones((2, 2)), rho)

    @pytest.mark.parametrize("rho", [1e-10, -1e-10, 5e-12])
    def test_rho_inside_reserved_band(self, rho):
        with pytest.raises(ValueError, match="unit elasticity"):
            RankingProblem(ids(2), np.ones((2, 2)), rho)

    def test_rho_boundaries_accepted(self):
        RankingProblem(ids(2), np.ones((2, 2)), -1.0)
        RankingProblem(ids(2), np.ones((2, 2)), 0.95)
        RankingProblem(ids(2), np.ones((2, 2)), 1e-9)

    @pytest.mark.parametrize("beta", [0.0, -0.1, 1.5])
    def test_beta_range(self, beta):
        with pytest.raises(ValueError, match="beta"):
            RankingProblem(ids(2), np.ones((2, 2)), 0.0, beta=beta)

    def test_arrays_are_frozen(self):
        p = RankingProblem(ids(2), np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError):
            p.weights[0] = 2.0
        with pytest.raises(Exception):
            p.beta = 0.5

    def test_holds_the_edges_not_a_dense_matrix(self):
        alpha = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        p = RankingProblem(ids(3), alpha, 0.0)
        assert (p.graph.src.tolist(), p.graph.dst.tolist()) == ([0, 1, 1], [1, 0, 2])
        assert p.weights.tolist() == [2.0, 1.0, 3.0] and not p.weights.flags.writeable
        assert all(np.ndim(value) < 2 for value in vars(p).values())
        np.testing.assert_array_equal(dense_weights(p.graph, p.weights), alpha)
        assert not hasattr(p, "alpha")

    def test_weights_cannot_land_on_other_edges(self):
        # weight 5 is meant for edge (1, 2); a graph that sorted its edges
        # would put it on (0, 1) and rank another problem
        with pytest.raises(ValueError, match=r"edge \(0, 1\) follows \(1, 2\)"):
            RankingProblem.from_edges(ids(3), DirectedGraph(3, [1, 0, 2], [2, 1, 0]), [5.0, 1.0, 1.0], 0.0)

    def test_input_array_not_aliased(self):
        alpha = np.ones((2, 2))
        p = RankingProblem(ids(2), alpha, 0.0)
        alpha[0, 0] = 7.0
        assert dense_weights(p.graph, p.weights)[0, 0] == 1.0


class TestNormalize:
    def test_zero_matrix_fills_uniform(self):
        p = RankingProblem(ids(2), np.zeros((2, 2)), 0.0, beta=0.85)
        out = normalized(p)
        np.testing.assert_allclose(out, 0.5)

    def test_stochastic_rows_with_beta_one_unchanged(self):
        alpha = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
        p = RankingProblem(ids(3), alpha, 0.5, beta=1.0)
        out = normalized(p)
        np.testing.assert_array_equal(out, alpha)

    def test_damped_two_agent_example(self):
        # rows [3,1] and [0,2]: normalize to (0.75,0.25), (0,1); then mix
        # with the uniform row at weight 0.2
        p = RankingProblem(ids(2), np.array([[3.0, 1.0], [0.0, 2.0]]), 0.0, beta=0.8)
        out = normalized(p)
        np.testing.assert_allclose(out, [[0.70, 0.30], [0.10, 0.90]])

    def test_preserves_rho_and_ids(self):
        # the damped matrix carries neither: the problem keeps its ids and
        # the economy takes rho from the problem
        p = RankingProblem(("x", "y"), np.array([[1.0, 3.0], [0.0, 0.0]]), np.array([0.5, -0.5]))
        economy = build_economy(p)
        assert not any(a.flags.writeable for a in (economy.floor, economy.rows, economy.cols, economy.values))
        assert p.agent_ids == ("x", "y")
        np.testing.assert_array_equal(dense_weights(p.graph, p.weights), [[1.0, 3.0], [0.0, 0.0]])
        np.testing.assert_array_equal(build_economy(p).rho, [0.5, -0.5])

    def test_same_matrix_as_the_web_chain(self):
        # one damping rule: a dangling vertex at n = 6, where filling the row
        # with 1/n before dividing would round differently from filling it with 1
        src, dst = [0, 0, 1, 2, 2, 3, 4, 4], [1, 2, 2, 0, 3, 4, 0, 1]  # vertex 5 dangles
        weights = np.zeros((6, 6))
        weights[src, dst] = 1.0
        chain = dense_alpha(web_economy(DirectedGraph(6, src, dst), 0.85))
        damped = normalized(RankingProblem(ids(6), weights, 0.0, beta=0.85))
        reference = reference_damped_chain(weights.copy(), 0.85)
        assert chain.tobytes() == reference.tobytes()
        assert damped.tobytes() == reference.tobytes()


@st.composite
def problems(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    alpha = draw(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    rho = draw(st.sampled_from([0.0, 0.5, -0.5, 0.25, -1.0]))
    beta = draw(st.sampled_from([0.85, 1.0, 0.3]))
    return RankingProblem(ids(n), np.array(alpha), rho, beta=beta)


@given(problems())
@settings(max_examples=150, deadline=None)
def test_normalized_rows_sum_to_one(problem):
    out = normalized(problem)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12, rtol=0)


@given(problems())
@settings(max_examples=150, deadline=None)
def test_normalized_entries_bounded_below(problem):
    out = normalized(problem)
    floor = (1.0 - problem.beta) / problem.n
    assert np.all(out >= floor - 1e-15)
    if problem.beta < 1.0:
        assert np.all(out > 0.0)


@given(problems())
@settings(max_examples=100, deadline=None)
def test_normalize_idempotent_when_undamped(problem):
    once = normalized(
        RankingProblem(problem.agent_ids, dense_weights(problem.graph, problem.weights), problem.rho, beta=1.0)
    )
    twice = normalized(
        RankingProblem(problem.agent_ids, once, problem.rho, beta=1.0)
    )
    np.testing.assert_allclose(twice, once, atol=1e-15, rtol=0)


@given(problems(), st.integers(min_value=0, max_value=5), st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=150, deadline=None)
def test_row_scaling_is_invisible(problem, row, lam):
    row %= problem.n
    alpha = dense_weights(problem.graph, problem.weights)
    scaled_alpha = alpha.copy()
    scaled_alpha[row] *= lam
    # a row of subnormals does not scale exactly: it can round to zero (and
    # turn dangling) or change its ratios; a row whose max stays normal can
    # only move its subnormal entries, by far less than the tolerance
    tiny = np.finfo(float).tiny
    assume(alpha[row].max() == 0.0 or min(alpha[row].max(), scaled_alpha[row].max()) >= tiny)
    scaled = RankingProblem(problem.agent_ids, scaled_alpha, problem.rho, beta=problem.beta)
    a = normalized(problem)
    b = normalized(scaled)
    np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)


def regular(problem) -> bool:
    """Is the undamped problem regular, as the uniformity axiom decides it?"""
    return check_uniformity(problem).applicable


class TestIsRegular:
    def test_doubly_stochastic_three_agent_matrix(self):
        alpha = np.array(
            [
                [1 / 3, 1 / 3, 1 / 3],
                [5 / 12, 1 / 6, 5 / 12],
                [1 / 4, 1 / 2, 1 / 4],
            ]
        )
        assert regular(RankingProblem(ids(3), alpha, 0.5, beta=1.0))

    def test_uniform_matrix(self):
        assert regular(RankingProblem(ids(4), np.zeros((4, 4)), 0.0, beta=1.0))

    def test_unbalanced_columns(self):
        problem = RankingProblem(ids(2), np.array([[0.9, 0.1], [0.5, 0.5]]), 0.0, beta=1.0)
        # column sums are 1.4 and 0.6
        assert not regular(problem)
        np.testing.assert_allclose(check_uniformity(problem).witness["column_sums"], [1.4, 0.6])

    def test_tolerance_parameter(self, monkeypatch):
        problem = RankingProblem(ids(2), np.array([[0.5, 0.5], [0.5 + 1e-12, 0.5 - 1e-12]]), 0.0, beta=1.0)
        assert regular(problem)
        # each sum is compared with the first: these column sums spread over 1.6e-9
        third, d = 1 / 3, 0.8e-9
        spread = np.array([[third, third, third], [third, third + d, third - d], [third, third, third]])
        assert regular(RankingProblem(ids(3), spread, 0.0, beta=1.0))
        monkeypatch.setattr(cesrank.axioms, "REGULARITY_TOL", 1e-14)
        assert not regular(problem)


_MESSAGE_CASES = {
    "rho range": (lambda: RankingProblem(ids(1), np.ones((1, 1)), 1.5), "rho[0] = 1.5 outside"),
    "rho cap": (lambda: CesEconomy(np.ones((2, 2)), 0.97), "rho[0] = 0.97 outside [-1, 0.95]"),
    # one rho contract: a problem accepts exactly what its economy accepts
    "problem rho cap": (lambda: RankingProblem(ids(2), np.ones((2, 2)), 0.97), "rho[0] = 0.97 outside [-1, 0.95]"),
    "rho band": (lambda: RankingProblem(ids(1), np.ones((1, 1)), 1e-12), "rho[0] = 1e-12 is inside"),
    "alpha": (lambda: RankingProblem(ids(2), -np.ones((2, 2)), 0.0), "alpha[0][0] = -1.0"),
    "economy alpha": (lambda: CesEconomy(-np.ones((2, 2)), 0.0), "alpha[0][0] = -1.0"),
    "price array": (lambda: excess_demand(CesEconomy(np.ones((2, 2)), 0.0), np.array([0.0, 1.0])), "is 0.0;"),
    "price vector entry": (lambda: PriceVector(np.array([1.0, -1.0])), "is -1.0;"),
    # one price check: a price vector's entries fail with the message a price array gets
    "price vector nan": (lambda: PriceVector(np.array([0.5, np.nan])), "price of good 1 is nan; prices must be strictly positive"),
    "price vector sum": (lambda: PriceVector(np.array([0.75, 0.75])), "sum to 1.5"),
    "closed form rho": (lambda: solve_cobb_douglas(CesEconomy(np.ones((2, 2)), 0.5)), "rho = 0.5;"),
}


@pytest.mark.parametrize("case", sorted(_MESSAGE_CASES))
def test_validation_messages_print_plain_floats(case):
    build, expected = _MESSAGE_CASES[case]
    with pytest.raises(ValueError) as info:
        build()
    assert expected in str(info.value)
    assert "np.float64" not in str(info.value)


#: Entries of the drawn dense matrices: zero, two subnormals, two neighbours one ulp apart, and the float range's top.
_ENTRY_PALETTE = (0.0, 5e-324, 1e-310, 0.25, 1.0, 1.0 + 2**-52, 7.5, 1e300)


@st.composite
def dense_matrices(draw, max_n=9):
    """Square nonnegative matrices with zeros, ties at the row minimum, all-positive rows and subnormals, in either memory order."""
    n = draw(st.integers(1, max_n))
    rows = []
    for _ in range(n):
        palette = _ENTRY_PALETTE[1:] if draw(st.booleans()) else _ENTRY_PALETTE  # an all-positive row, or any
        rows.append(draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n)))
    alpha = np.array(rows)
    return np.asfortranarray(alpha) if draw(st.booleans()) else alpha


@given(dense_matrices())
@settings(max_examples=200, deadline=None)
def test_dense_constructors_read_the_2d_support(alpha):
    # both dense constructors read their matrix in one flat pass; the
    # reference is the 2-D np.nonzero read, in row-major order
    n = alpha.shape[0]
    problem = RankingProblem(ids(n), alpha, 0.5)
    src, dst = np.nonzero(alpha > 0.0)
    for got, want in ((problem.graph.src, src), (problem.graph.dst, dst), (problem.weights, alpha[src, dst])):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    if alpha.max(axis=1).min() > 0.0:  # every trader wants something
        economy = CesEconomy(alpha, 0.5)
        floor = alpha.min(axis=1)
        rows, cols = np.nonzero(alpha > floor[:, None])
        for got, want in ((economy.floor, floor), (economy.rows, rows), (economy.cols, cols), (economy.values, alpha[rows, cols])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@given(dense_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_first_bad_dense_entry_is_named(alpha, data):
    # two reductions clear a valid matrix; an invalid one names its first bad entry in row-major order
    n = alpha.shape[0]
    index, bad = st.integers(0, n - 1), st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -5e-324])
    for i, j, value in data.draw(st.lists(st.tuples(index, index, bad), min_size=1, max_size=3)):
        alpha[i, j] = value
    i, j = next((i, j) for i in range(n) for j in range(n) if not 0.0 <= alpha[i, j] < np.inf)
    message = rf"^alpha\[{i}\]\[{j}\] = {re.escape(repr(float(alpha[i, j])))} is negative or not finite$"
    with pytest.raises(ValueError, match=message):
        RankingProblem(ids(n), alpha, 0.0)
    with pytest.raises(ValueError, match=message):
        CesEconomy(alpha, 0.0)


@pytest.mark.parametrize("shape", [(3,), (), (2, 2, 2)])
def test_support_graph_needs_a_matrix(shape):
    # an array that is not 2-D has no rows and columns to read edges from
    with pytest.raises(ValueError, match=re.escape(f"support_graph needs a 2-D matrix, got shape {shape}")):
        support_graph(np.ones(shape))

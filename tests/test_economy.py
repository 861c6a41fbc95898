import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesrank.economy
import cesrank.solver
from cesrank import (
    CesEconomy,
    ConvergenceError,
    DirectedGraph,
    PriceVector,
    RankingProblem,
    SolverConfig,
    build_economy,
    damped_economy,
    excess_demand,
    solve_cobb_douglas,
    solve_equilibrium,
    solve_tatonnement,
    support_graph,
    verify_equilibrium,
)
from cesrank.economy import aggregate_demand

from oracles import (
    ces_demand,
    demand_matrix,
    dense_alpha,
    dense_weights,
    economy_component,
    grid_search_demand,
    reference_damped_chain,
    skewed_graph,
)


class TestPriceVector:
    def test_must_be_simplex(self):
        with pytest.raises(ValueError, match="sum"):
            PriceVector(np.array([0.7, 0.7]))

    def test_strictly_positive(self):
        with pytest.raises(ValueError, match="good 1"):
            PriceVector(np.array([1.0, 0.0]))

    def test_must_be_a_vector(self):
        with pytest.raises(ValueError) as raised:
            PriceVector(np.full((2, 2), 0.25))
        assert str(raised.value) == "prices must form a vector, got shape (2, 2)"

    def test_from_unnormalized(self):
        p = PriceVector.from_unnormalized([2.0, 6.0])
        np.testing.assert_allclose(p.pi, [0.25, 0.75])
        assert p.n == 2

    def test_frozen(self):
        p = PriceVector.from_unnormalized([1.0, 1.0])
        with pytest.raises(ValueError):
            p.pi[0] = 0.9


class TestCesEconomyValidation:
    def test_all_zero_alpha_row(self):
        with pytest.raises(ValueError, match="trader 1"):
            CesEconomy([[1.0, 1.0], [0.0, 0.0]], 0.0)

    def test_huge_alpha_row_is_not_dead(self):
        # the row sum overflows, but the trader wants both goods
        e = CesEconomy([[1e308, 1e308], [1.0, 0.0]], 0.5)
        assert np.all(np.isfinite(demand_matrix(e, [0.5, 0.5])))
        # the closed form normalizes it like the row scaled to 1
        prices, report = solve_equilibrium(CesEconomy([[1e308, 1e308], [1.0, 0.0]], 0.0))
        assert report.method == "closed_form" and report.converged
        np.testing.assert_allclose(prices.pi, [2 / 3, 1 / 3], atol=1e-12, rtol=0)

    def test_rho_above_cap(self):
        with pytest.raises(ValueError, match=r"rho\[0\]"):
            CesEconomy(np.ones((2, 2)), 0.96)

    def test_rho_at_cap_accepted(self):
        CesEconomy(np.ones((2, 2)), 0.95)

    def test_endowment_shape(self):
        with pytest.raises(ValueError, match="endowments"):
            CesEconomy(np.ones((2, 2)), 0.0, endowments=np.ones(2))

    def test_q_exponent(self):
        e = CesEconomy(np.ones((3, 3)), np.array([0.0, 0.5, -1.0]))
        np.testing.assert_allclose(e.q, [1.0, 2.0, 0.5])

    def test_identity_endowment_probe(self):
        # the own-good endowment is the only one; passing it changes nothing
        p = np.array([0.3, 0.7])
        given = CesEconomy(np.ones((2, 2)), 0.0, endowments=np.eye(2))
        implied = CesEconomy(np.ones((2, 2)), 0.0)
        np.testing.assert_array_equal(demand_matrix(given, p), demand_matrix(implied, p))
        for w in (np.array([[1.0, 0.5], [0.0, 1.0]]), 2.0 * np.eye(2)):
            with pytest.raises(ValueError, match="identity"):
                CesEconomy(np.ones((2, 2)), 0.0, endowments=w)

    def test_any_array_like_alpha_gives_the_same_economy(self):
        # a view, a float32 array or a list is read as the float64 matrix it holds
        expected = [[0.0, 1.0], [0.5, 0.5]]
        view = np.array([[0.0, 1.0, 9.0], [0.5, 0.5, 9.0]])[:, :2]
        for source in (view, np.array(expected, dtype=np.float32), expected):
            np.testing.assert_array_equal(dense_alpha(CesEconomy(source, 0.0)), expected)
        # a read-only input is validated as any other
        bad = np.array([[0.0, -1.0], [0.5, 0.5]])
        bad.flags.writeable = False
        with pytest.raises(ValueError, match=r"alpha\[0\]\[1\] = -1\.0"):
            CesEconomy(bad, 0.0)

    def test_writable_alpha_is_copied(self):
        alpha = np.array([[0.5, 0.5], [0.25, 0.75]])
        economy = CesEconomy(alpha, 0.5)
        alpha[0, 0] = 9.0
        np.testing.assert_array_equal(dense_alpha(economy), [[0.5, 0.5], [0.25, 0.75]])


class TestCobbDouglasDemand:
    """At rho 0 a trader splits its income in the fixed shares of its alpha row."""

    def test_fixed_budget_shares(self):
        # shares (0.3, 0.7), income = price of own good = 0.6
        e = CesEconomy([[0.3, 0.7], [0.5, 0.5]], 0.0)
        x = ces_demand(e, 0, np.array([0.6, 0.4]))
        np.testing.assert_allclose(x, [0.30, 1.05])

    def test_budget_exhausted(self):
        e = CesEconomy([[0.2, 0.8], [0.6, 0.4]], 0.0)
        p = np.array([0.3, 0.7])
        for i in range(2):
            x = ces_demand(e, i, p)
            assert x @ p == pytest.approx(p[i], abs=1e-15)


class TestCesDemand:
    def test_matches_grid_search_two_goods(self):
        e = CesEconomy([[0.3, 0.7], [0.5, 0.5]], 0.5)
        p = np.array([0.4, 0.6])
        x = ces_demand(e, 0, p)
        oracle = grid_search_demand([0.3, 0.7], 0.5, p, income=0.4)
        np.testing.assert_allclose(x, oracle, atol=1e-4)

    def test_matches_grid_search_negative_rho(self):
        e = CesEconomy([[0.6, 0.4], [0.5, 0.5]], -0.5)
        p = np.array([0.7, 0.3])
        x = ces_demand(e, 0, p)
        oracle = grid_search_demand([0.6, 0.4], -0.5, p, income=0.7)
        np.testing.assert_allclose(x, oracle, atol=1e-4)

    def test_rho_zero_routes_to_cobb_douglas(self):
        # q = 1: the shares are the normalized alpha row, whatever the prices
        e = CesEconomy([[0.3, 0.7], [0.5, 0.5]], 0.0)
        p = np.array([0.6, 0.4])
        np.testing.assert_allclose(ces_demand(e, 0, p), np.array([0.3, 0.7]) * p[0] / p, rtol=1e-15)

    def test_trader_index_validated(self):
        e = CesEconomy(np.ones((2, 2)), 0.5)
        with pytest.raises(ValueError, match="trader index"):
            ces_demand(e, 2, np.array([0.5, 0.5]))

    def test_price_vector_input_accepted(self):
        e = CesEconomy(np.ones((2, 2)), 0.5)
        x = ces_demand(e, 0, PriceVector.from_unnormalized([1.0, 1.0]))
        np.testing.assert_allclose(x, [0.5, 0.5])  # income 0.5, equal shares

    def test_nonpositive_price_rejected(self):
        e = CesEconomy(np.ones((2, 2)), 0.5)
        with pytest.raises(ValueError, match="good 0"):
            ces_demand(e, 0, np.array([0.0, 1.0]))

    def test_steep_exponent_matches_direct_formula(self):
        # q = 10: compare the log-space kernel against the plain formula
        # where it is still finite
        alpha = np.array([[0.8, 1.3, 0.5], [1.0, 1.0, 1.0], [0.4, 0.9, 1.7]])
        e = CesEconomy(alpha, 0.9)
        p = np.array([0.5, 0.3, 0.2])
        q = 10.0
        t = alpha[0] ** q * p ** (1.0 - q)
        expected = (t / t.sum()) * p[0] / p
        np.testing.assert_allclose(ces_demand(e, 0, p), expected, rtol=1e-12)

    def test_zero_coefficient_buys_zero(self):
        e = CesEconomy([[0.5, 0.0], [0.5, 0.5]], 0.5)
        x = ces_demand(e, 0, np.array([0.5, 0.5]))
        assert x[1] == 0.0
        assert x[0] > 0.0


class TestDemandMatrixAndExcess:
    def test_rows_match_single_trader_calls(self):
        alpha = np.array([[0.2, 0.8, 0.3], [0.5, 0.5, 0.5], [0.9, 0.1, 0.2]])
        e = CesEconomy(alpha, np.array([0.0, 0.5, 0.9]))
        p = np.array([0.3, 0.45, 0.25])
        full = demand_matrix(e, p)
        for i in range(3):
            np.testing.assert_allclose(full[i], ces_demand(e, i, p), rtol=1e-12, atol=1e-15)

    def test_excess_demand_zero_at_symmetric_equilibrium(self):
        e = CesEconomy(np.ones((3, 3)), 0.5)
        z = excess_demand(e, np.full(3, 1 / 3))
        np.testing.assert_allclose(z, 0.0, atol=1e-14)

    def test_excess_demand_needs_one_price_per_good(self):
        with pytest.raises(ValueError) as raised:
            excess_demand(CesEconomy(np.ones((3, 3)), 0.5), np.full(2, 0.5))
        assert str(raised.value) == "expected 3 prices, got shape (2,)"

    @pytest.mark.parametrize("rho", [0.5, -1.0, 0.0, 0.9])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_scaled_alpha_neither_overflows_nor_underflows(self, scale, rho):
        # shares do not depend on the scale of alpha, so neither may demand
        rng = np.random.default_rng(7)
        alpha = 0.1 + rng.random((5, 5))
        alpha[0, 3] = 0.0
        reference = CesEconomy(alpha, rho)
        scaled = CesEconomy(alpha * scale, rho)
        p = np.array([0.3, 0.1, 0.25, 0.15, 0.2])
        d = demand_matrix(scaled, p)
        expected = demand_matrix(reference, p)
        assert np.all(np.isfinite(d))
        np.testing.assert_allclose(d, expected, rtol=0, atol=1e-12 * expected.max())
        np.testing.assert_allclose(aggregate_demand(scaled)(p), d.sum(axis=0), rtol=0, atol=1e-12 * d.max())
        assert_certificate_is_the_dense_column_sum(scaled, p)
        prices, _ = solve_equilibrium(reference)
        assert verify_equilibrium(scaled, prices).passed


@st.composite
def economies_and_prices(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    alpha = 0.05 + rng.random((n, n))
    rho = rng.choice([0.0, 0.5, -0.5, 0.9, -1.0, 0.25], size=n)
    p = 0.05 + rng.random(n)
    p /= p.sum()
    return CesEconomy(alpha, rho), p


@given(economies_and_prices())
@settings(max_examples=200, deadline=None)
def test_budget_identity(pair):
    economy, p = pair
    x = demand_matrix(economy, p)
    np.testing.assert_allclose(x @ p, p, atol=1e-12, rtol=0)  # trader i's income is p[i]


@given(economies_and_prices())
@settings(max_examples=200, deadline=None)
def test_walras_law(pair):
    economy, p = pair
    z = excess_demand(economy, p)
    assert abs(z @ p) <= 1e-12


@given(economies_and_prices(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_demand_homogeneous_degree_zero(pair, lam):
    economy, p = pair
    a = demand_matrix(economy, p)
    b = demand_matrix(economy, lam * p)
    np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)


@st.composite
def damped_economies_and_prices(draw):
    """Damped preference rows mixing constant, fully dense and sparse rows.

    ``beta = 1`` leaves sparse rows with a zero floor; ``beta = 0.85`` gives
    every row the floor ``0.15 / n``. Constant rows (a dangling vertex) have no
    excess entries; fully dense rows have one at nearly every good; nearly
    constant rows put entries a hair above the floor next to entries on it.
    Prices span twelve decades.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    beta = draw(st.sampled_from([1.0, 0.85]))
    kinds = draw(st.lists(st.sampled_from(["constant", "nearly constant", "dense", "sparse"]), min_size=n, max_size=n))
    rho = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 0.8, 0.95]), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    rows = np.ones((n, n))
    for i, kind in enumerate(kinds):
        if kind == "nearly constant":
            rows[i] = 1.0 + 1e-6 * rng.random(n) * (rng.random(n) < 0.5)
        elif kind == "dense":
            rows[i] = 0.05 + rng.random(n)
        elif kind == "sparse":
            rows[i] = rng.random(n) * (rng.random(n) < 0.4)
            rows[i, rng.integers(n)] = 1.0
    alpha = beta * rows / rows.sum(axis=1, keepdims=True) + (1.0 - beta) / n
    prices = 10.0 ** rng.uniform(-12.0, 0.0, n)
    return CesEconomy(alpha, np.array(rho)), prices


@given(damped_economies_and_prices())
@settings(max_examples=300, deadline=None)
def test_aggregate_demand_matches_dense_column_sums(pair):
    economy, p = pair
    dense = demand_matrix(economy, p).sum(axis=0)
    fast = aggregate_demand(economy)(p)
    assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


def assert_certificate_is_the_dense_column_sum(economy, p):
    dense = demand_matrix(economy, p).sum(axis=0)
    assert np.abs(excess_demand(economy, p) - (dense - 1.0)).max() <= 1e-12 * dense.max()


@given(economies_and_prices() | damped_economies_and_prices())
@settings(max_examples=400, deadline=None)
def test_certificate_matches_dense_column_sums(pair):
    assert_certificate_is_the_dense_column_sum(*pair)


class TestCertificate:
    """`excess_demand` is evaluated trader by trader, apart from the solver's kernel."""

    def test_never_calls_the_solver_kernel(self, monkeypatch):
        def kernel(economy):
            raise AssertionError("the certificate called aggregate_demand")

        for module in (cesrank.economy, cesrank.solver):
            monkeypatch.setattr(module, "aggregate_demand", kernel)
        economy = CesEconomy(np.ones((3, 3)), 0.5)
        assert verify_equilibrium(economy, np.full(3, 1 / 3)).passed

    def test_sees_the_demand_the_solver_kernel_drops(self):
        # rho 0.95 and floors 2e-17 below the row max: the kernel's floor**20
        # underflows to 0 and it loses good 4's demand, the dense rows keep it
        graph = DirectedGraph(5, [0, 1, 2, 3, 4], [1, 2, 3, 4, 0])
        economy = damped_economy(graph, np.ones(5), 0.95, 0.9999999999999999)
        p = np.array([0.25, 0.25, 0.25, 0.25 - 1e-18, 1e-18])
        dense = demand_matrix(economy, p).sum(axis=0)
        with np.errstate(all="ignore"):
            fast = aggregate_demand(economy)(p)
        assert not np.all(np.abs(fast - dense) <= 1e-12 * dense.max())
        assert_certificate_is_the_dense_column_sum(economy, p)


class TestAggregateDemand:
    def test_common_rho_on_a_damped_graph(self):
        # one exponent group, the shape every rank_problem economy has
        alpha = np.full((4, 4), 0.15 / 4)
        alpha[[0, 1, 2, 3], [1, 2, 3, 0]] += 0.85
        e = CesEconomy(alpha, 0.5)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(aggregate_demand(e)(p), demand_matrix(e, p).sum(axis=0), rtol=1e-14)

    def test_rescaled_rows_give_the_same_demand(self):
        # row scale cancels in the shares; rows of 1e-30 or 1e30 must not
        # under- or overflow alpha**q at q = 20
        rng = np.random.default_rng(4)
        alpha = 0.1 + rng.random((3, 3))
        p = np.array([0.5, 0.3, 0.2])
        reference = aggregate_demand(CesEconomy(alpha, 0.95))(p)
        scaled = aggregate_demand(CesEconomy(alpha * np.array([[1e-30], [1.0], [1e30]]), 0.95))(p)
        np.testing.assert_allclose(scaled, reference, rtol=1e-14)


def _chain_economy(matrix) -> CesEconomy:
    """The invariant method's economy of a row-stochastic chain: its edges, undamped, at rho 0."""
    graph = support_graph(np.asarray(matrix))
    return damped_economy(graph, np.asarray(matrix)[graph.src, graph.dst], 0.0, 1.0)


class TestMarkovToEconomy:
    """A chain read as a Cobb-Douglas market: state i trades its good for the goods it moves to."""

    def test_alpha_is_the_transition_matrix(self):
        p = np.array([[0.0, 1.0], [0.6, 0.4]])
        e = _chain_economy(p)
        np.testing.assert_array_equal(dense_alpha(e), p)
        np.testing.assert_array_equal(e.rho, 0.0)

    def test_disconnected_chain_rejected_with_witness(self):
        e = _chain_economy([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"component: \[0\]"):
            solve_cobb_douglas(e)

    def test_disconnected_chain_too_large_to_allocate_is_refused_as_disconnected(self):
        # the 2-cycle 0 <-> 1 reaches none of the dangling rows: the door
        # refuses the graph before the shares, 728 TiB of them, are allocated
        e = damped_economy(DirectedGraph(10**7, [0, 1], [1, 0]), np.ones(2), 0.0, 1.0)
        with pytest.raises(ValueError, match=r"not strongly connected \(one component: \[0, 1\]\)"):
            solve_cobb_douglas(e)

    def test_connectivity_checked_once(self, search_calls):
        # two searches per check, forward and backward, over the n states alone
        solve_cobb_douglas(_chain_economy([[0.0, 1.0], [1.0, 0.0]]))
        # row 1 has no zero entry, so it reaches every state, state 0 among them
        solve_cobb_douglas(_chain_economy([[0.0, 1.0], [0.6, 0.4]]))
        # a skewed chain, certified by its one solve
        _, report = solve_cobb_douglas(damped_economy(*skewed_graph("three"), 0.0, 1.0))
        assert report.iterations == 1
        assert search_calls == [2, 2, 2, 2, 3, 3]

    def test_periodic_chain_accepted_silently(self):
        # the 2-cycle's invariant distribution still clears the market
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prices, _ = solve_cobb_douglas(_chain_economy([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(prices.pi, [0.5, 0.5], atol=1e-15, rtol=0)


class TestBuildEconomy:
    def test_damped_problem_always_connects(self):
        alpha = np.zeros((3, 3))
        alpha[0, 1] = 1.0
        problem = RankingProblem(("x", "y", "z"), alpha, 0.5, beta=0.85)
        e = build_economy(problem)
        assert np.all(dense_alpha(e) > 0)


@st.composite
def dense_problems(draw):
    """Dense alphas of 1 to 8 rows, each all zero, sparse or all positive, with a common or a per-agent rho."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = np.array(draw(st.lists(st.sampled_from([0.0, 0.4, 1.0]), min_size=n, max_size=n)))
    alpha = rng.uniform(0.5, 3.0, (n, n)) * (rng.random((n, n)) < density[:, None])
    rhos = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 0.95])
    rho = draw(rhos | st.lists(rhos, min_size=n, max_size=n).map(np.array))
    return alpha, rho, draw(st.sampled_from([1.0, 0.85]))


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


@given(dense_problems())
@settings(max_examples=200, deadline=None)
def test_trusted_paths_build_what_the_checked_constructors_build(case):
    # the dense read hands its graph on unchecked, and `build_economy` the
    # problem's fields: both give what the checking constructors give
    alpha, rho, beta = case
    n = alpha.shape[0]
    graph = support_graph(alpha)
    reference = DirectedGraph(n, *np.nonzero(alpha > 0))
    assert graph.n == reference.n
    for mine, theirs in ((graph.src, reference.src), (graph.dst, reference.dst)):
        assert _bits(mine) == _bits(theirs) and not mine.flags.writeable
    problem = RankingProblem(None, alpha, rho, beta=beta)
    weights = problem.weights.copy()
    economy = build_economy(problem)
    checked = damped_economy(problem.graph, problem.weights, problem.rho, problem.beta)
    for field in ("floor", "rows", "cols", "values", "rho"):
        assert _bits(getattr(economy, field)) == _bits(getattr(checked, field)), field
    assert _bits(problem.weights) == _bits(weights)


@given(damped_economies_and_prices())
@settings(max_examples=200, deadline=None)
def test_common_rho_given_once_or_per_agent_gives_the_same_bits(pair):
    economy, p = pair
    alpha, rho = dense_alpha(economy), float(economy.rho[0])
    once, per_agent = CesEconomy(alpha, rho), CesEconomy(alpha, np.full(economy.n, rho))
    assert once.rho.strides == (0,) and per_agent.rho.strides != (0,)
    assert _bits(aggregate_demand(once)(p)) == _bits(aggregate_demand(per_agent)(p))
    assert _bits(excess_demand(once, p)) == _bits(excess_demand(per_agent, p))


@pytest.mark.parametrize(
    "evaluate",
    [excess_demand, lambda economy, p: aggregate_demand(economy)(p)],  # the kernel: its set-up and one call
    ids=["excess_demand", "aggregate_demand"],
)
def test_one_rho_keeps_no_edge_sized_index(evaluate):
    # a rho per agent flattens an (G, n) index per entry; one rho indexes by good alone
    rng = np.random.default_rng(0)
    n = 20_000
    key = np.unique(np.repeat(np.arange(n), 5) * n + rng.integers(0, n, 5 * n))
    graph = DirectedGraph(n, key // n, key % n)
    once, per_agent = (damped_economy(graph, np.ones(key.size), rho, 0.85) for rho in (0.5, np.full(n, 0.5)))
    p = np.full(n, 1.0 / n)
    peaks = []
    for economy in (once, per_agent):
        tracemalloc.start()
        evaluate(economy, p)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] >= 0.9 * once.rows.size * 8


@st.composite
def weighted_edge_lists(draw):
    """Edge lists with dangling, sparse and complete rows, and the weights the damping rule must round alike.

    Weights come from one palette per list: unit, random, spread over six
    hundred decades, subnormal beside 1, 1e308 twice in a row (the sum
    overflows), or 1e-30 beside 1 (at beta < 1 the damped value rounds to
    the floor). Half the lists keep every row to at most two edges.
    """
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = draw(st.sampled_from(["unit", "random", "wide", [1.0, 5e-324], [1e308, 1.0], [1e308], [1.0, 1e-30]]))
    src, dst = random_rows(rng, n, 2 if draw(st.booleans()) else n)
    if palette == "unit":
        weights = np.ones(len(src))
    elif palette == "random":
        weights = rng.uniform(0.5, 3.0, len(src))
    elif palette == "wide":
        weights = 10.0 ** rng.uniform(-300.0, 300.0, len(src))
    else:
        weights = rng.choice(palette, len(src))
    rho = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 0.8]))
    beta = draw(st.sampled_from([1.0, 0.85, 0.5]))
    return DirectedGraph(n, src, dst), weights, rho, beta


def random_rows(rng, n, most):
    """The edges of ``n`` rows, each dangling, sparse (1 to ``min(n, most, 6)`` columns) or, if ``most`` is n, complete."""
    src, dst = [], []
    for i in range(n):
        kind = rng.choice(["dangling", "sparse", "complete"])
        if kind == "complete" and most == n:
            cols = np.arange(n)
        elif kind != "dangling":
            cols = np.sort(rng.choice(n, size=int(rng.integers(1, min(n, most, 6) + 1)), replace=False))
        else:
            continue
        src += [i] * len(cols)
        dst += cols.tolist()
    return src, dst


def rounding_bounds(graph, alpha, dense):
    """The relative and the absolute part of the bound on ``|alpha - dense|`` when rows are summed in edge order.

    Rows of three or more weights are summed in edge order, not by
    sum(axis=1): each order is within (m - 1) half-ulps of the exact sum of m
    positive terms, and the division and the damping add three. Below the
    smallest normal number an operation's rounding error is absolute, up to
    half the smallest subnormal (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 2.1), so each of those roundings adds that too.
    """
    degree = np.bincount(graph.src, minlength=graph.n)[:, None]
    return (degree + 2) * np.finfo(float).eps * np.maximum(alpha, dense), (degree + 2) * np.finfo(float).smallest_subnormal


@given(weighted_edge_lists())
@settings(max_examples=300, deadline=None)
def test_damped_economy_matches_the_dense_path(case):
    graph, weights, rho, beta = case
    n = graph.n
    dense = reference_damped_chain(dense_weights(graph, weights), beta)
    economy = damped_economy(graph, weights, rho, beta)
    if not (np.all(weights == 1.0) or np.bincount(graph.src, minlength=n).max(initial=0) <= 2 or n < 8):
        relative, absolute = rounding_bounds(graph, dense_alpha(economy), dense)
        assert np.all(np.abs(dense_alpha(economy) - dense) <= relative + absolute)
        return
    assert np.array_equal(dense_alpha(economy), dense)
    reference = CesEconomy(dense, rho)
    for name in ("floor", "rows", "cols", "values"):
        assert np.array_equal(getattr(economy, name), getattr(reference, name))
    p = 0.05 + np.random.default_rng(n).random(n)
    assert np.array_equal(aggregate_demand(economy)(p), aggregate_demand(reference)(p))
    config = SolverConfig(max_iters=2000)
    try:
        expected, _ = solve_tatonnement(reference, config)
    except (ConvergenceError, ValueError) as error:
        with pytest.raises(type(error)):
            solve_tatonnement(economy, config)
        return
    prices, _ = solve_tatonnement(economy, config)
    assert np.array_equal(prices.pi, expected.pi)


@pytest.mark.parametrize("seed", [8107, 17847])
def test_a_subnormal_entry_is_off_the_dense_path_by_one_subnormal(seed):
    # a wide-palette list at rho -1 and beta 1 (59 vertices and 1333 edges at
    # seed 8107): one entry of a complete row, about 1e-310, is one subnormal
    # (4.9e-324) off the dense path, which no relative bound allows
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 65))
    src, dst = random_rows(rng, n, n)
    graph = DirectedGraph(n, src, dst)
    weights = 10.0 ** rng.uniform(-300.0, 300.0, len(src))
    dense = reference_damped_chain(dense_weights(graph, weights), 1.0)
    alpha = dense_alpha(damped_economy(graph, weights, -1.0, 1.0))
    relative, absolute = rounding_bounds(graph, alpha, dense)
    error = np.abs(alpha - dense)
    assert np.any(error > relative)
    assert np.all(error <= relative + absolute)


@pytest.mark.parametrize(
    "weights, message",
    [
        ([np.nan, 1.0, 1.0, 1.0], r"edge \(0, 1\) has weight nan"),
        ([np.inf, 1.0, 1.0, 1.0], r"edge \(0, 1\) has weight inf"),
        ([-1.0, 1.0, 1.0, 1.0], r"edge \(0, 1\) has weight -1\.0"),
        ([0.0, 1.0, 1.0, 1.0], r"edge \(0, 1\) has weight 0\.0"),
        ([1.0, 1.0, 1.0], r"one per edge: 4 edges, got shape \(3,\)"),
    ],
    ids=["nan", "inf", "negative", "zero", "short"],
)
@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_damped_economy_rejects_bad_weights(weights, message, rho):
    graph = DirectedGraph(3, [0, 1, 2, 2], [1, 2, 0, 1])
    with pytest.raises(ValueError, match=message):
        damped_economy(graph, np.array(weights), rho, 0.85)


@given(weighted_edge_lists(), st.sampled_from([0, 4, cesrank.solver._SCALAR_EDGES]))
@settings(max_examples=200, deadline=None)
def test_connectivity_check_matches_the_dense_support_graph(case, scalar_edges):
    # undamped, rows with a positive floor (dangling or complete ones) want
    # every good; the check reads them off the floors. A search level steps in
    # scalars or vectorized by its width; the drawn cutoff 0 vectorizes every
    # level, 4 mixes both steps, and the default is the one the package runs
    graph, weights, rho, _ = case
    economy = damped_economy(graph, weights, rho, 1.0)
    component = economy_component(economy)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cesrank.solver, "_SCALAR_EDGES", scalar_edges)
        reason = cesrank.solver._connectivity_refusal(economy)
    if reason is not None:
        assert component != list(range(graph.n))
        assert f"(one component: {component})" in reason
    else:
        assert component == list(range(graph.n))

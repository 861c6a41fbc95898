import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesrank.markov
from cesrank import (
    CesEconomy,
    PriceVector,
    RankingProblem,
    TransitionMatrix,
    build_economy,
    ces_demand,
    cobb_douglas_demand,
    demand_matrix,
    excess_demand,
    markov_to_economy,
    solve_cobb_douglas,
    solve_equilibrium,
    verify_equilibrium,
)
from cesrank.economy import aggregate_demand

from oracles import grid_search_demand


class TestPriceVector:
    def test_must_be_simplex(self):
        with pytest.raises(ValueError, match="sum"):
            PriceVector(np.array([0.7, 0.7]))

    def test_strictly_positive(self):
        with pytest.raises(ValueError, match="good 1"):
            PriceVector(np.array([1.0, 0.0]))

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

    def test_writable_alpha_is_copied(self):
        alpha = np.array([[0.5, 0.5], [0.25, 0.75]])
        economy = CesEconomy(alpha, 0.5)
        alpha[0, 0] = 9.0
        np.testing.assert_array_equal(economy.alpha, [[0.5, 0.5], [0.25, 0.75]])


class TestCobbDouglasDemand:
    def test_fixed_budget_shares(self):
        # shares (0.3, 0.7), income = price of own good = 0.6
        e = CesEconomy([[0.3, 0.7], [0.5, 0.5]], 0.0)
        x = cobb_douglas_demand(e, 0, np.array([0.6, 0.4]))
        np.testing.assert_allclose(x, [0.30, 1.05])

    def test_rejects_non_unit_elasticity_trader(self):
        e = CesEconomy(np.ones((2, 2)), 0.5)
        with pytest.raises(ValueError, match="trader 0"):
            cobb_douglas_demand(e, 0, np.array([0.5, 0.5]))

    def test_budget_exhausted(self):
        e = CesEconomy([[0.2, 0.8], [0.6, 0.4]], 0.0)
        p = np.array([0.3, 0.7])
        for i in range(2):
            x = cobb_douglas_demand(e, i, p)
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
        e = CesEconomy([[0.3, 0.7], [0.5, 0.5]], 0.0)
        p = np.array([0.6, 0.4])
        np.testing.assert_array_equal(ces_demand(e, 0, p), cobb_douglas_demand(e, 0, p))

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


class TestMarkovToEconomy:
    def test_alpha_is_the_transition_matrix(self):
        p = TransitionMatrix(np.array([[0.0, 1.0], [0.6, 0.4]]))
        e = markov_to_economy(p)
        np.testing.assert_array_equal(e.alpha, p.matrix)
        np.testing.assert_array_equal(e.rho, 0.0)

    def test_disconnected_chain_rejected_with_witness(self):
        p = TransitionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ValueError, match=r"component: \[0\]"):
            markov_to_economy(p)

    def test_connectivity_checked_once(self, monkeypatch):
        calls = []
        original = cesrank.markov.is_strongly_connected

        def counted(graph):
            calls.append(graph.n)
            return original(graph)

        monkeypatch.setattr(cesrank.markov, "is_strongly_connected", counted)
        markov_to_economy(TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        markov_to_economy(TransitionMatrix(np.array([[0.0, 1.0], [0.6, 0.4]])))
        assert calls == [2, 2]

    def test_periodic_chain_accepted_silently(self):
        # the 2-cycle's invariant distribution still clears the market
        p = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            economy = markov_to_economy(p)
        prices, _ = solve_cobb_douglas(economy)
        np.testing.assert_allclose(prices.pi, [0.5, 0.5], atol=1e-15, rtol=0)


class TestBuildEconomy:
    def test_damped_problem_always_connects(self):
        alpha = np.zeros((3, 3))
        alpha[0, 1] = 1.0
        problem = RankingProblem(("x", "y", "z"), alpha, 0.5, beta=0.85)
        e = build_economy(problem)
        assert np.all(e.alpha > 0)


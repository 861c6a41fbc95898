import numpy as np
import pytest

import cesrank.markov
from cesrank import (
    CesEconomy,
    ConvergenceError,
    DirectedGraph,
    PriceVector,
    RankingProblem,
    SolverConfig,
    TransitionMatrix,
    build_economy,
    build_web_transition,
    load_fixture,
    markov_to_economy,
    multistart_probe,
    problem_from_edge_list,
    rank_problem,
    solve_cobb_douglas,
    solve_equilibrium,
    solve_tatonnement,
    stationary_distribution,
    verify_equilibrium,
)

from oracles import fixed_point_equilibrium, out_regular_edges

# Equilibrium of the bundled nonuniform3 fixture, frozen from an independent
# fixed-point iteration (see oracles.fixed_point_equilibrium).
NONUNIFORM3_EQUILIBRIUM = np.array(
    [0.3276676903794467, 0.3446646192411066, 0.3276676903794467]
)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.method == "auto"
        assert cfg.tolerance == 1e-10
        assert cfg.gamma == 0.5
        assert cfg.max_iters == 200_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "newton"},
            {"tolerance": 0.0},
            {"gamma": 0.0},
            {"gamma": 1.5},
            {"max_iters": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolveCobbDouglas:
    def test_matches_stationary_distribution(self):
        p = build_web_transition(
            DirectedGraph(3, [0, 0, 1, 2], [1, 2, 2, 0]), c=0.85
        )
        dist, _ = stationary_distribution(p)
        prices, report = solve_cobb_douglas(markov_to_economy(p))
        np.testing.assert_allclose(prices.pi, dist.pi, atol=1e-12, rtol=0)
        assert report.method == "closed_form"
        assert report.converged

    def test_plain_chain_equilibrium(self):
        # stationary distribution (0.4, 0.2, 0.4)
        e = markov_to_economy(
            TransitionMatrix(np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        )
        prices, _ = solve_cobb_douglas(e)
        np.testing.assert_allclose(prices.pi, [0.4, 0.2, 0.4], atol=1e-12, rtol=0)

    def test_rejects_non_unit_elasticity(self):
        e = CesEconomy(np.ones((2, 2)), 0.5)
        with pytest.raises(ValueError, match="closed form"):
            solve_cobb_douglas(e)

    def test_rejects_disconnected(self):
        alpha = np.array([[1.0, 0.0], [1.0, 1.0]])
        e = CesEconomy(alpha, 0.0)
        with pytest.raises(ValueError, match="strongly connected"):
            solve_cobb_douglas(e)

    def test_residual_certified_through_demand(self):
        rng = np.random.default_rng(3)
        alpha = 0.1 + rng.random((8, 8))
        e = CesEconomy(alpha, np.zeros(8))
        prices, report = solve_cobb_douglas(e)
        clearing = verify_equilibrium(e, prices)
        assert clearing.passed
        assert clearing.residual == report.residual


class TestSolveTatonnement:
    def test_nonuniform3_matches_independent_fixed_point(self):
        problem = load_fixture("nonuniform3")
        economy = build_economy(problem)
        prices, report = solve_tatonnement(economy)
        np.testing.assert_allclose(prices.pi, NONUNIFORM3_EQUILIBRIUM, atol=1e-9, rtol=0)
        assert report.converged
        assert report.residual <= 1e-10
        # and the frozen value itself against the live oracle
        oracle = fixed_point_equilibrium(economy.alpha, q=2.0)
        np.testing.assert_allclose(oracle, NONUNIFORM3_EQUILIBRIUM, atol=1e-12, rtol=0)

    def test_symmetric_economy_converges_immediately(self):
        e = CesEconomy(np.ones((4, 4)), 0.5)
        prices, report = solve_tatonnement(e)
        np.testing.assert_allclose(prices.pi, 0.25, atol=1e-12)
        assert report.iterations == 0

    def test_initial_prices_honored(self):
        problem = load_fixture("nonuniform3")
        economy = build_economy(problem)
        start = PriceVector.from_unnormalized([0.6, 0.1, 0.3])
        prices, _ = solve_tatonnement(economy, SolverConfig(initial_prices=start))
        np.testing.assert_allclose(prices.pi, NONUNIFORM3_EQUILIBRIUM, atol=1e-9, rtol=0)

    def test_iteration_budget_exhaustion(self):
        problem = load_fixture("nonuniform3")
        economy = build_economy(problem)
        with pytest.raises(ConvergenceError) as exc_info:
            solve_tatonnement(economy, SolverConfig(max_iters=2))
        err = exc_info.value
        assert "2 iterations" in str(err)
        assert err.last_iterate is not None
        assert len(err.residual_tail) > 0
        assert np.isfinite(err.residual)

    def test_negative_rho_still_clears(self):
        rng = np.random.default_rng(5)
        alpha = 0.2 + rng.random((4, 4))
        e = CesEconomy(alpha, -0.5)
        prices, report = solve_tatonnement(e)
        assert verify_equilibrium(e, prices).passed
        assert report.converged

    def test_price_underflow_is_a_convergence_error(self):
        # steep demand (rho 0.9) at the default step overshoots until a price
        # underflows to 0: the solver failed, the input was fine
        weights = np.zeros((20, 20))
        weights[tuple(zip(*out_regular_edges(np.random.default_rng(1), 20)))] = 1.0
        with pytest.raises(ConvergenceError, match=r"price of good \d+ is 0\.0 after iteration \d+; tatonnement diverged") as info:
            rank_problem(problem_from_edge_list(weights, rho=0.9))
        assert info.value.residual_tail

    def test_disconnected_rejected_before_iterating(self):
        alpha = np.array([[1.0, 0.0], [1.0, 1.0]])
        e = CesEconomy(alpha, 0.5)
        with pytest.raises(ValueError, match="strongly connected"):
            solve_tatonnement(e)


class TestSolveEquilibrium:
    def test_auto_uses_closed_form_for_unit_elasticity(self):
        e = CesEconomy(np.ones((3, 3)), 0.0)
        _, report = solve_equilibrium(e)
        assert report.method == "closed_form"

    def test_auto_falls_back_to_tatonnement(self):
        e = CesEconomy(np.ones((3, 3)), 0.5)
        _, report = solve_equilibrium(e)
        assert report.method == "tatonnement"

    def test_mixed_rho_uses_tatonnement(self):
        e = CesEconomy(np.ones((3, 3)), np.array([0.0, 0.5, 0.0]))
        _, report = solve_equilibrium(e)
        assert report.method == "tatonnement"

    def test_explicit_method_respected(self):
        e = CesEconomy(np.ones((3, 3)), 0.0)
        _, report = solve_equilibrium(e, SolverConfig(method="tatonnement"))
        assert report.method == "tatonnement"


class TestVerifyEquilibrium:
    def test_accepts_true_equilibrium(self):
        e = CesEconomy(np.ones((3, 3)), 0.5)
        report = verify_equilibrium(e, np.full(3, 1 / 3))
        assert report.passed
        assert report.residual <= 1e-14
        np.testing.assert_allclose(report.per_good, 0.0, atol=1e-14)

    def test_rejects_wrong_prices(self):
        problem = load_fixture("nonuniform3")
        e = build_economy(problem)
        report = verify_equilibrium(e, np.full(3, 1 / 3))
        assert not report.passed
        assert report.residual > 1e-3

    def test_tolerance_parameter(self):
        e = CesEconomy(np.ones((2, 2)), 0.0)
        report = verify_equilibrium(e, np.array([0.5 + 1e-6, 0.5 - 1e-6]), tolerance=1e-3)
        assert report.passed


class TestMultistartProbe:
    def test_unique_regime_tight_spread(self):
        problem = load_fixture("nonuniform3")
        economy = build_economy(problem)
        report = multistart_probe(economy, k_starts=5)
        assert report.within_bound is True
        assert report.spread <= report.bound
        assert len(report.prices) == 5
        for p in report.prices:
            np.testing.assert_allclose(p.pi, NONUNIFORM3_EQUILIBRIUM, atol=1e-8, rtol=0)

    def test_negative_rho_reports_without_judgement(self):
        rng = np.random.default_rng(2)
        alpha = 0.2 + rng.random((3, 3))
        economy = CesEconomy(alpha, -0.5)
        report = multistart_probe(economy, k_starts=3)
        assert report.within_bound is None
        assert np.isfinite(report.spread)

    def test_needs_two_starts(self):
        e = CesEconomy(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError, match="at least 2"):
            multistart_probe(e, k_starts=1)

    def test_seed_reproducible(self):
        problem = load_fixture("nonuniform3")
        economy = build_economy(problem)
        a = multistart_probe(economy, SolverConfig(seed=42), k_starts=3)
        b = multistart_probe(economy, SolverConfig(seed=42), k_starts=3)
        assert a.spread == b.spread
        for pa, pb in zip(a.prices, b.prices):
            np.testing.assert_array_equal(pa.pi, pb.pi)


class TestRankProblem:
    def test_full_pipeline_on_fixture(self):
        problem = load_fixture("nonuniform3")
        prices, report = rank_problem(problem)
        np.testing.assert_allclose(prices.pi, NONUNIFORM3_EQUILIBRIUM, atol=1e-9, rtol=0)
        assert report.converged

    def test_damping_changes_scores(self):
        problem = load_fixture("nonuniform3")
        damped = RankingProblem(problem.agent_ids, problem.alpha, problem.rho, beta=0.85)
        a, _ = rank_problem(problem)
        b, _ = rank_problem(damped)
        assert np.abs(a.pi - b.pi).max() > 1e-4

    def test_undamped_disconnected_rejected(self):
        alpha = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        problem = RankingProblem(("x", "y", "z"), alpha, 0.5, beta=1.0)
        with pytest.raises(ValueError, match=r"component: \[0, 1\]\); .*damp with beta < 1"):
            rank_problem(problem)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_connectivity_checked_once(self, rho, monkeypatch):
        calls = []
        original = cesrank.markov.is_strongly_connected

        def counted(graph):
            calls.append(graph.n)
            return original(graph)

        monkeypatch.setattr(cesrank.markov, "is_strongly_connected", counted)
        problem = load_fixture("nonuniform3")
        rank_problem(RankingProblem(problem.agent_ids, problem.alpha, rho, beta=0.85))
        assert calls == [3]

    def test_zero_row_agent_handled(self):
        alpha = np.array([[0.0, 0.0], [1.0, 0.0]])
        problem = RankingProblem(("p", "q"), alpha, 0.0, beta=0.85)
        prices, _ = rank_problem(problem)
        assert prices.pi.sum() == pytest.approx(1.0)
        assert np.all(prices.pi > 0)

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import cesrank.markov
import cesrank.solver
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
    damped_economy,
    demand_matrix,
    load_fixture,
    markov_to_economy,
    multistart_probe,
    problem_from_edge_list,
    rank_problem,
    sniff_and_load,
    solve_cobb_douglas,
    solve_equilibrium,
    solve_tatonnement,
    stationary_distribution,
    verify_equilibrium,
    weight_matrix,
)

from oracles import dense_tatonnement, fixed_point_equilibrium, out_regular_edges, with_dangling_vertices

# Equilibrium of the bundled nonuniform3 fixture, frozen from an independent
# fixed-point iteration (see oracles.fixed_point_equilibrium).
NONUNIFORM3_EQUILIBRIUM = np.array(
    [0.3276676903794467, 0.3446646192411066, 0.3276676903794467]
)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-10
        assert cfg.max_iters == 200_000
        # the tatonnement step is derived from the economy, not configured
        assert [f.name for f in fields(cfg)] == ["tolerance", "max_iters", "initial_prices", "seed"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": float("nan")},
            {"tolerance": 0.0},
            {"tolerance": -1e-10},
            {"max_iters": 0},
            {"max_iters": -1},
            {"tolerance": float("inf")},
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

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        economy = markov_to_economy(build_web_transition(DirectedGraph(3, [0, 1, 2], [1, 2, 0])))
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            solve_cobb_douglas(economy, tolerance=tolerance)

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

    def test_price_underflow_is_a_convergence_error(self, monkeypatch):
        # a kernel that reports no demand for good 1 drives its price to 0:
        # the solver failed, the input was fine
        def no_demand_for_good_1(economy):
            def demand(prices):
                d = np.ones_like(prices)
                d[1] = 0.0
                return d

            return demand

        monkeypatch.setattr(cesrank.solver, "aggregate_demand", no_demand_for_good_1)
        economy = build_economy(load_fixture("nonuniform3"))
        with pytest.raises(ConvergenceError, match=r"price of good 1 is 0\.0 after iteration 0; tatonnement diverged") as info:
            solve_tatonnement(economy)
        assert info.value.residual_tail == [1.0]
        assert "gamma" not in str(info.value)

    def test_demand_overflow_is_a_convergence_error(self):
        # weights over 600 decades at rho 0.8 drive a price so low that one
        # trader's budget over its normalizer overflows at iteration 1278: a
        # non-finite demand, reported as such and not as a numpy warning
        graph = DirectedGraph(6, np.repeat([0, 1, 2, 3, 5], 6), np.tile(np.arange(6), 5))
        weights = np.array([
            2.31654349e026, 2.13327984e241, 1.95936030e-14, 1.98502800e-42, 2.33362209e173, 3.10312992e290,
            6.84661002e-79, 2.28939953e281, 2.60514955e257, 4.12621123e-194, 2.04630378e065, 8.29559114e122,
            4.81069117e265, 2.47999143e099, 1.09006720e-220, 5.25483727e-02, 1.48559481e-04, 1.36682719e000,
            1.41049537e275, 9.17148993e-91, 1.83099883e-166, 1.78731593e013, 5.04143740e084, 2.91227280e263,
            1.61987084e049, 5.01226674e-140, 7.32516117e257, 1.08435321e-05, 3.02356257e105, 4.20093813e-15,
        ])
        economy = damped_economy(graph, weights, 0.8, 1.0)
        with pytest.raises(ConvergenceError, match="excess demand of good 0 is not finite at iteration 1278"):
            solve_tatonnement(economy, SolverConfig(max_iters=2000))

    def test_disconnected_rejected_before_iterating(self):
        alpha = np.array([[1.0, 0.0], [1.0, 1.0]])
        e = CesEconomy(alpha, 0.5)
        with pytest.raises(ValueError, match="strongly connected"):
            solve_tatonnement(e)


def _golden_problem(source, rho):
    if source == "dangling":
        _, edges = sniff_and_load(str(Path(__file__).parent / "golden" / "dangling.edges"))
        return problem_from_edge_list(weight_matrix(*edges), rho=rho)
    return replace(load_fixture(source), rho=rho)


def _random_weighted_problem(seed, rho):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 201))
    _, src, dst, _ = with_dangling_vertices(rng, n, max(1, n // 10))
    weights = np.zeros((n, n))
    weights[src, dst] = rng.uniform(0.5, 3.0, len(src))
    return problem_from_edge_list(weights, rho=rho)


class TestTatonnementTrajectory:
    """The aggregate kernel leaves the iteration where the dense kernel had it."""

    @staticmethod
    def assert_same_trajectory(economy):
        reference, reference_iters = dense_tatonnement(demand_matrix, economy)
        assert reference is not None  # every case certifies at the derived step
        prices, report = solve_tatonnement(economy)
        assert np.abs(prices.pi - reference).max() <= 1e-12
        assert abs(report.iterations - reference_iters) <= 1

    @pytest.mark.parametrize("rho", [0.5, -0.5])
    @pytest.mark.parametrize("source", ["nonuniform3", "monotone3", "dangling"])
    def test_golden_inputs(self, source, rho):
        self.assert_same_trajectory(build_economy(_golden_problem(source, rho)))

    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.5, 0.8])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_weighted_graphs(self, seed, rho):
        self.assert_same_trajectory(build_economy(_random_weighted_problem(seed, rho)))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_weighted_graphs_small_step(self, seed):
        # the largest accepted rho derives the smallest step, 1 - 0.95
        self.assert_same_trajectory(build_economy(_random_weighted_problem(seed, 0.95)))


class TestTatonnementCertificate:
    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_report_residual_is_the_certificate(self, rho):
        economy = build_economy(_random_weighted_problem(7, rho))
        prices, report = solve_tatonnement(economy)
        clearing = verify_equilibrium(economy, prices)
        assert clearing.passed
        assert clearing.residual == report.residual

    def test_uncertified_convergence_iterates_on(self, monkeypatch):
        economy = build_economy(load_fixture("nonuniform3"))
        _, plain = solve_tatonnement(economy)
        certificate = cesrank.solver.excess_demand
        residuals = []

        def first_check_fails(e, prices):
            z = certificate(e, prices)
            residuals.append(float(np.abs(z).max()))
            return z + 1.0 if len(residuals) == 1 else z

        monkeypatch.setattr(cesrank.solver, "excess_demand", first_check_fails)
        prices, report = solve_tatonnement(economy)
        assert len(residuals) == 2
        assert report.iterations == plain.iterations + 1
        assert report.residual == residuals[1]
        assert report.converged

    def test_never_certified_never_converges(self, monkeypatch):
        economy = build_economy(load_fixture("nonuniform3"))
        _, plain = solve_tatonnement(economy)
        certificate = cesrank.solver.excess_demand
        monkeypatch.setattr(cesrank.solver, "excess_demand", lambda e, prices: certificate(e, prices) + 1.0)
        with pytest.raises(ConvergenceError, match="did not clear the market"):
            solve_tatonnement(economy, SolverConfig(max_iters=plain.iterations + 5))


@pytest.mark.parametrize("rho", [-1.0, -0.5, 0.5, 0.8, 0.9, 0.95])
@pytest.mark.parametrize("n", [20, 300])
def test_rho_sweep_certifies_or_reports_no_convergence(n, rho):
    # every accepted rho either gives a certified ranking or a
    # ConvergenceError (exit 3), never a ValueError (exit 2)
    weights = np.zeros((n, n))
    weights[tuple(zip(*out_regular_edges(np.random.default_rng(1), n)))] = 1.0
    problem = problem_from_edge_list(weights, rho=rho)
    try:
        prices, report = rank_problem(problem, SolverConfig(max_iters=2000))
    except ConvergenceError:
        return
    assert report.converged
    assert verify_equilibrium(build_economy(problem), prices).passed


SWEEP_RHO = [-1.0, -0.5, 0.5, 0.8, 0.9, 0.95]


def _assert_certified(problem):
    prices, report = rank_problem(problem, SolverConfig(max_iters=2000))
    assert report.converged
    assert verify_equilibrium(build_economy(problem), prices).passed


@pytest.mark.parametrize("rho", SWEEP_RHO)
@pytest.mark.parametrize("n", [20, 300])
def test_rho_sweep_certifies(n, rho):
    # the step derived from the steepest trader certifies every sweep rho
    weights = np.zeros((n, n))
    weights[tuple(zip(*out_regular_edges(np.random.default_rng(1), n)))] = 1.0
    _assert_certified(problem_from_edge_list(weights, rho=rho))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [20, 300])
def test_mixed_rho_sweep_certifies(n, seed):
    # one step, set by the steepest trader, serves the whole economy
    rng = np.random.default_rng(seed)
    weights = np.zeros((n, n))
    weights[tuple(zip(*out_regular_edges(rng, n)))] = 1.0
    _assert_certified(problem_from_edge_list(weights, rho=rng.choice(SWEEP_RHO, size=n)))


@pytest.mark.parametrize("rho", [-1.0, -0.5])
@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)],  # star 0 <-> {1, 2, 3}
        [(a, b) for a in (0, 1) for b in (2, 3, 4)] + [(b, a) for a in (0, 1) for b in (2, 3, 4)],  # 2 x 3
    ],
    ids=["star", "bipartite"],
)
def test_undamped_periodic_graph_certifies(edges, rho):
    # period 2 and beta = 1: a step of 1 cycles forever here, the cap of
    # 0.5 on the derived step does not
    n = 1 + max(max(e) for e in edges)
    weights = np.zeros((n, n))
    weights[tuple(zip(*edges))] = 1.0
    _assert_certified(problem_from_edge_list(weights, rho=rho, beta=1.0))


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
        # the iterative path for a rho-0 economy is a direct call, not a config knob
        e = CesEconomy(load_fixture("nonuniform3").alpha, 0.0)
        closed, _ = solve_equilibrium(e)
        prices, report = solve_tatonnement(e)
        assert report.method == "tatonnement"
        np.testing.assert_allclose(prices.pi, closed.pi, atol=1e-9, rtol=0)


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
        # damped: every alpha entry is positive, so the graph is complete
        rank_problem(RankingProblem(problem.agent_ids, problem.alpha, rho, beta=0.85))
        assert calls == []
        # undamped with zero entries: the exact check runs once, on the three
        # agents plus the one auxiliary vertex that stands for the edges of
        # rows 1 and 2, which have no zero entry
        alpha = problem.alpha.copy()
        alpha[0, 2] = 0.0
        rank_problem(RankingProblem(problem.agent_ids, alpha, rho, beta=1.0))
        assert calls == [4]

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_row_sum_overflow_ranks_as_rescaled_row(self, rho):
        # invariance to reference intensity holds up to the largest float
        alpha = np.array([[1.0, 1.0, 0.5], [0.2, 0.0, 0.8], [0.5, 0.5, 0.0]])
        huge = alpha.copy()
        huge[0] *= 1e308
        reference, _ = rank_problem(RankingProblem(("a", "b", "c"), alpha, rho))
        prices, report = rank_problem(RankingProblem(("a", "b", "c"), huge, rho))
        assert report.converged
        np.testing.assert_allclose(prices.pi, reference.pi, atol=1e-12, rtol=0)

    def test_zero_row_agent_handled(self):
        alpha = np.array([[0.0, 0.0], [1.0, 0.0]])
        problem = RankingProblem(("p", "q"), alpha, 0.0, beta=0.85)
        prices, _ = rank_problem(problem)
        assert prices.pi.sum() == pytest.approx(1.0)
        assert np.all(prices.pi > 0)

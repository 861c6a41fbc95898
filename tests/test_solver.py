import io
import json
import logging
import re
from dataclasses import fields
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesrank.economy
import cesrank.problem
import cesrank.solver
from cesrank import (
    CesEconomy,
    ClearingReport,
    ConvergenceError,
    DirectedGraph,
    Leg,
    PriceVector,
    RankingProblem,
    SolverConfig,
    SolverReport,
    build_economy,
    damped_economy,
    load_fixture,
    load_problem,
    rank_problem,
    sniff_and_load,
    solve_cobb_douglas,
    solve_equilibrium,
    solve_power,
    solve_tatonnement,
    verify_equilibrium,
    web_economy,
)
from cesrank.economy import aggregate_demand

from oracles import (
    SKEWED_GRAPHS,
    demand_matrix,
    dense_alpha,
    dense_tatonnement,
    dense_weights,
    fixed_point_equilibrium,
    lstsq_jump,
    multistart_probe,
    out_regular_edges,
    plain_tatonnement,
    random_strongly_connected_graph,
    skewed_graph,
    with_dangling_vertices,
)

# Equilibrium of the bundled nonuniform3 fixture, frozen from an independent
# fixed-point iteration (see oracles.fixed_point_equilibrium).
NONUNIFORM3_EQUILIBRIUM = np.array(
    [0.3276676903794467, 0.3446646192411066, 0.3276676903794467]
)


def fixture_alpha(name) -> np.ndarray:
    """The dense weights of a bundled fixture, n x n."""
    problem = load_fixture(name)
    return dense_weights(problem.graph, problem.weights)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-10
        assert cfg.max_iters == 200_000
        # the tatonnement step is derived from the economy, not configured
        assert [f.name for f in fields(cfg)] == ["tolerance", "max_iters", "initial_prices"]

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
        economy = web_economy(DirectedGraph(3, [0, 0, 1, 2], [1, 2, 2, 0]), c=0.85)
        dist, _ = solve_power(economy, SolverConfig(tolerance=1e-12))
        prices, report = solve_cobb_douglas(economy)
        np.testing.assert_allclose(prices.pi, dist.pi, atol=1e-12, rtol=0)
        assert report.method == "closed_form"
        assert report.converged

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, True])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        economy = web_economy(DirectedGraph(3, [0, 1, 2], [1, 2, 0]))
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            solve_cobb_douglas(economy, SolverConfig(tolerance=tolerance))

    @pytest.mark.parametrize("max_iters", [1e3, 2.0, "3", True])
    def test_max_iters_must_be_an_integer(self, max_iters):
        # a float budget would fail later, in the loop's `range`; True is no budget of one step
        with pytest.raises(ValueError, match=re.escape(f"max_iters must be an integer, got {max_iters!r}")):
            SolverConfig(max_iters=max_iters)
        assert SolverConfig(max_iters=np.int64(3)).max_iters == 3

    def test_plain_chain_equilibrium(self):
        # stationary distribution (0.4, 0.2, 0.4)
        e = CesEconomy(np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), 0.0)
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

    def test_certified_solve_is_verified_once(self, monkeypatch):
        calls = []
        original = cesrank.solver.verify_equilibrium

        def counted(economy, prices, tolerance=1e-10):
            calls.append(tolerance)
            return original(economy, prices, tolerance)

        monkeypatch.setattr(cesrank.solver, "verify_equilibrium", counted)
        _, report = solve_cobb_douglas(CesEconomy(np.array([[0.1, 0.9], [0.5, 0.5]]), 0.0))
        assert (report.method, report.iterations, calls) == ("closed_form", 1, [1e-10])

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-12])
    @pytest.mark.parametrize("name", sorted(SKEWED_GRAPHS))
    def test_skewed_solve_is_certified_alone(self, name, tolerance):
        # a LAPACK solve left excess demand near 1e-7 on "three" and a
        # negative price on "five"; GTH elimination never subtracts, so its
        # smallest prices are as accurate as its largest
        economy = damped_economy(*skewed_graph(name), 0.0, 1.0)
        prices, report = solve_cobb_douglas(economy, SolverConfig(tolerance=tolerance))
        assert report.method == "closed_form" and report.iterations == 1
        assert report.converged and report.residual <= tolerance
        assert verify_equilibrium(economy, prices, tolerance).residual == report.residual
        assert prices.pi.min() > 0.0
        if name == "three":
            assert abs(prices.pi[2] / 4.99999999993e-12 - 1.0) <= 1e-9
        else:
            assert abs(prices.pi[4] / 4.975368960e-20 - 1.0) <= 1e-8

    def test_found_skewed_list_is_certified(self):
        # a tatonnement finish from a LAPACK solve ran 200 000 steps on this
        # list and stopped at residual 7.7e-6
        graph = DirectedGraph(5, [0, 0, 1, 1, 2, 2, 3, 4], [1, 3, 3, 4, 1, 4, 0, 2])
        weights = np.array([1e-3, 1e4, 1e7, 1e-3, 100.0, 1e7, 100.0, 1e6])
        economy = damped_economy(graph, weights, 0.0, 1.0)
        prices, report = solve_cobb_douglas(economy, SolverConfig(tolerance=1e-12))
        assert report.iterations == 1 and report.residual <= 1e-12
        assert verify_equilibrium(economy, prices, 1e-12).residual == report.residual
        assert abs(prices.pi[2] / 5.000049249987613e-13 - 1.0) <= 1e-9

    def test_uncertified_prices_are_a_convergence_error(self):
        # GTH's rounding leaves a residual of 2e-15 on "three"
        economy = damped_economy(*skewed_graph("three"), 0.0, 1.0)
        residual = solve_cobb_douglas(economy, SolverConfig(tolerance=1e-12))[1].residual
        assert residual > 1e-20
        with pytest.raises(ConvergenceError, match=r"^closed form not certified: residual \d") as info:
            solve_cobb_douglas(economy, SolverConfig(tolerance=1e-20))
        assert info.value.residual == residual and info.value.last_iterate.min() > 0.0

    def test_residual_certified_through_demand(self):
        rng = np.random.default_rng(3)
        alpha = 0.1 + rng.random((8, 8))
        e = CesEconomy(alpha, np.zeros(8))
        prices, report = solve_cobb_douglas(e)
        clearing = verify_equilibrium(e, prices)
        assert clearing.passed
        assert clearing.residual == report.residual


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8))
def test_skewed_closed_form_is_certified_by_its_solve(seed, n):
    # undamped graphs whose weights span 16 decades: every price, the
    # smallest included, is accurate enough that the one solve certifies
    rng = np.random.default_rng(seed)
    n, src, dst = random_strongly_connected_graph(rng, n, 0.3)
    economy = damped_economy(DirectedGraph(n, src, dst), 10.0 ** rng.integers(-8, 9, len(src)), 0.0, 1.0)
    prices, report = solve_cobb_douglas(economy, SolverConfig(tolerance=1e-12))
    assert report.method == "closed_form" and report.iterations == 1
    assert report.converged and report.residual <= 1e-12
    assert prices.pi.min() > 0.0


def test_solve_power_matches_the_closed_form():
    # the iteration and the linear solve share no arithmetic; rows scaled by
    # 1e-100 or 1e100 keep their shares, so both must give the same prices
    rng = np.random.default_rng(14)
    for _ in range(40):
        n, src, dst, _ = with_dangling_vertices(rng, int(rng.integers(3, 30)), 1)
        weights = rng.uniform(0.5, 3.0, len(src))
        damped = damped_economy(DirectedGraph(n, src, dst), weights, 0.0, float(rng.uniform(0.3, 0.85)))
        scaled = CesEconomy(dense_alpha(damped) * 10.0 ** rng.choice([-100, 0, 100], size=(n, 1)), 0.0)
        for economy in (damped, scaled):
            power, report = solve_power(economy, SolverConfig(tolerance=1e-12))
            closed, _ = solve_cobb_douglas(economy)
            assert report.method == "power"
            assert report.residual <= 1e-12
            np.testing.assert_allclose(power.pi, closed.pi, atol=1e-12, rtol=0)
    huge = CesEconomy(np.array([[1e308, 1e308, 5e307], [1.0, 2.0, 3.0], [3.0, 1.0, 1.0]]), 0.0)  # row 0 sums past max float
    np.testing.assert_allclose(solve_power(huge, SolverConfig(tolerance=1e-12))[0].pi, solve_cobb_douglas(huge)[0].pi, atol=1e-12, rtol=0)
    # it contracts only at rho 0 with every floor positive
    with pytest.raises(ValueError, match="trader 1 has rho = 0.5"):
        solve_power(CesEconomy(np.ones((2, 2)), [0.0, 0.5]))
    with pytest.raises(ValueError, match="trader 0 has rho = 0.0 and floor 0.0"):
        solve_power(CesEconomy(np.array([[0.0, 1.0], [1.0, 1.0]]), 0.0))
    for max_iters in (0, -1):
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            solve_power(CesEconomy(np.ones((2, 2)), 0.0), SolverConfig(max_iters=max_iters))


def test_solve_power_stops_on_an_underflowed_price():
    # floors of 1e-300 beside entries of 1e300: good 0's shares underflow to
    # 0, and so does its price after the first step, which ends the loop
    # there instead of running out the budget on a NaN residual
    e = CesEconomy(np.array([[1e-300, 1e300, 1e300]] * 3), 0.0)
    with pytest.raises(ConvergenceError, match=r"^price of good 0 is 0\.0 after iteration 0; power iteration diverged$") as info:
        solve_power(e)
    assert info.value.residual_tail == [1.0]
    assert info.value.last_iterate.tolist() == [0.0, 0.5, 0.5]
    assert info.value.leg == ("power", 0, "diverged")


def test_solve_power_budget_error_carries_the_last_iterate_and_residuals():
    economy = web_economy(DirectedGraph(3, [0, 1, 1, 2], [1, 0, 2, 1]), 0.9999)
    with pytest.raises(ConvergenceError, match="^power iteration did not converge in 30 iterations") as info:
        solve_power(economy, SolverConfig(tolerance=1e-12, max_iters=30))
    err = info.value
    assert err.last_iterate.shape == (3,) and err.last_iterate.min() > 0.0
    # the last ten residuals, the last of them the one reported
    assert len(err.residual_tail) == 10
    assert err.residual_tail[-1] == err.residual > 1e-12
    assert err.leg == ("power", 30, "budget spent")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 150), beta=st.floats(0.05, 0.6), scaled=st.booleans())
def test_power_branch_agrees_with_the_closed_form(seed, n, beta, scaled):
    # damped random economies, iterated within their n steps; rows scaled by
    # 1e-100 or 1e100 keep their shares
    rng = np.random.default_rng(seed)
    n, src, dst, _ = with_dangling_vertices(rng, n, int(rng.integers(0, n // 5 + 1)))
    economy = damped_economy(DirectedGraph(n, src, dst), rng.uniform(0.5, 3.0, len(src)), 0.0, beta)
    if scaled:
        economy = CesEconomy(dense_alpha(economy) * 10.0 ** rng.choice([-100, 0, 100], size=(n, 1)), 0.0)
    floor_share = cesrank.solver._shares(economy)[0]
    closed, _ = solve_cobb_douglas(economy)
    assert verify_equilibrium(economy, closed, 1e-10).passed
    # at the default tolerance the L1 error is within the contraction's bound, tolerance / delta
    prices, report = solve_equilibrium(economy)
    assert report.method == "power"
    assert verify_equilibrium(economy, prices, 1e-10).passed
    assert np.abs(prices.pi - closed.pi).sum() <= 1e-10 / (n * floor_share.min())
    # and a tolerance of 1e-12 brings it within 1e-12 of the exact solve
    prices, report = solve_equilibrium(economy, SolverConfig(tolerance=1e-12))
    assert report.method == "power"
    assert verify_equilibrium(economy, prices, 1e-10).passed
    np.testing.assert_allclose(prices.pi, closed.pi, atol=1e-12, rtol=0)


class TestSolveTatonnement:
    def test_nonuniform3_matches_independent_fixed_point(self):
        problem = load_fixture("nonuniform3")
        economy = build_economy(problem)
        prices, report = solve_tatonnement(economy)
        np.testing.assert_allclose(prices.pi, NONUNIFORM3_EQUILIBRIUM, atol=1e-9, rtol=0)
        assert report.converged
        assert report.residual <= 1e-10
        # and the frozen value itself against the live oracle
        oracle = fixed_point_equilibrium(dense_alpha(economy), q=2.0)
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
        # trader's budget over its normalizer overflows at iteration 1274: a
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
        with pytest.raises(ConvergenceError, match="excess demand of good 0 is not finite at iteration 1274") as info:
            solve_tatonnement(economy, SolverConfig(max_iters=2000))
        # the record carries the iterate whose demand was not finite, on the simplex, and the finite residuals before it
        err = info.value
        assert err.last_iterate.min() > 0.0 and err.last_iterate.sum() == pytest.approx(1.0, abs=1e-15)
        with np.errstate(all="ignore"):
            assert not np.isfinite(aggregate_demand(economy)(err.last_iterate)).all()
        assert np.isnan(err.residual)
        assert len(err.residual_tail) == 10 and np.isfinite(err.residual_tail).all()
        assert err.leg == ("tatonnement", 1274, "not finite")

    @pytest.mark.parametrize("rho, refused", [(0.5, ", certified as 2.220e-16"), (-0.5, "")], ids=["rho0.5", "rho-0.5"])
    def test_prices_that_stop_moving_end_the_loop_at_once(self, rho, refused):
        # the 3-cycle's uniform prices map to themselves bit for bit, and at a
        # tolerance below rounding neither the kernel nor the certificate (at
        # rho 0.5 it reads 2.2e-16 where the kernel reads 0) clears them
        economy = damped_economy(DirectedGraph(3, [0, 1, 2], [1, 2, 0]), np.ones(3), rho, 0.85)
        with pytest.raises(ConvergenceError) as info:
            solve_tatonnement(economy, SolverConfig(tolerance=1e-17))
        residual = info.value.residual
        assert str(info.value) == f"tatonnement stopped moving at iteration 1, residual {residual:.3e}{refused}"
        assert info.value.residual_tail == [residual, residual]
        assert np.array_equal(info.value.last_iterate, np.full(3, 1.0 / 3))
        assert info.value.leg == ("tatonnement", 1, "stopped moving")

    def test_disconnected_rejected_before_iterating(self):
        alpha = np.array([[1.0, 0.0], [1.0, 1.0]])
        e = CesEconomy(alpha, 0.5)
        with pytest.raises(ValueError, match="strongly connected"):
            solve_tatonnement(e)


def _vertex_problem(weights, rho, beta=0.85):
    """The problem of a dense n x n weight matrix, its agents named ``v0 .. v{n-1}``."""
    return RankingProblem(tuple(f"v{k}" for k in range(len(weights))), weights, rho, beta=beta)


def _golden_problem(source, rho):
    if source.startswith("dangling"):
        edges = sniff_and_load(str(Path(__file__).parent / "golden" / f"{source}.edges"))
        return RankingProblem.from_edges(tuple(f"v{k}" for k in range(edges.n)), edges.graph, edges.weights, rho)
    fixture = load_fixture(source)
    return RankingProblem.from_edges(fixture.agent_ids, fixture.graph, fixture.weights, rho, beta=fixture.beta)


def _random_weighted_problem(seed, rho):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 201))
    _, src, dst, _ = with_dangling_vertices(rng, n, max(1, n // 10))
    weights = np.zeros((n, n))
    weights[src, dst] = rng.uniform(0.5, 3.0, len(src))
    return _vertex_problem(weights, rho)


class TestTatonnementTrajectory:
    """The aggregate kernel leaves the iteration where the dense kernel has it, and the plain step's equilibrium in place."""

    @staticmethod
    def assert_same_trajectory(economy, monkeypatch):
        prices, report = solve_tatonnement(economy)
        with monkeypatch.context() as patched:
            patched.setattr(cesrank.solver, "aggregate_demand", lambda e: lambda p: demand_matrix(e, p).sum(axis=0))
            dense, dense_report = solve_tatonnement(economy)
        assert np.abs(prices.pi - dense.pi).max() <= 1e-12
        assert abs(report.iterations - dense_report.iterations) <= 1
        plain, plain_iters = dense_tatonnement(demand_matrix, economy)
        assert plain is not None  # every case certifies at the derived step
        assert np.abs(prices.pi - plain).max() <= 1e-9
        assert report.iterations <= plain_iters

    @pytest.mark.parametrize("rho", [0.5, -0.5])
    @pytest.mark.parametrize("source", ["nonuniform3", "monotone3", "dangling"])
    def test_golden_inputs(self, source, rho, monkeypatch):
        self.assert_same_trajectory(build_economy(_golden_problem(source, rho)), monkeypatch)

    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.5, 0.8])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_weighted_graphs(self, seed, rho, monkeypatch):
        self.assert_same_trajectory(build_economy(_random_weighted_problem(seed, rho)), monkeypatch)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_weighted_graphs_small_step(self, seed, monkeypatch):
        # the largest accepted rho derives the smallest step, 1 - 0.95
        self.assert_same_trajectory(build_economy(_random_weighted_problem(seed, 0.95)), monkeypatch)


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
        with pytest.raises(ConvergenceError, match="did not clear the market") as info:
            solve_tatonnement(economy, SolverConfig(max_iters=plain.iterations + 5))
        # the record of a spent budget: the last iterate, and the residual at it last in the tail
        err = info.value
        assert err.residual_tail[-1] == err.residual and err.last_iterate.min() > 0.0


def _sorted_graph(n, src, dst):
    """The graph of the edges ``src[k] -> dst[k]``, which it sorts."""
    src, dst = np.asarray(src), np.asarray(dst)
    order = np.lexsort((dst, src))
    return DirectedGraph(n, src[order], dst[order])


def _hard_family(name):
    """A graph of the hard-family grid and its edge weights."""
    if name == "skewed":  # four random out-edges per vertex, weights 10**U(-150, 150)
        rng = np.random.default_rng(0)
        graph = DirectedGraph(50, *zip(*out_regular_edges(rng, 50, 4)))
        return graph, 10.0 ** rng.uniform(-150, 150, graph.src.size)
    if name in ("star", "star+chord"):  # 0 <-> every other vertex, and 1 -> 2
        n = 100 if name == "star" else 101
        leaves = np.arange(1, n)
        src, dst = np.r_[0 * leaves, leaves], np.r_[leaves, 0 * leaves]
        if name == "star+chord":
            src, dst = np.r_[src, 1], np.r_[dst, 2]
    elif name == "two-cliques":  # two 30-cliques, joined by 0 <-> 30
        n = 60
        a, b = np.nonzero(~np.eye(30, dtype=bool))
        src, dst = np.r_[a, a + 30, 0, 30], np.r_[b, b + 30, 30, 0]
    else:  # a 40-path, each edge with its back-edge
        n = 40
        src, dst = np.r_[np.arange(n - 1), np.arange(1, n)], np.r_[np.arange(1, n), np.arange(n - 1)]
    graph = _sorted_graph(n, src, dst)
    return graph, np.ones(graph.src.size)


# At beta 1 the skewed family's shares span hundreds of decades, and the plain
# step fails on it as well: a price underflows at iterations 0 to 14, or the
# residual stalls at 1.2e-8 with prices spread over 280 decades.
_SKEWED_UNDAMPED = pytest.mark.xfail(strict=True, reason="the plain step fails here too: weights over 300 decades at beta 1")


def _hard_cases():
    for family in ("star", "star+chord", "two-cliques", "path", "skewed"):
        for beta in (0.85, 1.0):
            for rho in (-1.0, -0.05, 0.5, 0.8):
                marks = [_SKEWED_UNDAMPED] if (family, beta) == ("skewed", 1.0) else []
                yield pytest.param(family, beta, rho, marks=marks, id=f"{family}-beta{beta}-rho{rho}")


class TestTatonnementExtrapolation:
    """Extrapolated tatonnement certifies the plain step's equilibrium, in at most 1.2 x its steps + 6."""

    @pytest.mark.parametrize(("family", "beta", "rho"), _hard_cases())
    def test_hard_family_lands_on_the_plain_equilibrium(self, family, beta, rho):
        economy = damped_economy(*_hard_family(family), rho, beta)
        prices, report = solve_tatonnement(economy, SolverConfig(max_iters=20_000))
        assert verify_equilibrium(economy, prices).passed
        # the package's kernel, held to the dense one by TestTatonnementTrajectory,
        # on the plain loop: the dense kernel would take seconds on the path at
        # beta 1, rho -1, where the plain step needs 115 958 steps
        plain, plain_steps = plain_tatonnement(aggregate_demand(economy), economy)
        assert plain is not None
        assert report.iterations <= 1.2 * plain_steps + 6
        # within 1e-9 of the plain result, or, where a residual of 1e-10 leaves
        # the prices farther apart than that (the path at beta 1, rho -1: both
        # 5.9e-9 from the equilibrium, on either side), no farther from it
        exact, _ = solve_tatonnement(economy, SolverConfig(tolerance=1e-13))
        distance = np.abs(prices.pi - exact.pi).max()
        assert np.abs(prices.pi - plain).max() <= 1e-9 or distance <= 1.1 * np.abs(plain - exact.pi).max()

    @pytest.mark.parametrize(("rho", "beta"), [(0.9, 0.85), (0.5, 1.0)])
    def test_slow_mixing_cycle_certifies(self, rho, beta):
        # the 300-cycle with the chord 0 -> 150: the plain step takes
        # 172 166 and 68 147 steps
        n = 300
        graph = _sorted_graph(n, np.r_[np.arange(n), 0], np.r_[(np.arange(n) + 1) % n, n // 2])
        economy = damped_economy(graph, np.ones(n + 1), rho, beta)
        prices, _ = solve_tatonnement(economy, SolverConfig(max_iters=20_000))
        assert verify_equilibrium(economy, prices).passed

    @pytest.mark.parametrize("rho", [0.8, 0.85])
    def test_extreme_self_loop_equilibrium_certifies(self, rho):
        # one self-loop, the other rows dangling: the plain step takes
        # 174 428 steps at rho 0.8 and runs out of its 200 000 at 0.85
        document = {"format": 1, "agents": ["a", "b", "c", "d"], "alpha": {"triplets": [[0, 0, 1.0]]}, "rho": rho, "beta": 0.95}
        problem = load_problem(io.StringIO(json.dumps(document)))
        prices, report = rank_problem(problem, SolverConfig(max_iters=20_000))
        assert report.method == "tatonnement"
        assert verify_equilibrium(build_economy(problem), prices).passed

    @pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="tatonnement stalls on a nearly decomposable market")
    def test_nearly_decomposable_damped_market_certifies(self):
        # 0 <-> 1 and the cycle 1 -> 2 -> 3 -> 1; vertex 4 dangles and no
        # vertex links to it. At q = 20 the dangling trader spends nearly all
        # its income on its own good: in log prices the Jacobian of the excess
        # demand at the last iterate has eigenvalues -20, -1.5 +- 0.5i, -2.3e-7
        # and homogeneity's zero. The step certifies in 1 293 steps at rho 0.9,
        # not in 20 000 at 0.93 to 0.95, and leaves 1.1e-8 after 200 000 at 0.95
        problem = sniff_and_load(io.StringIO("format: 1\nn 5\n0 1\n1 0\n1 2\n2 3\n3 1\n"))
        economy = damped_economy(problem.graph, problem.weights, 0.95, problem.beta)
        prices, _ = solve_tatonnement(economy, SolverConfig(max_iters=20_000))
        assert verify_equilibrium(economy, prices).passed

    @pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="the demand kernel's floor power underflows to 0")
    def test_floor_power_underflow_certifies(self):
        # 0 <-> 1, the cycle 1 -> 2 -> 3 -> 1 and 4 -> 0, at beta 1 - 2**-53:
        # every floor is 2.2e-17 and q = 20, so `aggregate_demand`'s
        # ``(floor / top) ** q`` underflows to 0 in four of the five rows, and
        # the first step leaves good 4, which no vertex links to and only the
        # floors buy, at price 0 (`rank --rho 0.95 --beta 0.9999999999999999`
        # exits 3 at once). At beta 0.99999999999 the same list certifies with
        # good 4 at 8.3e-13, so the equilibrium fits in floats
        problem = sniff_and_load(io.StringIO("format: 1\nn 5\n0 1\n1 0\n1 2\n2 3\n3 1\n4 0\n"))
        economy = damped_economy(problem.graph, problem.weights, 0.95, 0.9999999999999999)
        prices, _ = solve_tatonnement(economy)
        assert verify_equilibrium(economy, prices).passed

    def test_jumps_are_logged(self, caplog):
        economy = damped_economy(*_hard_family("path"), 0.5, 0.85)
        with caplog.at_level(logging.DEBUG, logger="cesrank.solver"):
            _, report = solve_tatonnement(economy)
        line = re.fullmatch(r"tatonnement: (\d+) steps, (\d+) jumps accepted, (\d+) undone", caplog.messages[-1])
        assert line is not None
        steps, accepted, undone = map(int, line.groups())
        assert steps == report.iterations
        assert accepted > 0

    @pytest.mark.parametrize("n", [3, 8])
    def test_window_without_a_difference_keeps_the_plain_image(self, n, monkeypatch):
        # an iterate that is its own plain image: every difference in the
        # window is zero and least squares has rank 0, reached directly below
        # the window's 6 goods and after the zero Gram matrix's Cholesky
        # factor fails at 8, so no jump is taken
        real_lstsq, ranks = np.linalg.lstsq, []

        def lstsq(a, b):
            c, residuals, rank, singular = real_lstsq(a, b)
            ranks.append(int(rank))
            return c, residuals, rank, singular

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        extrapolation = cesrank.solver._Extrapolation(n)
        p = np.full(n, 1.0 / n)
        for k in range(8):
            assert extrapolation(p, p, 2.0**-k) is p
        assert ranks == [0]
        assert extrapolation.accepted == extrapolation.undone == 0
        assert extrapolation.pending is None

    @staticmethod
    def rejected_jumps_are_undone(economy, monkeypatch):
        """Assert that jumps aimed 1e3 times too far the other way are undone; return the calls of each solve."""
        # a jump whose residual does not fall is replaced by the plain image
        # it stood in for: the same equilibrium, one step later per jump
        plain, plain_steps = plain_tatonnement(aggregate_demand(economy), economy)
        real_solve, real_lstsq, calls = np.linalg.solve, np.linalg.lstsq, {"solve": 0, "lstsq": 0}

        def solve(a, b):
            calls["solve"] += 1
            return -1e3 * real_solve(a, b)

        def lstsq(a, b):
            calls["lstsq"] += 1
            c, *rest = real_lstsq(a, b)
            return (-1e3 * c, *rest)

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        prices, report = solve_tatonnement(economy)
        assert np.abs(prices.pi - plain).max() <= 1e-9
        # each window of plain steps costs one more, the undone jump
        assert plain_steps <= report.iterations <= plain_steps + plain_steps // cesrank.solver._WINDOW + 1
        return calls

    def test_rejected_jump_is_undone(self, monkeypatch):
        # 40 goods: the jump solves the window's 5 x 5 normal equations, and
        # least squares on the windows whose differences are nearly dependent
        economy = damped_economy(*_hard_family("path"), 0.5, 0.85)
        assert self.rejected_jumps_are_undone(economy, monkeypatch)["solve"] > 0

    def test_rejected_jump_is_undone_below_the_window(self, monkeypatch):
        # 5 goods, fewer than the window's 6: every jump takes the minimum-norm least-squares solution
        economy = build_economy(_golden_problem("dangling", 0.5))
        calls = self.rejected_jumps_are_undone(economy, monkeypatch)
        assert calls["lstsq"] > 0 and calls["solve"] == 0

    def test_jump_to_non_finite_excess_demand_is_undone(self, monkeypatch, caplog):
        # the kernel gives NaN at the first jumped iterate: the jump is undone
        # and the loop goes on from the plain image it replaced, one step
        # behind a solve that does not take that jump at all, to the same bits
        economy = damped_economy(*_hard_family("path"), 0.5, 0.85)
        real_jump, real_kernel = cesrank.solver._Extrapolation._jump, cesrank.solver.aggregate_demand
        jumps = []

        def recorded(self):
            jump = real_jump(self)
            if jump is not None:
                jumps.append(jump)
            return jump

        def skipped(self):
            jump = recorded(self)
            return None if jump is not None and len(jumps) == 1 else jump

        def poisoned(economy):
            demand_at = real_kernel(economy)

            def demand(p):
                out = demand_at(p)
                if jumps and p is jumps[0]:
                    out[0] = np.nan
                return out

            return demand

        def solve_and_count():
            jumps.clear()
            with caplog.at_level(logging.DEBUG, logger="cesrank.solver"):
                prices, report = solve_tatonnement(economy)
            counts = re.fullmatch(r"tatonnement: (\d+) steps, (\d+) jumps accepted, (\d+) undone", caplog.messages[-1])
            return prices, report, tuple(map(int, counts.groups()))

        monkeypatch.setattr(cesrank.solver._Extrapolation, "_jump", skipped)
        reference, reference_report, (steps, accepted, undone) = solve_and_count()
        monkeypatch.setattr(cesrank.solver._Extrapolation, "_jump", recorded)
        monkeypatch.setattr(cesrank.solver, "aggregate_demand", poisoned)
        prices, report, counts = solve_and_count()
        assert undone == 0 and counts == (steps + 1, accepted, 1)
        assert report.iterations == reference_report.iterations + 1
        assert np.array_equal(prices.pi, reference.pi)

    @pytest.mark.parametrize(
        "case",
        [("path", 0.85, 0.5), ("path", 0.85, -1.0), ("skewed", 0.85, 0.5), ("star", 1.0, 0.8), ("dangling10", 0.5), ("dangling10", -0.5)],
        ids=lambda case: "-".join(map(str, case)),
    )
    def test_jump_matches_lstsq(self, monkeypatch, case):
        # on the windows of real solves above the window's size, the normal
        # equations give the jump of `np.linalg.lstsq` to 1e-9 relative; the
        # 100-star's leaves share one price, so its windows are dependent and
        # take `lstsq` itself
        economy = build_economy(_golden_problem(*case)) if len(case) == 2 else damped_economy(*_hard_family(case[0]), case[2], case[1])
        assert economy.n >= cesrank.solver._WINDOW
        windows = _recorded_windows(economy, monkeypatch)
        assert windows
        for logs, jump in windows:
            expected = lstsq_jump(logs)
            assert (jump is None) == (expected is None)
            if jump is not None:
                assert np.all(np.abs(jump - expected) <= 1e-9 * expected)

    @pytest.mark.parametrize(("family", "beta", "rho"), [("star", 1.0, 0.8), ("two-cliques", 1.0, -1.0), ("star+chord", 1.0, -1.0)])
    def test_dependent_windows_take_lstsq(self, monkeypatch, family, beta, rho):
        # symmetry leaves these graphs a few distinct prices, so a window's
        # differences are dependent to rounding: its Gram matrix is singular,
        # and solving it would jump by rounding errors (on the star, 12 steps
        # where least squares takes 6)
        economy = damped_economy(*_hard_family(family), rho, beta)
        with monkeypatch.context() as patched:
            patched.setattr(cesrank.solver, "_normal_solution", lambda d: None)
            reference, reference_report = solve_tatonnement(economy)
        prices, report = solve_tatonnement(economy)
        assert report.iterations == reference_report.iterations
        assert np.array_equal(prices.pi, reference.pi)


def _recorded_windows(economy, monkeypatch):
    """Each full window of a default tatonnement solve of ``economy``: its log prices and the jump taken from them."""
    windows = []
    real = cesrank.solver._Extrapolation._jump

    def recorded(self):
        logs = self.logs.copy()
        windows.append((logs, real(self)))
        return windows[-1][1]

    monkeypatch.setattr(cesrank.solver._Extrapolation, "_jump", recorded)
    solve_tatonnement(economy)
    return windows


@pytest.mark.parametrize("rho", [-1.0, -0.5, 0.5, 0.8, 0.9, 0.95])
@pytest.mark.parametrize("n", [20, 300])
def test_rho_sweep_certifies_or_reports_no_convergence(n, rho):
    # every accepted rho either gives a certified ranking or a
    # ConvergenceError (exit 3), never a ValueError (exit 2)
    weights = np.zeros((n, n))
    weights[tuple(zip(*out_regular_edges(np.random.default_rng(1), n)))] = 1.0
    problem = _vertex_problem(weights, rho)
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
    _assert_certified(_vertex_problem(weights, rho))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [20, 300])
def test_mixed_rho_sweep_certifies(n, seed):
    # one step, set by the steepest trader, serves the whole economy
    rng = np.random.default_rng(seed)
    weights = np.zeros((n, n))
    weights[tuple(zip(*out_regular_edges(rng, n)))] = 1.0
    _assert_certified(_vertex_problem(weights, rng.choice(SWEEP_RHO, size=n)))


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
    _assert_certified(_vertex_problem(weights, rho, beta=1.0))


def _damped_random_economy(n=300, beta=0.85):
    """rho 0, five unit out-edges per vertex."""
    graph = DirectedGraph(n, *zip(*out_regular_edges(np.random.default_rng(2), n)))
    return damped_economy(graph, np.ones(5 * n), 0.0, beta)


def _weakly_damped_cycle(n=300):
    """rho 0, floors of 1e-9 beside a unit n-cycle edge and the chord 0 -> n/2."""
    alpha = np.roll(np.eye(n), 1, axis=1) + 1e-9
    alpha[0, n // 2] = 1.0
    return CesEconomy(alpha, 0.0)


class TestSolveEquilibrium:
    def test_undamped_unit_elasticity_uses_closed_form(self):
        # a zero floor: the chain need not contract (this one has period 3)
        e = CesEconomy(np.roll(np.eye(3), 1, axis=1), 0.0)
        prices, report = solve_equilibrium(e)
        assert report.method == "closed_form"
        np.testing.assert_allclose(prices.pi, 1.0 / 3.0, atol=1e-15, rtol=0)

    def test_damped_unit_elasticity_iterates(self):
        # every floor is positive, so the prices are iterated, and certified
        # within the budget of n steps
        e = _damped_random_economy()
        prices, report = solve_equilibrium(e)
        assert report.method == "power"
        assert 0 < report.iterations <= e.n
        assert report.converged and report.residual <= 1e-10
        assert verify_equilibrium(e, prices).residual == report.residual
        np.testing.assert_allclose(prices.pi, solve_cobb_douglas(e)[0].pi, atol=1e-12, rtol=0)

    def test_weakly_damped_cycle_uses_closed_form(self):
        # n steps of the slow-mixing chain leave the market uncertified, and
        # the exact solve answers
        e = _weakly_damped_cycle()
        n = e.n
        with pytest.raises(ConvergenceError, match=f"did not converge in {n} iterations"):
            solve_power(e, SolverConfig(max_iters=n))
        prices, report = solve_equilibrium(e)
        assert report.method == "closed_form"
        assert report.converged
        assert verify_equilibrium(e, prices).passed

    def test_power_phase_keeps_a_smaller_budget(self, caplog):
        # at beta 0.999 power iteration certifies in 30 steps; a budget of 5
        # ends it after 5, and the exact solve answers
        e = _damped_random_economy(n=400, beta=0.999)
        assert solve_equilibrium(e)[1].method == "power"
        with caplog.at_level(logging.INFO, logger="cesrank.solver"):
            prices, report = solve_equilibrium(e, SolverConfig(max_iters=5))
        assert report.method == "closed_form"
        assert "power iteration did not converge in 5 iterations" in caplog.text
        assert caplog.text.rstrip().endswith("; solving in closed form")
        assert verify_equilibrium(e, prices).passed
        # the path: the power rung spent its budget of 5 steps, and the closed form certified
        assert report.path == (Leg("power", 5, "budget spent"), Leg("closed_form", 1, "certified"))
        assert report.to_dict() == {"method": "closed_form", "iterations": 1, "residual": report.residual, "converged": True, "tolerance": 1e-10}

    def test_uniform_economy_is_exact_in_one_step(self):
        # every share is 1/n: the contraction is total and the uniform start is the equilibrium
        prices, report = solve_equilibrium(CesEconomy(np.ones((3, 3)), 0.0))
        assert report.method == "power"
        assert report.iterations == 0 and report.residual == 0.0
        assert prices.pi.tolist() == [1.0 / 3.0] * 3

    def test_uncertified_iterate_iterates_on(self, monkeypatch):
        # the certificate has the last word: where it disagrees with the
        # loop's own test the loop steps on, and past the budget of n steps
        # the closed form answers
        e = _damped_random_economy()
        _, plain = solve_equilibrium(e)
        certificate = cesrank.solver.excess_demand
        calls = []

        def late(economy, prices):
            calls.append(None)
            return certificate(economy, prices) + (1.0 if len(calls) <= 2 else 0.0)

        monkeypatch.setattr(cesrank.solver, "excess_demand", late)
        _, report = solve_equilibrium(e)
        assert report.method == "power"
        assert report.iterations == plain.iterations + 2
        # rejected while iterating, the closed form's own prices pass
        eliminate = cesrank.solver.stationary_solve
        rejected = []

        def never_while_iterating(economy, prices):
            rejected.append(None)
            return certificate(economy, prices) + 1.0

        def fallback(shares):
            monkeypatch.setattr(cesrank.solver, "excess_demand", certificate)
            return eliminate(shares)

        monkeypatch.setattr(cesrank.solver, "excess_demand", never_while_iterating)
        monkeypatch.setattr(cesrank.solver, "stationary_solve", fallback)
        prices, report = solve_equilibrium(e)
        assert len(rejected) == e.n + 1 - plain.iterations  # every iterate from the first that passes the loop's test
        assert report.method == "closed_form" and report.iterations == 1
        assert report.path == (("power", e.n, "budget spent"), ("closed_form", 1, "certified"))
        assert verify_equilibrium(e, prices).residual == report.residual <= 1e-10

    def test_underflowed_floor_share_falls_back(self):
        # floors of 1e-300 beside entries of 1e300: good 0's shares underflow
        # to 0 and so does its price. The iteration never passes that price,
        # and warns of no division by it; the fallback's closed form then
        # meets a zero pivot, as it does when called directly
        e = CesEconomy(np.array([[1e-300, 1e300, 1e300]] * 3), 0.0)
        message = r"^closed form: GTH pivot of state 1 is 0\.0; the shares are too skewed for floats$"
        with pytest.raises(ConvergenceError, match=message):
            solve_equilibrium(e)
        with pytest.raises(ConvergenceError, match=message):
            solve_cobb_douglas(e)
        # undamped, good 1 keeps all but 5e-324 of its income: its price is
        # 1e323 times good 0's, past the float range, and the multiplier
        # overflows without a warning
        skewed = CesEconomy(np.array([[1.0, 1.0], [5e-324, 1.0]]), 0.0)
        with pytest.raises(ConvergenceError, match=r"^closed form gives good 0 the price 0\.0; the shares are too skewed"):
            solve_cobb_douglas(skewed)

    def test_fallback_wall_time_runs_from_entry(self, monkeypatch):
        # a fake clock that ticks once a reading: the fallback's report
        # covers the n uncertified steps, not only the closed form's solve
        e = _weakly_damped_cycle()
        readings = []

        class Clock:
            @staticmethod
            def perf_counter():
                readings.append(float(len(readings)))
                return readings[-1]

        monkeypatch.setattr(cesrank.solver, "time", Clock)
        _, report = solve_equilibrium(e)
        assert report.method == "closed_form"
        assert report.wall_time == readings[-1] - readings[0]

    def test_auto_falls_back_to_tatonnement(self):
        e = CesEconomy(np.ones((3, 3)), 0.5)
        _, report = solve_equilibrium(e)
        assert report.method == "tatonnement"
        # neither rho-0 rung admits the economy, so tatonnement is the whole path
        assert report.path == (("tatonnement", report.iterations, "certified"),)

    @pytest.mark.parametrize(
        "economy, method",
        [(_damped_random_economy(), "power"), (CesEconomy(np.roll(np.eye(3), 1, axis=1), 0.0), "closed_form")],
        ids=["power", "closed_form"],
    )
    def test_a_rung_that_certifies_is_the_whole_path(self, economy, method):
        _, report = solve_equilibrium(economy)
        assert report.path == ((method, report.iterations, "certified"),)
        # a solver called alone reports its own rung
        alone = {"power": solve_power, "closed_form": solve_cobb_douglas}[method]
        assert alone(economy)[1].path == report.path

    def test_mixed_rho_uses_tatonnement(self):
        e = CesEconomy(np.ones((3, 3)), np.array([0.0, 0.5, 0.0]))
        _, report = solve_equilibrium(e)
        assert report.method == "tatonnement"

    def test_explicit_method_respected(self):
        # the iterative path for a rho-0 economy is a direct call, not a config knob
        e = CesEconomy(fixture_alpha("nonuniform3"), 0.0)
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

    def test_verdicts_follow_the_residual(self):
        # neither report takes a verdict that could disagree with its residual
        assert ClearingReport(1e-10, [1e-10, -1e-11], 1e-10).passed
        assert not ClearingReport(2e-10, [2e-10, -1e-11], 1e-10).passed
        assert not ClearingReport(float("nan"), [float("nan"), 0.0], 1e-10).passed
        assert SolverReport("tatonnement", 7, 1e-10, 1e-10).converged
        for residual in (2e-10, float("nan")):
            with pytest.raises(ValueError, match="inconsistent report"):
                SolverReport("tatonnement", 7, residual, 1e-10)


class TestMultistartProbe:
    def test_unique_regime_tight_spread(self):
        problem = load_fixture("nonuniform3")
        economy = build_economy(problem)
        report = multistart_probe(economy, k_starts=5)
        assert report.within_bound is True
        assert report.spread <= report.bound
        assert len(report.prices) == 5
        # the widest coordinate gap over every pair of starts
        assert report.spread == max(float(np.abs(a.pi - b.pi).max()) for a, b in combinations(report.prices, 2))
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
        a = multistart_probe(economy, k_starts=3)
        b = multistart_probe(economy, k_starts=3)
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
        damped = RankingProblem(problem.agent_ids, fixture_alpha("nonuniform3"), problem.rho, beta=0.85)
        a, _ = rank_problem(problem)
        b, _ = rank_problem(damped)
        assert np.abs(a.pi - b.pi).max() > 1e-4

    def test_undamped_disconnected_rejected(self):
        alpha = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        problem = RankingProblem(("x", "y", "z"), alpha, 0.5, beta=1.0)
        with pytest.raises(ValueError, match=r"component: \[0, 1\]\); .*damp with beta < 1"):
            rank_problem(problem)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_connectivity_checked_once(self, rho, search_calls):
        problem = load_fixture("nonuniform3")
        # damped: every alpha entry is positive, so the graph is complete
        rank_problem(RankingProblem(problem.agent_ids, fixture_alpha("nonuniform3"), rho, beta=0.85))
        assert search_calls == []
        # undamped with zero entries: the exact check runs once, one search
        # forward and one backward over the three agents; rows 1 and 2 have
        # no zero entry, so they reach every agent
        alpha = fixture_alpha("nonuniform3")
        alpha[0, 2] = 0.0
        rank_problem(RankingProblem(problem.agent_ids, alpha, rho, beta=1.0))
        assert search_calls == [3, 3]
        # a graph that fails the check gets its verdict and its witness from the same two searches
        alpha = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"component: \[0, 1\]\)"):
            rank_problem(RankingProblem(("x", "y", "z"), alpha, rho, beta=1.0))
        assert search_calls == [3, 3, 3, 3]

    @pytest.mark.parametrize("rho", [0.5, [0.5, -0.5, 0.0]])
    def test_inputs_checked_once(self, rho, monkeypatch):
        # the problem checks its weights, rho and beta; the economy and the
        # solver take them as checked
        alpha, calls = fixture_alpha("nonuniform3"), []

        def counted(name, check):
            def wrapper(*args):
                calls.append(name)
                return check(*args)

            return wrapper

        for module in (cesrank.problem, cesrank.economy):
            for name in ("_validate_alpha", "_edge_weights", "_rho_array", "_validate_beta"):
                monkeypatch.setattr(module, name, counted(name, getattr(cesrank.problem, name)))
        rank_problem(RankingProblem(("a", "b", "c"), alpha, rho, beta=0.85))
        assert sorted(calls) == ["_rho_array", "_validate_alpha", "_validate_beta"]

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

"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at full scale and
its stated tolerance. The conftest summarizer prints one PASS/FAIL line per
criterion after the run. Time budgets are asserted where the guarantee
includes one.
"""

import time

import numpy as np
import pytest

from cesrank import (
    CesEconomy,
    DirectedGraph,
    PriceVector,
    RankingProblem,
    SolverConfig,
    build_economy,
    check_minimal_fairness,
    check_strict_monotonicity,
    excess_demand,
    gs_spot_check,
    load_fixture,
    rank_problem,
    solve_cobb_douglas,
    solve_power,
    verify_equilibrium,
    web_economy,
)

from oracles import (
    ces_demand,
    dense_alpha,
    dominance_instance,
    grid_search_demand,
    multistart_probe,
    random_problem_arrays,
    random_strongly_connected_graph,
    with_dangling_vertices,
)


@pytest.mark.acceptance(label="1. stationary distribution equals unit-elasticity equilibrium on 200 random graphs")
def test_criterion_1_dual_pipeline_agreement():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n, src, dst = random_strongly_connected_graph(rng, int(rng.integers(3, 51)))
        economy = web_economy(DirectedGraph(n, src, dst), c=0.85)

        # power iteration is independent of the linear solve behind the closed form
        dist, _ = solve_power(economy, SolverConfig(tolerance=1e-12))
        prices, _ = solve_cobb_douglas(economy)

        worst = max(worst, float(np.abs(dist.pi - prices.pi).max()))
        assert worst <= 1e-8, f"pipelines disagree by {worst:.3e} on an n={n} graph"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


@pytest.mark.acceptance(label="2. bundled 3-agent fixture: non-uniform equilibrium with certified residual")
def test_criterion_2_nonuniform_fixture():
    started = time.perf_counter()
    problem = load_fixture("nonuniform3")
    economy = build_economy(problem)

    uniform = PriceVector(np.full(3, 1.0 / 3.0))
    z = excess_demand(economy, uniform)
    assert z[0] == pytest.approx(-0.037037, abs=1e-6)

    prices, report = rank_problem(problem, SolverConfig(tolerance=1e-10))
    assert np.abs(prices.pi - 1.0 / 3.0).max() > 1e-3
    assert report.residual <= 1e-10

    clearing = verify_equilibrium(economy, prices)
    assert clearing.passed and clearing.residual <= 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"


@pytest.mark.acceptance(label="3. all-zero preference matrices rank everyone equally")
def test_criterion_3_minimal_fairness_grid():
    started = time.perf_counter()
    for n in range(2, 11):
        for rho in (-0.5, 0.0, 0.5):
            for beta in (0.85, 1.0):
                verdict = check_minimal_fairness(n, rho, beta=beta)
                assert verdict.passed, (n, rho, beta, verdict.witness)
                assert verdict.witness["deviation_from_uniform"] <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


@pytest.mark.acceptance(label="4. rescaling one agent's row never moves the scores")
def test_criterion_4_row_scale_invariance():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    config = SolverConfig()
    for trial in range(100):
        n = int(rng.integers(2, 13))
        beta = float(rng.choice([0.85, 1.0]))
        # undamped problems need a fully positive matrix to stay connected
        alpha, rho = random_problem_arrays(
            rng, n, -0.5, 0.5,
            zero_prob=0.3 if beta < 1.0 else 0.0,
            common_rho=bool(rng.integers(0, 2)),
        )
        ids = tuple(f"a{k}" for k in range(n))
        problem = RankingProblem(ids, alpha, rho, beta=beta)
        base, _ = rank_problem(problem, config)

        row = int(rng.integers(0, n))
        for lam in (0.1, 10.0):
            scaled_alpha = alpha.copy()
            scaled_alpha[row] *= lam
            scaled_problem = RankingProblem(ids, scaled_alpha, rho, beta=beta)
            scaled, _ = rank_problem(scaled_problem, config)
            diff = float(np.abs(scaled.pi - base.pi).max())
            assert diff <= 1e-8, f"trial {trial}: row {row} scaled by {lam} moved scores by {diff:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


@pytest.mark.acceptance(label="5. column dominance forces a strictly higher score")
def test_criterion_5_strict_monotonicity():
    rng = np.random.default_rng(505)
    for trial in range(100):
        n = int(rng.integers(3, 10))
        rho = float(rng.choice([0.0, 0.25, 0.5]))
        beta = float(rng.choice([0.85, 1.0]))
        i, j = sorted(rng.choice(n, size=2, replace=False))
        alpha = dominance_instance(rng, n, rho, i, j)
        problem = RankingProblem(tuple(f"a{k}" for k in range(n)), alpha, rho, beta=beta)

        verdict = check_strict_monotonicity(problem, int(i), int(j))
        assert verdict.status == "pass", (trial, verdict.witness)
        assert verdict.witness["gap"] > 1e-12, (trial, verdict.witness)


@pytest.mark.acceptance(label="6. multistart agreement and gross-substitutes spot checks for rho >= 0")
def test_criterion_6_uniqueness_under_gs():
    rng = np.random.default_rng(606)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        alpha, rho = random_problem_arrays(rng, n, 0.0, 0.5)
        problem = RankingProblem(tuple(f"a{k}" for k in range(n)), alpha, rho, beta=0.85)
        economy = build_economy(problem)

        report = multistart_probe(economy, k_starts=5)
        assert report.spread <= 1e-8, (trial, report.spread)
        assert report.within_bound

        random_probe = rng.dirichlet(np.ones(n)).clip(1e-3)
        probes = [
            np.full(n, 1.0 / n),
            random_probe / random_probe.sum(),
            report.prices[0],
        ]
        good = int(rng.integers(0, n))
        verdict = gs_spot_check(economy, good, 0.05, probes)
        assert verdict.status == "pass", (trial, verdict.witness)


@pytest.mark.acceptance(label="7. Walras' law, price homogeneity, and demand vs a grid-search oracle")
def test_criterion_7_numerical_hygiene():
    rng = np.random.default_rng(707)
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        alpha, rho = random_problem_arrays(rng, n, -0.5, 0.5, zero_prob=0.0)
        economy = CesEconomy(alpha, rho)
        p = rng.dirichlet(np.ones(n)).clip(1e-4)
        prices = PriceVector(p / p.sum())

        z = excess_demand(economy, prices)
        assert abs(float(prices.pi @ z)) <= 1e-11, trial

        lam = float(rng.uniform(0.1, 10.0))
        z_scaled = excess_demand(economy, lam * prices.pi)
        assert float(np.abs(z_scaled - z).max()) <= 1e-10, trial

    # demand against brute-force utility maximization on two goods
    for trial in range(30):
        rho = float(rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5]))
        alpha_row = rng.uniform(0.1, 1.0, size=2)
        p = rng.uniform(0.2, 0.8)
        prices = PriceVector(np.array([p, 1.0 - p]))
        economy = CesEconomy(np.vstack([alpha_row, alpha_row]), rho)

        x = ces_demand(economy, 0, prices)
        income = float(prices.pi[0])
        oracle = grid_search_demand(alpha_row, rho, prices.pi, income)
        assert np.abs(x - oracle).max() <= 1e-4, (trial, rho, x, oracle)


@pytest.mark.acceptance(label="8. dangling vertices: stochastic rows and pipeline agreement")
def test_criterion_8_dangling_rule():
    rng = np.random.default_rng(808)
    for trial in range(25):
        size = int(rng.integers(4, 30))
        n_dangling = int(rng.integers(1, max(2, size // 3)))
        n, src, dst, dangling = with_dangling_vertices(rng, size, n_dangling)
        assert len(dangling) == n_dangling
        economy = web_economy(DirectedGraph(n, src, dst), c=0.85)

        matrix = dense_alpha(economy)
        row_sums = matrix.sum(axis=1)
        assert np.abs(row_sums - 1.0).max() <= 1e-12, trial
        assert np.all(matrix > 0)

        dist, _ = solve_power(economy, SolverConfig(tolerance=1e-12))
        prices, _ = solve_cobb_douglas(economy)
        assert float(np.abs(dist.pi - prices.pi).max()) <= 1e-8, trial

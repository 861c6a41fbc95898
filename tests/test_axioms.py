import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesrank import (
    AxiomVerdict,
    CesEconomy,
    DirectedGraph,
    RankingProblem,
    build_economy,
    check_invariance,
    check_minimal_fairness,
    check_strict_monotonicity,
    check_uniformity,
    gs_spot_check,
    load_fixture,
)
from cesrank.axioms import FAIRNESS_TOL, STRICT_MARGIN, UNIFORMITY_TOL, _column_dominance
from cesrank.economy import damped_economy

from oracles import column_dominance, dense_alpha, dense_weights, is_regular


class TestAxiomVerdict:
    def test_fail_needs_witness(self):
        with pytest.raises(ValueError, match="witness"):
            AxiomVerdict(axiom="x", status="fail")

    def test_status_vocabulary(self):
        with pytest.raises(ValueError, match="status"):
            AxiomVerdict(axiom="x", status="maybe")

    def test_convenience_flags(self):
        v = AxiomVerdict(axiom="x", status="pass")
        assert v.passed and v.applicable
        na = AxiomVerdict(axiom="x", status="not_applicable")
        assert not na.passed and not na.applicable

    def test_uniform_ranking_verdicts_keep_their_keys(self):
        # one rule builds both uniform-ranking verdicts, a pass and a fail here;
        # they differ only in axiom name and tolerance
        fairness = check_minimal_fairness(3, 0.5)
        uniformity = check_uniformity(load_fixture("nonuniform3"))
        assert (fairness.status, uniformity.status) == ("pass", "fail")
        for verdict, axiom, tolerance in ((fairness, "minimal_fairness", FAIRNESS_TOL), (uniformity, "uniformity", UNIFORMITY_TOL)):
            assert verdict.axiom == axiom
            assert list(verdict.witness) == ["prices", "deviation_from_uniform", "solver_residual"]
            assert list(verdict.tolerances.items()) == [("uniform", tolerance)]


class TestMinimalFairness:
    def test_unit_elasticity_damped(self):
        v = check_minimal_fairness(3, 0.0, beta=0.85)
        assert v.passed
        np.testing.assert_allclose(v.witness["prices"], 1 / 3, atol=1e-12)

    def test_two_agents_substitutes(self):
        v = check_minimal_fairness(2, 0.5, beta=1.0)
        assert v.passed
        np.testing.assert_allclose(v.witness["prices"], 0.5, atol=1e-12)

    def test_ten_agents_complements(self):
        v = check_minimal_fairness(10, -0.5, beta=0.85)
        assert v.passed
        assert v.witness["deviation_from_uniform"] <= 1e-9

    def test_needs_two_agents(self):
        with pytest.raises(ValueError, match="at least 2"):
            check_minimal_fairness(1, 0.0)

    def test_rho_out_of_range_propagates(self):
        with pytest.raises(ValueError, match="rho"):
            check_minimal_fairness(3, 0.97)


class TestStrictMonotonicity:
    def test_bundled_dominance_fixture(self):
        problem = load_fixture("monotone3")
        v = check_strict_monotonicity(problem, 0, 1)
        assert v.passed
        assert v.witness["pi_i"] < v.witness["pi_j"]
        assert v.witness["gap"] > 1e-12

    def test_same_agent_not_applicable(self):
        v = check_strict_monotonicity(load_fixture("monotone3"), 1, 1)
        assert v.status == "not_applicable"

    def test_heterogeneous_rho_not_applicable(self):
        problem = RankingProblem(
            ("a", "b", "c"), 0.1 + np.eye(3), np.array([0.0, 0.5, 0.0]), beta=0.85
        )
        v = check_strict_monotonicity(problem, 0, 1)
        assert v.status == "not_applicable"
        assert "heterogeneous" in v.witness["reason"]

    def test_no_dominance_not_applicable(self):
        alpha = np.array([[0.5, 0.5, 0.5], [0.9, 0.1, 0.5], [0.1, 0.9, 0.5]])
        problem = RankingProblem(("a", "b", "c"), alpha, 0.25, beta=1.0)
        v = check_strict_monotonicity(problem, 0, 1)
        assert v.status == "not_applicable"
        assert "alpha_hat" in v.witness["reason"]

    def test_identical_columns_not_applicable(self):
        alpha = np.array([[0.2, 0.2, 0.6], [0.3, 0.3, 0.4], [0.4, 0.4, 0.2]])
        problem = RankingProblem(("a", "b", "c"), alpha, 0.25, beta=1.0)
        v = check_strict_monotonicity(problem, 0, 1)
        assert v.status == "not_applicable"
        assert "identical" in v.witness["reason"]

    def test_index_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            check_strict_monotonicity(load_fixture("monotone3"), 0, 7)

    def test_dominance_read_after_damping(self):
        # raw alpha has a tie in one row; damping preserves it, so the
        # strictness must come from the other rows
        alpha = np.array([[0.3, 0.3, 0.4], [0.1, 0.4, 0.5], [0.2, 0.5, 0.3]])
        problem = RankingProblem(("a", "b", "c"), alpha, 0.5, beta=0.85)
        v = check_strict_monotonicity(problem, 0, 1)
        assert v.passed


class TestInvariance:
    def test_bundled_fixture_scaling(self):
        v = check_invariance(load_fixture("nonuniform3"), 2, 10.0)
        assert v.passed
        assert v.witness["difference"] <= 1e-8

    def test_identity_scale_is_exact(self):
        v = check_invariance(load_fixture("nonuniform3"), 0, 1.0)
        assert v.passed
        assert v.witness["difference"] == 0.0

    def test_small_scale(self):
        v = check_invariance(load_fixture("monotone3"), 1, 0.1)
        assert v.passed

    @pytest.mark.parametrize("lam", [0.0, -2.0, np.nan, np.inf])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="scale factor"):
            check_invariance(load_fixture("nonuniform3"), 0, lam)

    def test_row_index_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            check_invariance(load_fixture("nonuniform3"), 5, 2.0)

    def test_connectivity_checked_once_per_graph(self, search_calls):
        # undamped, the problem and its row-scaled copy have one economy graph:
        # the first solve checks it, forward and backward, and the second
        # takes its verdict
        problem = RankingProblem.from_edges(None, DirectedGraph(3, [0, 0, 1, 2], [1, 2, 2, 0]), [1.9, 1.0, 1.0, 1.0], 0.5, beta=1.0)
        assert check_invariance(problem, 0, 1.45).passed
        assert search_calls == [3, 3]

    def test_a_scaled_row_with_another_graph_is_checked_again(self, search_calls):
        # the share 5e-324 / 1.9 of edge 0 -> 2 rounds up to the least
        # subnormal, but scaled by 1.45 it is 5e-324 / 2.755, which rounds to
        # zero: the scaled economy drops that edge, and its own solve checks
        # its graph (0 -> 1 -> 2 -> 0, still connected)
        problem = RankingProblem.from_edges(None, DirectedGraph(3, [0, 0, 1, 2], [1, 2, 2, 0]), [1.9, 5e-324, 1.0, 1.0], 0.5, beta=1.0)
        economy = build_economy(problem)
        assert economy.cols.tolist() == [1, 2, 2, 0] and economy.values[1] == 5e-324
        assert check_invariance(problem, 0, 1.45).passed
        assert search_calls == [3, 3, 3, 3]


class TestUniformity:
    def test_bundled_fixture_is_not_uniform(self):
        v = check_uniformity(load_fixture("nonuniform3"))
        assert v.status == "fail"  # non-uniform: the interesting outcome
        assert v.witness["deviation_from_uniform"] > 1e-3

    def test_same_matrix_unit_elasticity_is_uniform(self):
        base = load_fixture("nonuniform3")
        problem = RankingProblem(base.agent_ids, dense_weights(base.graph, base.weights), 0.0, beta=1.0)
        v = check_uniformity(problem)
        assert v.passed
        np.testing.assert_allclose(v.witness["prices"], 1 / 3, atol=1e-10)

    def test_uniform_matrix_any_elasticity(self):
        problem = RankingProblem(("a", "b", "c", "d"), np.full((4, 4), 0.25), 0.7, beta=1.0)
        v = check_uniformity(problem)
        assert v.passed

    def test_non_regular_not_applicable(self):
        alpha = np.array([[0.9, 0.1], [0.5, 0.5]])
        problem = RankingProblem(("a", "b"), alpha, 0.5, beta=1.0)
        v = check_uniformity(problem)
        assert v.status == "not_applicable"
        assert "column_sums" in v.witness

    def test_damping_is_ignored(self):
        base = load_fixture("nonuniform3")
        damped = RankingProblem(base.agent_ids, dense_weights(base.graph, base.weights), base.rho, beta=0.85)
        a = check_uniformity(base)
        b = check_uniformity(damped)
        np.testing.assert_array_equal(a.witness["prices"], b.witness["prices"])


@st.composite
def damped_graphs(draw):
    """A weighted graph with dangling rows, sparse rows and rows with an edge to every vertex, and a beta.

    A third of the graphs are one edge per row to a permutation, and a third
    have no sparse row: with unit weights both are regular.
    """
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["mixed", "permutation", "no sparse row"]))
    src, dst = [], []
    for i, target in enumerate(rng.permutation(n)):
        kind = rng.choice(["dangling", "complete"] if shape == "no sparse row" else ["dangling", "sparse", "complete"])
        if shape == "permutation":
            cols = [int(target)]
        elif kind == "complete":
            cols = list(range(n))
        elif kind == "sparse":
            cols = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        else:
            continue
        src += [i] * len(cols)
        dst += cols
    weights = np.ones(len(src)) if draw(st.booleans()) else rng.uniform(0.5, 3.0, len(src))
    return DirectedGraph(n, src, dst), weights, draw(st.sampled_from([0.85, 1.0]))


@given(damped_graphs())
@settings(max_examples=300, deadline=None)
def test_floors_and_entries_read_as_the_dense_matrix(case):
    # dominance on the problem's economy and regularity on the undamped one,
    # as the checks read them, against the same rules on the n x n matrices
    graph, weights, beta = case
    problem = RankingProblem.from_edges(tuple(map(str, range(graph.n))), graph, weights, 0.0, beta=beta)
    economy = build_economy(problem)
    alpha = dense_alpha(economy)
    for i in range(graph.n):
        for j in range(graph.n):
            assert _column_dominance(economy, i, j) == column_dominance(alpha, i, j)
    undamped = dense_alpha(damped_economy(graph, weights, 0.0, 1.0))
    try:
        verdict = check_uniformity(problem)
    except ValueError as error:  # judged regular, then not strongly connected for the solve
        assert "not strongly connected" in str(error)
        assert is_regular(undamped)
        return
    assert verdict.applicable == is_regular(undamped)
    if not verdict.applicable:
        np.testing.assert_allclose(verdict.witness["row_sums"], undamped.sum(axis=1), rtol=0, atol=1e-14)
        np.testing.assert_allclose(verdict.witness["column_sums"], undamped.sum(axis=0), rtol=0, atol=1e-14)


class TestGrossSubstitutes:
    def probe(self, n):
        return [np.full(n, 1.0 / n)]

    def test_bundled_fixture_passes(self):
        economy = build_economy(load_fixture("nonuniform3"))
        v = gs_spot_check(economy, 0, 0.05, self.probe(3))
        assert v.passed
        assert v.witness["comparisons"] == 2

    def test_unit_elasticity_economy(self):
        rng = np.random.default_rng(0)
        economy = CesEconomy(0.1 + rng.random((4, 4)), 0.0)
        for l in range(4):
            assert gs_spot_check(economy, l, 0.1, self.probe(4)).passed

    def test_negative_rho_not_applicable(self):
        economy = CesEconomy(np.ones((2, 2)), -0.5)
        v = gs_spot_check(economy, 0, 0.05, self.probe(2))
        assert v.status == "not_applicable"

    def test_zero_alpha_entry_not_applicable(self):
        alpha = np.array([[1.0, 0.0], [1.0, 1.0]])
        economy = CesEconomy(alpha, 0.5)
        v = gs_spot_check(economy, 0, 0.05, self.probe(2))
        assert v.status == "not_applicable"
        assert "alpha[0][1]" in v.witness["reason"]

    def test_bad_delta_not_applicable(self):
        economy = CesEconomy(np.ones((2, 2)), 0.5)
        assert gs_spot_check(economy, 0, 0.0, self.probe(2)).status == "not_applicable"
        assert gs_spot_check(economy, 0, -1.0, self.probe(2)).status == "not_applicable"

    def test_no_probes_not_applicable(self):
        economy = CesEconomy(np.ones((2, 2)), 0.5)
        assert gs_spot_check(economy, 0, 0.05, []).status == "not_applicable"

    def test_good_index_validated(self):
        economy = CesEconomy(np.ones((2, 2)), 0.5)
        with pytest.raises(ValueError, match="good index"):
            gs_spot_check(economy, 4, 0.05, self.probe(2))

    def test_fail_witness_is_the_first_good_within_the_margin(self):
        # a bump too small to raise any excess demand by STRICT_MARGIN
        economy = build_economy(load_fixture("nonuniform3"))
        v = gs_spot_check(economy, 0, 1e-15, self.probe(3))
        assert v.status == "fail"
        assert (v.witness["probe"], v.witness["good"], v.witness["bumped_good"]) == (0, 1, 0)
        assert v.witness["z_after"] - v.witness["z_before"] <= STRICT_MARGIN

    def test_multiple_probes_all_checked(self):
        economy = build_economy(load_fixture("nonuniform3"))
        probes = [np.full(3, 1 / 3), np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.2, 0.2])]
        v = gs_spot_check(economy, 1, 0.07, probes)
        assert v.passed
        assert v.witness["comparisons"] == 6

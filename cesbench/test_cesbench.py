"""Tests of the benchmark's own logic. Run: python3 -m pytest cesbench -q"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TestGenerators:
    @pytest.mark.parametrize("workload", ["ces-large", "pagerank-large"])
    def test_large_graph_is_a_pure_function_of_workload_and_seed(self, workload):
        a = workloads.large_graph(workload, 7)
        b = workloads.large_graph(workload, 7)
        assert a.edge_list_text() == b.edge_list_text()
        assert a.edge_list_text() != workloads.large_graph(workload, 8).edge_list_text()

    def test_workloads_with_the_same_seed_differ(self):
        a = workloads.large_graph("ces-large", 3).edge_list_text()
        b = workloads.large_graph("pagerank-large", 3).edge_list_text()
        assert a != b

    def test_ces_small_is_deterministic(self):
        a = workloads.ces_small_problems(5)
        b = workloads.ces_small_problems(5)
        assert [p.rho for p in a] == [p.rho for p in b]
        for p, q in zip(a, b):
            assert np.array_equal(p.graph.src, q.graph.src) and np.array_equal(p.graph.dst, q.graph.dst)
            assert np.array_equal(p.graph.weight, q.graph.weight)
        assert [p.rho for p in a] != [p.rho for p in workloads.ces_small_problems(6)]

    def test_graph_shape(self):
        g = workloads.large_graph("ces-large", 1)
        outdeg = np.bincount(g.src, minlength=g.n)
        assert np.count_nonzero(outdeg == 0) == round(workloads.DANGLING_SHARE * g.n)
        assert set(np.unique(outdeg)) == {0, workloads.OUT_DEGREE}
        assert not np.any(g.src == g.dst)
        assert len(set(zip(g.src.tolist(), g.dst.tolist()))) == g.src.size

    def test_ces_small_draws(self):
        problems = workloads.ces_small_problems(2)
        rhos = np.array([p.rho for p in problems])
        sizes = np.array([p.graph.n for p in problems])
        assert len(problems) == workloads.CES_SMALL_PROBLEMS
        assert np.count_nonzero(rhos == 0.0) == len(problems) // 4
        assert rhos.min() >= -1.0 and rhos.max() < 1.0
        assert sizes.min() >= workloads.CES_SMALL_N[0] and sizes.max() <= workloads.CES_SMALL_N[1]

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            workloads.large_graph("ces-large", -1)


class TestTailPercentile:
    def test_highest_rung_with_ten_beyond(self):
        tail = run.tail_percentile(range(100))
        assert (tail["percentile"], tail["beyond"], tail["value"], tail["rule_met"]) == (90.0, 10, 89, True)

    def test_p99_needs_a_thousand_samples(self):
        assert run.tail_percentile(range(999))["percentile"] == 90.0
        tail = run.tail_percentile(range(1000))
        assert (tail["percentile"], tail["beyond"], tail["value"]) == (99.0, 10, 989)

    def test_one_short_of_the_rung_falls_back(self):
        assert run.tail_percentile(range(99))["percentile"] == 50.0
        tail = run.tail_percentile(range(20))
        assert (tail["percentile"], tail["beyond"], tail["value"]) == (50.0, 10, 9)

    def test_too_few_samples_report_the_maximum(self):
        tail = run.tail_percentile([3.0, 1.0, 2.0])
        assert (tail["percentile"], tail["value"], tail["beyond"], tail["rule_met"]) == (100.0, 3.0, 0, False)
        assert run.tail_percentile(range(19))["rule_met"] is False

    def test_order_of_samples_does_not_matter(self):
        xs = list(np.random.default_rng(0).random(250))
        assert run.tail_percentile(xs) == run.tail_percentile(sorted(xs, reverse=True))


class TestCalibration:
    def test_reference_speed_scales_by_the_mean_of_the_bracketing_calibrations(self):
        assert calibrate.at_reference_speed(3.0, 0.1, 0.2, reference_s=0.05) == pytest.approx(3.0 * 0.05 / 0.15)

    def test_a_slower_host_leaves_reference_seconds_unchanged(self):
        fast = calibrate.at_reference_speed(2.0, 0.06, 0.06, reference_s=0.068)
        slow = calibrate.at_reference_speed(2.6, 0.078, 0.078, reference_s=0.068)
        assert slow == pytest.approx(fast)

    def test_every_kernel_has_a_reference(self):
        for workload in workloads.WORKLOADS + ("setup",):
            spec = calibrate.KERNELS[workload]
            assert spec["reference_s"] > 0 and spec["repeats"] >= 1


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [
            ("a", 0.0, 10.0, -1, 0),
            ("b", 1.0, 3.0, 0, 0),
            ("c", 4.0, 8.0, 0, 0),
            ("d", 5.0, 6.0, 2, 0),
        ]
        assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            ("a", 0.0, 10.0, -1, 0),
            ("b", 2.0, 6.0, 0, 0),
            ("c", 4.0, 7.0, 0, 0),
            ("d", 9.0, 12.0, 0, 0),
        ]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_layer_metrics_sum_self_time_per_op(self):
        tracer = tracing.Tracer()
        tracer.spans = [
            ("cli.main", 0.0, 10.0, -1, 0),
            ("formats.sniff_and_load", 1.0, 3.0, 0, 0),
            ("formats.load_edge_list", 1.5, 2.5, 1, 0),
            ("cli.main", 20.0, 24.0, -1, 1),
            ("markov.connectivity", 21.0, 22.0, 3, 1),
            ("cli.main", 30.0, 90.0, -1, None),  # outside any op: ignored
        ]
        m = tracing.layer_metrics(tracer, [0, 1], passes=1)
        assert m["cli.self_s"] == pytest.approx((8.0 + 3.0) / 2)
        assert m["formats.parse_s"] == pytest.approx(2.0 / 2)
        assert m["markov.connectivity_calls"] == pytest.approx(0.5)
        assert m["markov.connectivity_s"] == pytest.approx(0.5)


class TestInstall:
    def test_wraps_every_lookup_name_and_restores_it(self):
        run._import_cesrank()
        import cesrank.economy
        import cesrank.markov
        import cesrank.solver

        original = cesrank.markov.is_strongly_connected
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            for module in (cesrank.markov, cesrank.economy, cesrank.solver):
                assert module.is_strongly_connected is not original
            graph = cesrank.markov.DirectedGraph(2, frozenset({(0, 1), (1, 0)}))
            tracer.op = 0
            assert cesrank.solver.is_strongly_connected(graph)
        finally:
            tracing.uninstall(undo)
        assert cesrank.solver.is_strongly_connected is original
        assert [s[0] for s in tracer.spans] == ["markov.connectivity"]

    def test_missing_target_records_zero_calls(self, monkeypatch):
        monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("gone.x", "cesrank.markov:no_such_function", True),))
        undo = tracing.install(tracing.Tracer())
        tracing.uninstall(undo)
        assert tracing.missing_targets() == ["cesrank.markov:no_such_function"]
        assert tracing.layer_metrics(tracing.Tracer(), [0], passes=1)["markov.connectivity_calls"] == 0.0

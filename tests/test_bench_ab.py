"""The verdicts of ``bench/ab.py``, the A/B script that compares a baseline checkout with the working tree."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

LOWER = {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rankings_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
# ten baseline runs with quartiles 9.75 and 10.25: an interquartile range of 0.5
BASELINE = [9.5, 9.6, 9.75, 9.75, 10.0, 10.0, 10.25, 10.25, 10.4, 10.5]


def shifted(values, delta):
    return [v + delta for v in values]


def test_quartiles_of_the_baseline():
    assert ab.quartiles(BASELINE) == (9.75, 10.0, 10.25)
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_needs_nine_wins_in_ten_and_a_median_gap_past_the_iqr():
    faster = ab.summarize(LOWER, BASELINE, shifted(BASELINE, -0.6))
    assert (faster["wins"], faster["losses"], faster["verdict"]) == (10, 0, "gain")
    # every pair won, but by less than the baseline's quartiles are apart
    close = ab.summarize(LOWER, BASELINE, shifted(BASELINE, -0.4))
    assert (close["wins"], close["verdict"]) == (10, "within noise")
    # a median gap of 1.0, past the IQR, with one pair in ten lost, and then two
    change = shifted(BASELINE, -1.0)
    change[9] = BASELINE[9] + 0.01
    one_lost = ab.summarize(LOWER, BASELINE, change)
    assert (one_lost["wins"], one_lost["losses"], one_lost["verdict"]) == (9, 1, "gain")
    change[8] = BASELINE[8] + 0.01
    two_lost = ab.summarize(LOWER, BASELINE, change)
    assert (two_lost["wins"], two_lost["losses"], two_lost["verdict"]) == (8, 2, "within noise")
    assert two_lost["change"]["median"] == 9.0


def test_fewer_than_ten_pairs_show_no_gain():
    # nine pairs, each won by a median gap of twice the IQR: the rule of a gain asks for ten
    nine = ab.summarize(LOWER, BASELINE[:9], shifted(BASELINE[:9], -1.0))
    assert (nine["wins"], nine["pairs"], nine["verdict"]) == (9, 9, "too few pairs")
    assert ab.summarize(LOWER, [3.0], [2.0])["verdict"] == "too few pairs"
    # the regression rule does not depend on the count
    assert ab.summarize(LOWER, [3.0], [4.0])["verdict"] == "regression"


def test_a_regression_only_beyond_the_bound():
    assert ab.summarize(LOWER, BASELINE, [v * 1.3 for v in BASELINE])["verdict"] == "regression"
    assert ab.summarize(LOWER, BASELINE, [v * 1.2 for v in BASELINE])["verdict"] == "within noise"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # quartiles 7.5 and 12.5 around a median of 10: an IQR of half the median, past the bound of a quarter
    wide = [5.0, 6.0, 7.5, 7.5, 10.0, 10.0, 12.5, 12.5, 14.0, 15.0]
    for change in (wide, shifted(wide, 0.5), shifted(wide, -0.5)):
        assert ab.summarize(LOWER, wide, change)["verdict"] == "unresolved"
    # a median worse by more than the bound stays a regression, however wide the spread
    assert ab.summarize(LOWER, wide, shifted(wide, 3.0))["verdict"] == "regression"
    # quartiles 10 and 15, every run at 9.9 or above: no gain of 0.2 can pass the IQR
    skewed = [9.9, 9.9, 10.0, 10.0, 10.0, 10.0, 15.0, 15.0, 16.0, 16.0]
    assert ab.summarize(LOWER, skewed, [9.8] * 9 + [10.5])["verdict"] == "unresolved"
    # unless every run of the change is better than every baseline run
    assert ab.summarize(LOWER, skewed, [9.8] * 10)["verdict"] == "within noise"
    assert ab.summarize(HIGHER, [-v for v in skewed], [-9.8] * 10)["verdict"] == "within noise"


def test_the_sign_follows_which_way_is_better():
    higher = shifted(BASELINE, 3.0)
    assert ab.summarize(HIGHER, BASELINE, higher)["verdict"] == "gain"
    assert ab.summarize(LOWER, BASELINE, higher)["verdict"] == "regression"
    lower = shifted(BASELINE, -3.0)
    assert ab.summarize(LOWER, BASELINE, lower)["verdict"] == "gain"
    assert ab.summarize(HIGHER, BASELINE, lower)["verdict"] == "regression"
    record = ab.summarize(HIGHER, BASELINE, higher)
    assert (record["wins"], record["losses"]) == (10, 0)
    assert record["ratio"] == pytest.approx(13.0 / 10.0)


def test_ties_count_for_neither_side():
    change = list(BASELINE)
    change[0] -= 1.0
    change[1] += 1.0
    for metric in (LOWER, HIGHER):
        record = ab.summarize(metric, BASELINE, change)
        assert record["wins"] + record["losses"] == 2 and record["pairs"] == 10
        assert record["verdict"] == "within noise"


def test_a_metric_missing_from_one_side_is_left_out(monkeypatch, tmp_path, capsys):
    baseline = tmp_path / "base"
    (baseline / "cesbench").mkdir(parents=True)
    (baseline / "cesbench" / "run.py").write_text("")
    everything = {"setup_s": 0.5, "op_p50_s": 0.01, "op_tail_s": 0.02, "rankings_per_s": 100.0, "peak_rss_mb": 50.0, "success_share": 1.0}

    def run(tree, workload, seed, seconds):
        if tree == baseline:
            return dict(everything)
        return {k: v for k, v in everything.items() if k != "op_tail_s"}

    monkeypatch.setattr(ab, "run_benchmark", run)
    out = tmp_path / "ab.json"
    assert ab.main(["--baseline", str(baseline), "--workload", "ces-small", "--pairs", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "pair 2/2 (change first): setup_s 0.5 -> 0.5, op_p50_s 0.01 -> 0.01, rankings_per_s" in printed
    assert "op_tail_s" not in printed
    names = [s["name"] for s in json.loads(out.read_text())["summary"]]
    assert names == ["setup_s", "op_p50_s", "rankings_per_s", "peak_rss_mb", "success_share"]


@pytest.mark.parametrize("seconds", ["-100", "0", "nan", "inf"])
def test_seconds_must_be_finite_and_positive(monkeypatch, tmp_path, capsys, seconds):
    # a usage error before any run, not a child's timeout traceback
    (tmp_path / "cesbench").mkdir()
    (tmp_path / "cesbench" / "run.py").write_text("")
    started = []
    monkeypatch.setattr(ab.subprocess, "run", lambda *args, **kwargs: started.append(args))
    with pytest.raises(SystemExit) as info:
        ab.main(["--baseline", str(tmp_path), "--workload", "ces-small", "--seconds", seconds])
    assert info.value.code == 2 and started == []
    assert "--seconds must be finite and positive" in capsys.readouterr().err


def test_each_run_compiles_a_fresh_copy_of_its_tree(monkeypatch, tmp_path):
    # a stale bytecode cache in the tree is neither read nor copied, and the
    # child writes none: it compiles the tree from source, as a fresh checkout does
    tree = tmp_path / "tree"
    for part in ("src/cesrank", "cesbench"):
        (tree / part / "__pycache__").mkdir(parents=True)
        (tree / part / "__pycache__" / "stale.cpython-311.pyc").write_bytes(b"stale")
    (tree / "src" / "cesrank" / "__init__.py").write_text("")
    (tree / "cesbench" / "run.py").write_text("")
    (tree / "cesbench" / ".work").mkdir()
    seen = {}

    def child(argv, cwd, env, **kwargs):
        fresh = Path(cwd)
        seen.update(cwd=fresh, env=env, files=sorted(p.relative_to(fresh).as_posix() for p in fresh.rglob("*")))
        result = {"correct": True, "metrics": {"op_p50_s": {"value": 0.01}}}
        return ab.subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", child)
    monkeypatch.setenv("AB_TEST_MARKER", "kept")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert ab.run_benchmark(tree, "ces-small", 1, 1.0) == {"op_p50_s": 0.01}
    assert seen["files"] == ["cesbench", "cesbench/run.py", "src", "src/cesrank", "src/cesrank/__init__.py"]
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert seen["env"]["AB_TEST_MARKER"] == "kept"
    assert not seen["cwd"].exists()
    assert (tree / "src" / "cesrank" / "__pycache__" / "stale.cpython-311.pyc").exists()

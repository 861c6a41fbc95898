"""The verdicts of ``bench/bits.py``, the bit-identity check of the ces-small solves against a baseline checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
NAMES = ["seed 1", "seed 2", "seed 3", "seed 4", "seed 5", "all"]


@pytest.fixture
def bits(monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCH))  # bits imports ab from its own directory
    spec = importlib.util.spec_from_file_location("bits", _BENCH / "bits.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(tmp_path):
    """A baseline checkout under ``tmp_path``: a directory that holds ``cesbench/run.py``."""
    baseline = tmp_path / "base"
    (baseline / "cesbench").mkdir(parents=True)
    (baseline / "cesbench" / "run.py").write_text("")
    return baseline


def stub_children(monkeypatch, bits, tmp_path, digest_of):
    """A baseline checkout, and children that print ``digest_of(tree)[name]`` for each name."""
    baseline = checkout(tmp_path)
    started = []

    def child(tree, argv, timeout):
        started.append((tree, argv))
        out = "".join(f"{name}: {digest_of(tree)[name]}\n" for name in NAMES)
        return subprocess.CompletedProcess(argv, 0, stdout=out, stderr="")

    monkeypatch.setattr(bits.ab, "run_fresh", child)
    return baseline, started


def test_identical_trees_match(monkeypatch, tmp_path, capsys, bits):
    same = {name: f"{k:064x}" for k, name in enumerate(NAMES)}
    baseline, started = stub_children(monkeypatch, bits, tmp_path, lambda tree: same)
    assert bits.main(["--baseline", str(baseline)]) == 0
    # each tree in its own child, this script hashing the copy it runs in
    argv = [sys.executable, str(_BENCH / "bits.py"), "--tree", "."]
    assert started == [(baseline, argv), (bits.ROOT, argv)]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in printed] == NAMES
    assert "MISMATCH" not in "\n".join(printed)


def test_one_seed_that_differs_is_a_mismatch(monkeypatch, tmp_path, capsys, bits):
    base = {name: f"{k:064x}" for k, name in enumerate(NAMES)}
    change = {**base, "seed 3": "f" * 64, "all": "e" * 64}
    baseline, _ = stub_children(monkeypatch, bits, tmp_path, lambda tree: base if tree == baseline else change)
    assert bits.main(["--baseline", str(baseline)]) == 1
    flagged = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines() if line.endswith("MISMATCH")]
    assert flagged == ["seed 3", "all"]


def test_a_child_that_fails_is_an_error(monkeypatch, tmp_path, bits):
    baseline = checkout(tmp_path)
    failed = subprocess.CompletedProcess([], 1, stdout="", stderr="ModuleNotFoundError: No module named 'cesrank'")
    monkeypatch.setattr(bits.ab, "run_fresh", lambda tree, argv, timeout: failed)
    with pytest.raises(SystemExit, match="exited 1:\nModuleNotFoundError"):
        bits.main(["--baseline", str(baseline)])


def test_the_baseline_must_be_a_checkout(tmp_path, capsys, bits):
    with pytest.raises(SystemExit) as info:
        bits.main(["--baseline", str(tmp_path)])
    assert info.value.code == 2
    assert "holds no cesbench/run.py" in capsys.readouterr().err


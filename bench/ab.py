"""A/B runs of the cesrank benchmark: a baseline checkout against this working tree.

Usage::

    python bench/ab.py --baseline DIR --workload ces-small [--seed 1] [--pairs 10] [--seconds 30]

``DIR`` is another checkout of this repository, for example the parent
commit made with ``git clone`` or ``git archive``. Each pair runs
``cesbench/run.py --workload W --seed S --seconds T --trace 0`` once in
``DIR`` and once in the tree that holds this script, each in its own child
process; even pairs run the baseline first and odd pairs the change, so
that drift on the host falls on both sides alike. Each run compiles its
tree from source, in a fresh copy with no bytecode cache, as the
benchmark's own checkouts do. Every run must report ``correct: true``.

For each end-to-end metric that ``BENCHMARK.json`` declares, it prints
both sides' medians and quartiles and the pairs the change won (ties count
for neither). A metric is a gain when the change won at least nine pairs
in ten and its median is better than the baseline's by more than the
distance between the baseline's quartiles, the rule of a claimed gain,
which needs at least ten pairs: with fewer, such a metric reads as too few
pairs. It is a regression when its median is worse by more than the
metric's bound. Otherwise it is unresolved when the baseline's quartiles
lie further apart than the bound times its median, a spread too wide to
tell a change within the bound from none, unless every run of the change
is better than every baseline run; else it reads as within noise.
``--out FILE`` also writes every run's metrics and the summary as JSON.
The script needs the standard library only, and imports nothing of
cesrank.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAIN_PAIRS = 10  # the fewest pairs that can show a gain: one or two pairs have no spread to beat


def run_fresh(tree: Path, argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """``argv`` run as a child in a fresh copy of ``tree``, its working directory, with its output captured.

    The child reads no bytecode cache, as the benchmark's own fresh checkouts
    do not: it runs in a temporary copy of the tree's ``src`` and
    ``cesbench`` without their ``__pycache__`` directories, removed
    afterwards, with ``PYTHONDONTWRITEBYTECODE`` set so that it writes none.
    The standard library and numpy load from their installed caches, as
    they do there.
    """
    with tempfile.TemporaryDirectory(prefix="ab-") as fresh:
        for part in ("src", "cesbench"):
            shutil.copytree(tree / part, Path(fresh, part), ignore=shutil.ignore_patterns("__pycache__", ".work"))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run(argv, cwd=fresh, env=env, capture_output=True, text=True, timeout=timeout)


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a fresh copy of ``tree`` (`run_fresh`): its metric values by name, or SystemExit naming what went wrong."""
    argv = [sys.executable, "cesbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    child = run_fresh(tree, argv, 30 * seconds + 600)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} in {tree} exited {child.returncode}:\n{child.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} in {tree} reported incorrect output")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric: dict, baseline: list[float], change: list[float]) -> dict:
    """The A/B record of one metric: each side's quartiles, the change's wins, and the verdict."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    base_q, change_q = quartiles(baseline), quartiles(change)
    wins = sum(1 for a, b in zip(baseline, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(baseline, change) if sign * (b - a) < 0)
    gain = sign * (change_q[1] - base_q[1])  # positive when the change's median is better
    if wins >= 0.9 * len(baseline) and gain > base_q[2] - base_q[0]:
        verdict = "gain" if len(baseline) >= GAIN_PAIRS else "too few pairs"
    elif -gain > metric["bound"] * abs(base_q[1]):
        verdict = "regression"
    elif base_q[2] - base_q[0] > metric["bound"] * abs(base_q[1]) and not all(sign * (b - a) > 0 for a in baseline for b in change):
        verdict = "unresolved"
    else:
        verdict = "within noise"
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "baseline": {"q1": base_q[0], "median": base_q[1], "q3": base_q[2]},
        "change": {"q1": change_q[0], "median": change_q[1], "q3": change_q[2]},
        "ratio": change_q[1] / base_q[1] if base_q[1] else None,
        "wins": wins,
        "losses": losses,
        "pairs": len(baseline),
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="A/B runs of cesbench: a baseline checkout against this working tree")
    parser.add_argument("--baseline", required=True, type=Path, help="another checkout of this repository")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=None, help="also write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    if not (args.baseline / "cesbench" / "run.py").is_file():
        parser.error(f"{args.baseline} holds no cesbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not (math.isfinite(args.seconds) and args.seconds > 0):  # a child's timeout is 30 times this
        parser.error(f"--seconds must be finite and positive, got {args.seconds!r}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"baseline": [], "change": []}
    for k in range(args.pairs):
        order = ("baseline", "change") if k % 2 == 0 else ("change", "baseline")
        for side in order:
            tree = args.baseline if side == "baseline" else ROOT
            runs[side].append(run_benchmark(tree, args.workload, args.seed, args.seconds))
        pair = {m["name"]: (runs["baseline"][-1].get(m["name"]), runs["change"][-1].get(m["name"])) for m in metrics}
        print(f"pair {k + 1}/{args.pairs} ({order[0]} first): " + ", ".join(f"{n} {a:.6g} -> {b:.6g}" for n, (a, b) in pair.items() if None not in (a, b)), flush=True)

    summary = [
        summarize(m, [r[m["name"]] for r in runs["baseline"]], [r[m["name"]] for r in runs["change"]])
        for m in metrics
        if all(m["name"] in r for r in runs["baseline"] + runs["change"])
    ]
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs: baseline median [q1, q3] -> change median [q1, q3]")
    for s in summary:
        b, c = s["baseline"], s["change"]
        print(
            f"{s['name']:15s} {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] -> {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {s['unit']}"
            f"  wins {s['wins']}/{s['pairs']}, losses {s['losses']}: {s['verdict']}"
        )
    if args.out is not None:
        args.out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "runs": runs, "summary": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

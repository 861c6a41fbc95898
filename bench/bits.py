"""Bit identity of cesrank's solves on the ces-small problems: one SHA-256 over what each returns.

Usage::

    python bench/bits.py [--tree DIR]
    python bench/bits.py --baseline DIR

Builds the 120 ``ces-small`` problems of each of the seeds 1-5 (600 in all)
through ``RankingProblem`` and ``rank_problem``, as ``cesbench/run.py``
builds them, with BLAS pinned to one thread as there. For each problem in
order it hashes the bytes of ``prices.pi``, the step count and the method
of the report, or the ``type: message`` of the error the solve raised. It
prints one digest per seed and one over all of them, for the tree ``DIR``
(by default the one holding this script), whose ``src`` and ``cesbench``
it imports.

``--baseline DIR`` computes them for ``DIR`` and for the tree holding this
script, each in a child process in a fresh copy without bytecode caches,
as ``bench/ab.py`` runs the benchmark (`ab.run_fresh`). It prints both
sides' digests and exits 1 unless every one matches. The script needs the
standard library only; the children import numpy and cesrank.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import ab

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # as cesbench/run.py pins them


def digests(tree: Path) -> dict[str, str]:
    """The SHA-256 of each seed's solves, and of all of them, by name: ``"seed 1"`` .. ``"seed 5"`` and ``"all"``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads
    sys.path[:0] = [str(tree / "src"), str(tree / "cesbench")]
    import workloads as gen
    from cesrank.diagnostics import ConvergenceError
    from cesrank.problem import RankingProblem
    from cesrank.solver import SolverConfig, rank_problem

    total, out = hashlib.sha256(), {}
    for seed in SEEDS:
        digest = hashlib.sha256()
        for small in gen.ces_small_problems(seed):
            ids = tuple(f"v{k}" for k in range(small.graph.n))
            try:
                problem = RankingProblem(ids, small.graph.dense_weights(), small.rho, beta=gen.BETA)
                prices, report = rank_problem(problem, SolverConfig())
                record = prices.pi.tobytes() + f"{report.iterations} {report.method}".encode()
            except (ConvergenceError, ValueError) as e:
                record = f"{type(e).__name__}: {e}".encode()
            for h in (digest, total):
                h.update(len(record).to_bytes(8, "little") + record)
        out[f"seed {seed}"] = digest.hexdigest()
    out["all"] = total.hexdigest()
    return out


def child_digests(tree: Path) -> dict[str, str]:
    """`digests` of ``tree``, computed by this script in a child process in a fresh copy of it, or SystemExit."""
    child = ab.run_fresh(tree, [sys.executable, str(Path(__file__).resolve()), "--tree", "."], timeout=3600)
    found = dict(line.rsplit(": ", 1) for line in child.stdout.splitlines() if ": " in line)
    if child.returncode != 0 or "all" not in found:
        raise SystemExit(f"error: bits in {tree} exited {child.returncode}:\n{child.stderr[-2000:]}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one SHA-256 over the solves of the ces-small problems of seeds 1-5")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout whose solves to hash (default: this one)")
    parser.add_argument("--baseline", type=Path, default=None, help="compare with this checkout, each in a fresh copy")
    args = parser.parse_args(argv)
    if args.baseline is None:
        for name, digest in digests(args.tree).items():
            print(f"{name}: {digest}")
        return 0
    if not (args.baseline / "cesbench" / "run.py").is_file():
        parser.error(f"{args.baseline} holds no cesbench/run.py")
    baseline, change = child_digests(args.baseline), child_digests(ROOT)
    for name in dict.fromkeys([*baseline, *change]):
        a, b = baseline.get(name), change.get(name)
        print(f"{name}: {a} -> {b}{'' if a == b else '  MISMATCH'}")
    return 0 if baseline == change else 1


if __name__ == "__main__":
    sys.exit(main())

"""cesrank benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 cesbench/run.py --workload ces-large --seed 1 --seconds 30 --trace 0
    python3 cesbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed around
cesrank. ``--trace 1`` alternates plain and traced passes over the same inputs
and reports the per-layer metrics and the tracing overhead. The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries the details (environment, tail percentile, checks).
cesrank is imported from ``src/`` next to this directory and driven only
through ``cesrank.cli.main`` and ``cesrank.solver.rank_problem``. See README.md.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (stdlib only; its kernel loads numpy in its own process)
import tracing  # noqa: E402  (stdlib only; numpy must not load before the thread pin)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("ces-large", "ces-small", "pagerank-large")

#: BLAS/OpenMP threads, pinned before numpy loads. One thread keeps timings
#: steady on a shared 2-core machine and matches a single closed-loop client.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Seconds budgeted for one pass over a workload's inputs, about what a pass
#: with its checks takes at the seed commit (2 cores).
#: A run makes round(--seconds / this) whole passes, so every run of a seed
#: does the same work: sample counts, the tail percentile and per-pass counts
#: are fixed, and a faster program finishes the same work sooner. At 30 s
#: that is 2, 3 and 100 passes: 100 pagerank ops give a p90 with ten beyond.
NOMINAL_PASS_S = {"ces-large": 16.0, "ces-small": 10.0, "pagerank-large": 0.3}

#: A run stops starting passes once it has run this many times --seconds.
OVERRUN_FACTOR = 3.0

#: Set-up is repeated this many times in child processes; the median is reported.
SETUP_REPEATS = 7

#: Seconds of op time between two calibrations. An op longer than this is
#: bracketed by its own pair; shorter ops share a pair, which keeps the
#: calibrations under a fifth of a run when the host is slow.
CALIBRATE_EVERY_S = 0.6

#: Candidate tail percentiles in per-mille; the highest with ten samples beyond wins.
TAIL_LADDER_PERMILLE = (999, 990, 900, 500)
TAIL_MIN_BEYOND = 10

#: Residual bounds of the output checks.
#: The solver stops as soon as its residual is <= 1e-10, so certified prices
#: can sit just under it. The rebuilt economy rounds differently, by at most
#: about 2e-15 on these workloads; 1e-13 of slack covers that and nothing more.
CES_CERT_TOL = 1e-10 + 1e-13
PAGERANK_CERT_TOL = 1e-12  # the CLI's default pagerank tolerance
RHO0_VS_PAGERANK_TOL = 1e-8

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "rankings_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "success_share": "share",
}
PER_LAYER = {
    "formats.parse_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "problem.validate_s": "s",
    "problem.normalize_s": "s",
    "economy.build_s": "s",
    "economy.support_graph_calls": "count",
    "economy.support_graph_edges": "count",
    "economy.support_graph_s": "s",
    "economy.demand_calls": "count",
    "economy.demand_eval_s": "s",
    "markov.connectivity_calls": "count",
    "markov.connectivity_s": "s",
    "markov.web_transition_s": "s",
    "markov.stationary_s": "s",
    "markov.stationary_iters": "count",
    "solver.solve_s": "s",
    "solver.iterations_p50": "count",
    "solver.iterations_sum": "count",
    "solver.verify_s": "s",
    "solver.failed_ops_value_error": "count",
    "solver.failed_ops_convergence_error": "count",
    "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    """An output check failed: the run is wrong, not slow."""


def tail_percentile(samples, ladder=TAIL_LADDER_PERMILLE, min_beyond=TAIL_MIN_BEYOND) -> dict:
    """Highest ladder percentile with at least ``min_beyond`` samples above its rank.

    Nearest-rank definition: percentile p of N sorted samples is the sample of
    rank ceil(p * N), and ``N - rank`` samples lie beyond it. When no rung
    qualifies (fewer than 2 * min_beyond samples), the maximum is returned
    with ``rule_met`` false.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for permille in sorted(ladder, reverse=True):
        rank = -(-permille * n // 1000)
        if rank >= 1 and n - rank >= min_beyond:
            return {"percentile": permille / 10, "value": xs[rank - 1], "samples": n, "beyond": n - rank, "rule_met": True}
    return {"percentile": 100.0, "value": xs[-1], "samples": n, "beyond": 0, "rule_met": False}


def passes_for(workload: str, seconds: float, traced: bool) -> int:
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    return max(2, passes) if traced else passes


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="cesrank benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _require_sources() -> None:
    if not (SRC / "cesrank" / "__init__.py").is_file():
        print(f"error: no cesrank sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def _import_cesrank():
    """Import cesrank from this checkout's ``src/``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import cesrank

    if Path(cesrank.__file__).resolve().parent != (SRC / "cesrank").resolve():
        print(f"error: imported cesrank from {cesrank.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cesrank


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cesrank").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout, read without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


class Workload:
    """Generated inputs, the op schedule of one pass, and the checks of each op."""

    def __init__(self, name: str, seed: int):
        import numpy as np

        import workloads as gen
        from cesrank.economy import CesEconomy
        from cesrank.solver import verify_equilibrium

        self.np = np
        self.gen = gen
        self.name = name
        # Checks hold the original functions, so traced passes never see them.
        self.CesEconomy = CesEconomy
        self.verify_equilibrium = verify_equilibrium
        self.digests: dict[str, str] = {}
        self.rho0_scores = None
        WORK_DIR.mkdir(exist_ok=True)
        if name == "ces-small":
            self.problems = gen.ces_small_problems(seed)
            self.alphas = [p.graph.dense_weights() for p in self.problems]
            self.ops = list(range(len(self.problems)))
        else:
            self.graph = gen.large_graph(name, seed)
            self.path = WORK_DIR / f"{name}-s{seed}.edges"
            self.path.write_text(self.graph.edge_list_text(), encoding="utf-8")
            if name == "ces-large":
                self.ops = list(gen.CES_LARGE_RHOS)
            else:
                self.ops = ["pagerank"]

    def argv(self, key: str) -> list[str]:
        base = ["rank", "--input", str(self.path), "--format", "json"]
        if key == "pagerank":
            return base + ["--method", "pagerank"]
        return base + ["--rho", key]

    def run(self, key):
        """One timed op. Returns (seconds, failure kind or None, stdout bytes, result)."""
        import cesrank.cli
        import cesrank.problem
        import cesrank.solver
        from cesrank.diagnostics import ConvergenceError

        if self.name == "ces-small":
            problem_in = self.problems[key]
            ids = tuple(f"v{k}" for k in range(problem_in.graph.n))
            start = time.perf_counter()
            try:
                problem = cesrank.problem.RankingProblem(ids, self.alphas[key], problem_in.rho, beta=self.gen.BETA)
                prices, _ = cesrank.solver.rank_problem(problem, cesrank.solver.SolverConfig())
            except ConvergenceError:
                return time.perf_counter() - start, "convergence_error", 0, None
            except ValueError:
                return time.perf_counter() - start, "value_error", 0, None
            return time.perf_counter() - start, None, 0, prices.pi
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cesrank.cli.main(self.argv(key))
        elapsed = time.perf_counter() - start
        failure = {0: None, 3: "convergence_error"}.get(code, "value_error")
        return elapsed, failure, len(out.getvalue().encode()), out.getvalue()

    def check(self, key, result) -> None:
        """Check one successful op's output; raise CheckFailed if it is wrong.

        The first output of each input is certified in full. A repeat must be
        byte-identical to it (bit-identical prices for the library), so it is
        the same certified output and is not certified again.
        """
        raw = result.tobytes() if self.name == "ces-small" else result.encode()
        digest = hashlib.sha256(raw).hexdigest()
        first = self.digests.get(str(key))
        if first is not None:
            if first != digest:
                raise CheckFailed(f"op {key!r}: output differs from the first run of the same input")
            return
        if self.name == "ces-small":
            problem = self.problems[key]
            self._certify(self.gen.damped_preferences(problem.graph), problem.rho, result, f"problem {key}")
        else:
            pi = self._scores(result)
            if key == "pagerank":
                residual = self.gen.pagerank_residual(self.graph, pi)
                if not residual <= PAGERANK_CERT_TOL:
                    raise CheckFailed(f"pagerank residual {residual:.3e} > {PAGERANK_CERT_TOL:g}")
            else:
                self._certify(self.gen.damped_preferences(self.graph), float(key), pi, f"rho {key}")
                if key == "0":
                    self.rho0_scores = pi
        self.digests[str(key)] = digest

    def _certify(self, alpha_hat, rho, pi, what) -> None:
        np = self.np
        n = alpha_hat.shape[0]
        economy = self.CesEconomy(alpha=alpha_hat, rho=np.full(n, rho), endowments=np.eye(n))
        report = self.verify_equilibrium(economy, pi, tolerance=CES_CERT_TOL)
        if not report.passed:
            raise CheckFailed(f"{what}: excess demand {report.residual:.3e} > {CES_CERT_TOL:g} on the rebuilt economy")

    def _scores(self, stdout: str):
        """Scores by vertex index from a JSON ranking, checking the ranking's shape."""
        np = self.np
        n = self.graph.n
        doc = json.loads(stdout)
        ranking = doc["ranking"]
        if [r["rank"] for r in ranking] != list(range(1, n + 1)):
            raise CheckFailed("ranks are not 1..n in order")
        index = [int(r["agent"][1:]) for r in ranking]
        if sorted(index) != list(range(n)):
            raise CheckFailed("agents are not v0..v{n-1}, each once")
        scores = np.array([r["score"] for r in ranking])
        if np.any(np.diff(scores) > 0) or np.any(scores <= 0):
            raise CheckFailed("scores are not positive and non-increasing down the ranking")
        pi = np.empty(n)
        pi[index] = scores
        return pi

    def final_checks(self) -> dict:
        """Untimed checks that need a whole run: rho = 0 against --method pagerank."""
        if self.name != "ces-large" or self.rho0_scores is None:
            return {}
        import cesrank.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cesrank.cli.main(["rank", "--input", str(self.path), "--format", "json", "--method", "pagerank"])
        if code != 0:
            raise CheckFailed(f"--method pagerank exited {code} on the ces-large graph")
        gap = float(self.np.abs(self._scores(out.getvalue()) - self.rho0_scores).max())
        if not gap <= RHO0_VS_PAGERANK_TOL:
            raise CheckFailed(f"rho = 0 scores differ from pagerank by {gap:.3e} > {RHO0_VS_PAGERANK_TOL:g}")
        return {"rho0_vs_pagerank_max_diff": gap}


def _setup(workload: str, seed: int) -> Workload:
    _import_cesrank()
    return Workload(workload, seed)


def _setup_samples(args, calibrator) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_REPEATS fresh child processes.

    Returns the wall seconds and the seconds at the reference speed. Each
    child is bracketed by two calibrations with the ``setup`` kernel.
    """
    ref = calibrator.reference_s("setup")
    before = calibrator.measure("setup")
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        after = calibrator.measure("setup")
        wall.append(float(child.stdout.strip().splitlines()[-1]))
        scaled.append(calibrate.at_reference_speed(wall[-1], before, after, ref))
        before = after
    return wall, scaled


def _measure(work: Workload, passes: int, seconds: float, traced: bool, calibrator):
    """Run ``passes`` passes (alternately plain and traced when ``traced``).

    Ops run in blocks of at least CALIBRATE_EVERY_S seconds, each bracketed
    by calibrations. Returns the tracer, the ops as (pass, key, traced,
    seconds at the reference speed, failure, stdout bytes, wall seconds), the
    wall time of each pass and the calibrations. A calibration or a check
    runs only after an op's timer has stopped, so neither is timed.
    """
    tracer = tracing.Tracer()
    raw = []  # (pass, key, traced, wall seconds, failure, stdout bytes, block)
    cals = [calibrator.measure()]
    block_s = 0.0
    pass_walls = []
    started = time.perf_counter()
    for p in range(passes):
        if p >= (2 if traced else 1) and time.perf_counter() - started > OVERRUN_FACTOR * seconds:
            break
        trace_this = traced and p % 2 == 1
        pass_start = time.perf_counter()
        undo = tracing.install(tracer) if trace_this else []
        try:
            for key in work.ops:
                gc.collect()
                tracer.op = len(raw)
                elapsed, failure, nbytes, result = work.run(key)
                tracer.op = None
                raw.append((p, key, trace_this, elapsed, failure, nbytes, len(cals) - 1))
                block_s += elapsed
                if block_s >= CALIBRATE_EVERY_S:
                    cals.append(calibrator.measure())
                    block_s = 0.0
                if failure is None:
                    work.check(key, result)
        finally:
            tracing.uninstall(undo)
        pass_walls.append(time.perf_counter() - pass_start)
    if raw[-1][6] == len(cals) - 1:
        cals.append(calibrator.measure())
    ref = calibrator.reference_s()
    ops = [
        (p, key, tr, calibrate.at_reference_speed(wall, cals[b], cals[b + 1], ref), failure, nbytes, wall)
        for p, key, tr, wall, failure, nbytes, b in raw
    ]
    return tracer, ops, pass_walls, cals


def _successful_times(ops, label):
    ok = [o[3] for o in ops if o[4] is None]
    if not ok:
        raise RuntimeError(f"no successful {label} ops; nothing to time")
    return ok


def run_workload(args) -> int:
    work = _setup(args.workload, args.seed)
    first_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(first_setup))
        return 0
    traced = bool(args.trace)
    passes = passes_for(args.workload, args.seconds, traced)
    env = environment()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    correct = True
    with calibrate.Calibrator(args.workload) as calibrator:
        try:
            tracer, ops, pass_walls, cals = _measure(work, passes, args.seconds, traced, calibrator)
            done = len(pass_walls)
            detail.update(pass_wall_s=pass_walls, calibration_s=cals, reference_s=calibrator.reference_s())
            detail["checks"] = work.final_checks()
        except CheckFailed as e:
            print(f"error: output check failed: {e}", file=sys.stderr)
            correct, tracer, ops, done = False, None, [], 0
            detail["check_failure"] = str(e)
        attempted = len(ops)
        failed = sum(1 for o in ops if o[4] is not None)
        if correct:
            detail.update(passes=done, planned_passes=passes, ops=attempted, failed=failed, fail_share=failed / attempted)
            if traced:
                metrics = _layer_metrics(tracer, ops, done)
                detail["missing_targets"] = tracing.missing_targets()
                tracer.write(
                    WORK_DIR / f"trace-{args.workload}-s{args.seed}.json",
                    {**detail, "ops": [{"pass": o[0], "key": o[1], "traced": o[2], "seconds": o[3], "wall_s": o[6], "failure": o[4]} for o in ops]},
                )
            else:
                setup_wall, setup = _setup_samples(args, calibrator)
                detail.update(first_setup_wall_s=first_setup, setup_wall_s=setup_wall)
                metrics = _end_to_end(ops, setup, detail)
        else:
            metrics = {}
    detail["metrics"] = metrics
    (WORK_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(detail))
    units = PER_LAYER if traced else END_TO_END
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _end_to_end(ops, setup, detail) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = _successful_times(ops, "timed")
    tail = tail_percentile(ok)
    detail.update(
        tail=tail,
        setup_samples=setup,
        op_seconds=[[o[1], o[3], o[6], o[4]] for o in ops],
        wall_op_p50_s=statistics.median(o[6] for o in ops if o[4] is None),
    )
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(ok),
        "op_tail_s": tail["value"],
        "rankings_per_s": len(ok) / sum(o[3] for o in ops),
        "peak_rss_mb": peak_rss_mb,
        "success_share": len(ok) / len(ops),
    }


def _layer_metrics(tracer, ops, passes) -> dict:
    traced_ops = [i for i, o in enumerate(ops) if o[2]]
    traced_passes = len({o[0] for o in ops if o[2]})
    metrics = tracing.layer_metrics(tracer, traced_ops, traced_passes)
    metrics["cli.stdout_bytes"] = statistics.fmean(ops[i][5] for i in traced_ops)
    for kind in ("value_error", "convergence_error"):
        metrics[f"solver.failed_ops_{kind}"] = sum(1 for o in ops if o[4] == kind) / passes
    plain = _successful_times([o for o in ops if not o[2]], "plain")
    with_trace = _successful_times([o for o in ops if o[2]], "traced")
    metrics["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(plain)
    return {k: metrics[k] for k in PER_LAYER}


def run_all(args) -> int:
    """Each workload in its own process; a table, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: {workload} exited {child.returncode}", file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
            print(f"{workload:15s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_sources()
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Spans and call counts around cesrank's public functions, installed from outside.

`install` replaces each traced function at every name where cesrank's modules
look it up (a function imported into several modules is wrapped in each) and
each traced method on its class. `uninstall` puts the originals back. A target
that no longer exists is skipped and records zero calls, so a change that
removes a function shows up as a count, not as a crash.

Spans live in memory as ``(name, start, end, parent, op)`` tuples and are
written out once, when the run ends. Only the standard library is used here.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# (span name, "module:qualname", follow aliases in other cesrank modules)
TARGETS = (
    ("cli.main", "cesrank.cli:main", True),
    ("formats.sniff_and_load", "cesrank.formats:sniff_and_load", True),
    ("formats.load_edge_list", "cesrank.formats:load_edge_list", True),
    ("formats.load_problem", "cesrank.formats:load_problem", True),
    ("formats.problem_from_edge_list", "cesrank.formats:problem_from_edge_list", True),
    ("problem.validate", "cesrank.problem:RankingProblem.__init__", False),
    ("problem.normalize", "cesrank.problem:normalize_preferences", True),
    ("economy.build", "cesrank.economy:build_economy", True),
    ("economy.support_graph", "cesrank.economy:CesEconomy.support_graph", False),
    ("economy.demand", "cesrank.economy:demand_matrix", True),
    ("markov.connectivity", "cesrank.markov:is_strongly_connected", True),
    ("markov.connectivity", "cesrank.markov:strongly_connected_component", True),
    ("markov.web_transition", "cesrank.markov:build_web_transition", True),
    ("markov.stationary", "cesrank.markov:stationary_distribution", True),
    ("solver.rank_problem", "cesrank.solver:rank_problem", True),
    ("solver.solve", "cesrank.solver:solve_equilibrium", True),
    ("solver.solve", "cesrank.solver:solve_cobb_douglas", True),
    ("solver.solve", "cesrank.solver:solve_tatonnement", True),
    # The solver's own certificate: excess demand at the prices it returns.
    # Only the solver's binding is wrapped; other callers are not certifying.
    ("solver.verify", "cesrank.solver:excess_demand", False),
    ("solver.verify", "cesrank.solver:verify_equilibrium", True),
)


def _edges_of(result):
    return len(result.edges)


def _iterations_of(result):
    return int(result[1].iterations)


# span name -> (note key, extractor) applied to the wrapped call's return value
RESULT_NOTES = {
    "economy.support_graph": ("edges", _edges_of),
    "markov.stationary": ("iterations", _iterations_of),
    "solver.solve": ("iterations", _iterations_of),
}


class Tracer:
    """In-memory span recorder; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self.notes: dict[int, dict] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    def note(self, idx: int, key: str, value) -> None:
        self.notes.setdefault(idx, {})[key] = value

    def write(self, path: Path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "notes": {str(k): v for k, v in self.notes.items()},
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _wrap(tracer: Tracer, name: str, fn):
    note = RESULT_NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            try:
                tracer.note(idx, note[0], note[1](result))
            except (AttributeError, TypeError, IndexError):
                pass  # the return type changed; the span still counts
        return result

    traced.__wrapped_by_cesbench__ = True
    return traced


def _resolve(target: str):
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target that exists; return what `uninstall` needs to undo it."""
    undo: list[tuple[object, str, object]] = []
    for name, target, follow_aliases in TARGETS:
        found = _resolve(target)
        if found is None:
            continue
        owner, attr = found
        original = vars(owner)[attr]
        if getattr(original, "__wrapped_by_cesbench__", False):
            continue
        traced = _wrap(tracer, name, original)
        owners = [owner]
        if follow_aliases:
            owners = [
                module
                for key, module in sorted(sys.modules.items())
                if (key == "cesrank" or key.startswith("cesrank.")) and vars(module).get(attr) is original
            ]
        for where in owners:
            undo.append((where, attr, original))
            setattr(where, attr, traced)
    return undo


def missing_targets() -> list[str]:
    return [target for _, target, _ in TARGETS if _resolve(target) is None]


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for where, attr, original in reversed(undo):
        setattr(where, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and merged, so overlapping
    or out-of-bounds children are never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


# metric -> span names whose self time it sums, per op
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "formats.parse_s": (
        "formats.sniff_and_load",
        "formats.load_edge_list",
        "formats.load_problem",
        "formats.problem_from_edge_list",
    ),
    "problem.validate_s": ("problem.validate",),
    "problem.normalize_s": ("problem.normalize",),
    "economy.build_s": ("economy.build",),
    "economy.support_graph_s": ("economy.support_graph",),
    "markov.connectivity_s": ("markov.connectivity",),
    "markov.web_transition_s": ("markov.web_transition",),
    "markov.stationary_s": ("markov.stationary",),
    "solver.solve_s": ("solver.rank_problem", "solver.solve"),
}


def layer_metrics(tracer: Tracer, ops: list[int], passes: int) -> dict[str, float]:
    """Layer figures from the spans tagged with one of ``ops``, ``passes`` passes.

    Times are seconds per op (self time unless the name says otherwise),
    calls are per op, ``economy.support_graph_edges`` is per call,
    ``economy.demand_eval_s`` is the median duration of one call and
    ``solver.iterations_sum`` is per pass over the workload's inputs.
    """
    wanted = set(ops)
    count = max(len(wanted), 1)
    selfs = self_times(tracer.spans)
    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(tracer.spans):
        if span[4] in wanted:
            by_name.setdefault(span[0], []).append(idx)

    def duration(idx):
        return tracer.spans[idx][2] - tracer.spans[idx][1]

    def outermost(indices):
        # a span nested in another of the same set is already inside its duration
        members = set(indices)
        out = []
        for idx in indices:
            parent = tracer.spans[idx][3]
            while parent >= 0 and parent not in members:
                parent = tracer.spans[parent][3]
            if parent < 0:
                out.append(idx)
        return out

    metrics = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(selfs[i] for n in names for i in by_name.get(n, ())) / count
    demand = by_name.get("economy.demand", [])
    support = by_name.get("economy.support_graph", [])
    edges = [tracer.notes[i]["edges"] for i in support if "edges" in tracer.notes.get(i, {})]
    iterations = [
        tracer.notes[i]["iterations"]
        for i in outermost(by_name.get("solver.solve", []))
        if "iterations" in tracer.notes.get(i, {})
    ]
    stationary = [tracer.notes[i]["iterations"] for i in by_name.get("markov.stationary", []) if i in tracer.notes]
    metrics.update(
        {
            "economy.support_graph_calls": len(support) / count,
            "economy.support_graph_edges": statistics.fmean(edges) if edges else 0.0,
            "economy.demand_calls": len(demand) / count,
            "economy.demand_eval_s": statistics.median(duration(i) for i in demand) if demand else 0.0,
            "markov.connectivity_calls": len(by_name.get("markov.connectivity", [])) / count,
            "markov.stationary_iters": statistics.fmean(stationary) if stationary else 0.0,
            "solver.iterations_p50": float(statistics.median(iterations)) if iterations else 0.0,
            "solver.iterations_sum": sum(iterations) / max(passes, 1),
            "solver.verify_s": sum(duration(i) for i in outermost(by_name.get("solver.verify", []))) / count,
        }
    )
    return metrics

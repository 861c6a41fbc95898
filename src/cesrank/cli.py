"""Command-line surface.

Four subcommands:

``rank``     score the agents of a problem or graph (ces, pagerank, invariant)
``verify``   run executable axiom checks and emit machine-readable verdicts
``compare``  cross-check power iteration against the closed-form equilibrium
``convert``  dump a graph's damped chain as an equivalent problem document

Results go to stdout; every diagnostic goes to stderr. Exit codes: 0 success,
1 a check or comparison failed, 2 unusable input, 3 solver non-convergence.
Set RANK_LOG=debug|info|warning|error to adjust stderr verbosity. Output is
deterministic: the same input and flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .axioms import (
    AxiomVerdict,
    check_invariance,
    check_minimal_fairness,
    check_strict_monotonicity,
    check_uniformity,
    gs_spot_check,
)
from .diagnostics import ConvergenceError
from .economy import build_economy, damped_economy, markov_to_economy
from .fixtures import load_fixture
from .formats import DocumentError, dump_problem, json_document, problem_from_edge_list, sniff_and_load, weight_matrix
from .markov import _damped_chain, build_web_transition, require_strongly_connected, stationary_distribution, support_graph
from .solver import SolverConfig, solve_cobb_douglas, solve_equilibrium

logger = logging.getLogger(__name__)

#: Scores within this fraction of the higher one are reported as tied.
TIE_TOL = 1e-9

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_INPUT = 2
_EXIT_NO_CONVERGENCE = 3


def _configure_logging() -> None:
    name = os.environ.get("RANK_LOG", "").strip().upper()
    level = {"DEBUG": logging.DEBUG, "INFO": logging.INFO, "WARNING": logging.WARNING, "ERROR": logging.ERROR}.get(name)
    if name and level is None:
        print(f"warning: unknown RANK_LOG level {name!r}, using WARNING", file=sys.stderr)
    logging.basicConfig(stream=sys.stderr, level=level if level is not None else logging.WARNING)


def _tie_groups(ids, scores, order) -> list[list[str]]:
    """Agents tied with the highest score of their group, walked in ``order`` (high to low).

    A group is its first agent (the anchor) and the agents after it whose
    score is within TIE_TOL times the anchor's score of it. Scores sum to 1,
    so a typical score is 1/n: a relative rule means the same at every n.
    """
    groups: list[list[int]] = []
    anchor = None
    for k, score in zip(order.tolist(), scores[order].tolist()):
        if anchor is not None and abs(score - anchor) <= TIE_TOL * anchor:
            groups[-1].append(k)
        else:
            groups.append([k])
            anchor = score
    return [[ids[k] for k in sorted(g)] for g in groups if len(g) > 1]


#: One ``--format json`` ranking entry, as ``json.dumps(..., indent=2)`` writes it in the document.
_JSON_ENTRY = '    {{\n      "rank": {},\n      "agent": {},\n      "score": {}\n    }}'.format


def _emit_ranking(ids, scores, report, method: str, fmt: str) -> None:
    order = np.argsort(-scores, kind="stable")
    ranks = range(1, len(ids) + 1)
    ranked_ids = list(map(ids.__getitem__, order.tolist()))
    ranked_scores = scores[order].tolist()
    if fmt == "tsv":
        sys.stdout.write("".join(map("{}\t{}\t{:.12g}\n".format, ranks, ranked_ids, ranked_scores)))
        return
    entries = list(map(_JSON_ENTRY, ranks, map(encode_basestring_ascii, ranked_ids), map(float.__repr__, ranked_scores)))
    head = {"format": 1, "method": method}
    tail = {"ties": _tie_groups(ids, scores, order), "report": report.to_dict(include_wall_time=False)}
    sys.stdout.write(json_document(head, "ranking", entries, tail) + "\n")


def _cmd_rank(args) -> int:
    problem, loaded_graph = sniff_and_load(args.input)

    if args.method == "ces":
        if problem is None:
            # an edge list stays edges: at rho != 0 nothing of size n x n is built
            economy = damped_economy(
                *loaded_graph,
                rho=args.rho if args.rho is not None else 0.0,
                beta=args.beta if args.beta is not None else 0.85,
            )
        else:
            if args.rho is not None or args.beta is not None:
                problem = replace(
                    problem,
                    rho=problem.rho if args.rho is None else args.rho,
                    beta=problem.beta if args.beta is None else args.beta,
                )
            economy = build_economy(problem)
        tol = args.tol if args.tol is not None else 1e-10
        prices, report = solve_equilibrium(economy, SolverConfig(tolerance=tol))
        ids = problem.agent_ids if problem is not None else tuple(f"v{k}" for k in range(economy.n))
        _emit_ranking(ids, prices.pi, report, "ces", args.format)
        return _EXIT_OK

    if args.rho is not None:
        print("warning: --rho only applies to --method ces; ignored", file=sys.stderr)
    if args.beta is not None:
        print("warning: --beta only applies to --method ces; ignored", file=sys.stderr)

    tol = args.tol if args.tol is not None else 1e-12

    graph = loaded_graph[0] if problem is None else support_graph(problem.alpha)
    if args.method == "pagerank":
        # an edge list stays edges: the chain is O(n + edges), never n x n
        chain = build_web_transition(graph, c=args.damping)
    else:  # invariant
        weights = problem.alpha if problem is not None else weight_matrix(*loaded_graph)
        require_strongly_connected(graph, "the graph", "the invariant method needs a strongly connected graph")
        empty = weights.max(axis=1) == 0.0
        if np.any(empty):
            k = int(np.argmax(empty))
            raise ValueError(
                f"agent {problem.agent_ids[k] if problem is not None else f'v{k}'} has no positive weight; "
                "the invariant method needs one in every row"
            )
        chain = _damped_chain(np.array(weights), 1.0)
    dist, report = stationary_distribution(chain, tolerance=tol)
    # named only now: a declared vertex count too large to rank fails above, in numpy
    ids = problem.agent_ids if problem is not None else tuple(f"v{k}" for k in range(dist.n))
    _emit_ranking(ids, dist.pi, report, args.method, args.format)
    return _EXIT_OK


def _verdict_record(verdict: AxiomVerdict, ok: bool, note: str | None = None) -> dict:
    record = {
        "axiom": verdict.axiom,
        "status": verdict.status,
        "ok": ok,
        "witness": verdict.witness,
        "tolerances": verdict.tolerances,
    }
    if note:
        record["note"] = note
    return record


def _cmd_verify(args) -> int:
    custom = None
    if args.input is not None:
        custom, loaded_graph = sniff_and_load(args.input)
        if custom is None:
            custom = problem_from_edge_list(weight_matrix(*loaded_graph), rho=0.0, beta=1.0)
    bundled = custom is None

    axioms = ("fairness", "monotone", "invariance", "uniformity", "gs") if args.axiom == "all" else (args.axiom,)
    records = []
    for axiom in axioms:
        if axiom == "fairness":
            verdict = check_minimal_fairness(args.n, args.rho, beta=args.beta)
            ok, note = verdict.passed, None
        elif axiom == "monotone":
            problem = custom if custom is not None else load_fixture("monotone3")
            verdict = check_strict_monotonicity(problem, args.i, args.j)
            ok, note = verdict.status != "fail", None
        elif axiom == "invariance":
            problem = custom if custom is not None else load_fixture("nonuniform3")
            verdict = check_invariance(problem, args.row, args.lam)
            ok, note = verdict.passed, None
        elif axiom == "uniformity":
            problem = custom if custom is not None else load_fixture("nonuniform3")
            verdict = check_uniformity(problem)
            if not verdict.applicable:
                ok, note = True, None
            elif bundled:
                # the bundled fixture exists to witness non-uniformity
                ok = not verdict.passed
                note = "non-uniform, as claimed" if ok else "fixture unexpectedly uniform"
            else:
                ok = True
                note = "uniform" if verdict.passed else "non-uniform"
        else:  # gs
            problem = custom if custom is not None else load_fixture("nonuniform3")
            economy = build_economy(problem)
            probe = np.full(economy.n, 1.0 / economy.n)
            verdict = gs_spot_check(economy, args.good, args.delta, [probe])
            ok, note = verdict.status != "fail", None
        if verdict.status == "not_applicable":
            print(f"warning: {axiom}: not applicable ({verdict.witness.get('reason')})", file=sys.stderr)
        records.append(_verdict_record(verdict, ok, note))

    sys.stdout.write(json.dumps(records, indent=2) + "\n")
    return _EXIT_OK if all(r["ok"] for r in records) else _EXIT_CHECK_FAILED


def _cmd_compare(args) -> int:
    problem, loaded_graph = sniff_and_load(args.input)
    graph = loaded_graph[0] if problem is None else support_graph(problem.alpha)
    ids = problem.agent_ids if problem is not None else tuple(f"v{k}" for k in range(graph.n))

    chain = build_web_transition(graph, c=args.damping)
    # power iteration on the chain versus the linear solve behind the closed
    # form: two independent computations of the same vector
    dist, chain_report = stationary_distribution(chain)
    economy = markov_to_economy(chain)
    prices, market_report = solve_cobb_douglas(economy)

    difference = float(np.abs(dist.pi - prices.pi).max())
    passed = difference <= 1e-8
    doc = {
        "format": 1,
        "damping": args.damping,
        "agents": list(ids),
        "stationary": dist.pi.tolist(),
        "equilibrium": prices.pi.tolist(),
        "max_difference": difference,
        "bound": 1e-8,
        "passed": passed,
        "reports": {
            "stationary": chain_report.to_dict(include_wall_time=False),
            "equilibrium": market_report.to_dict(include_wall_time=False),
        },
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return _EXIT_OK if passed else _EXIT_CHECK_FAILED


def _cmd_convert(args) -> int:
    problem, loaded_graph = sniff_and_load(args.input)
    graph = loaded_graph[0] if problem is None else support_graph(problem.alpha)
    chain = build_web_transition(graph, c=args.damping)
    # beta=1: the damping is already baked into the transition matrix
    document = problem_from_edge_list(chain.matrix, rho=0.0, beta=1.0)
    text = dump_problem(document)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    return _EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cesrank", description="Elasticity-aware agent ranking.")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="score the agents of a problem document or edge list")
    rank.add_argument("--method", choices=("ces", "pagerank", "invariant"), default="ces")
    rank.add_argument("--input", required=True, help="problem document (.json) or edge list")
    rank.add_argument("--rho", type=float, default=None, help="override rho for every agent, in [-1, 0.95] (ces)")
    rank.add_argument("--beta", type=float, default=None, help="override damping weight (ces)")
    rank.add_argument("--damping", type=float, default=0.85, help="link-following probability (pagerank)")
    rank.add_argument("--tol", type=float, default=None, help="solver tolerance")
    rank.add_argument("--format", choices=("tsv", "json"), default="tsv")
    rank.set_defaults(func=_cmd_rank)

    verify = sub.add_parser("verify", help="run axiom checks against a fixture or your own problem")
    verify.add_argument("--axiom", choices=("fairness", "monotone", "invariance", "uniformity", "gs", "all"), default="all")
    verify.add_argument("--input", default=None, help="problem document; bundled fixtures when omitted")
    verify.add_argument("--n", type=int, default=3, help="agent count for the fairness check")
    verify.add_argument("--rho", type=float, default=0.0, help="common rho for the fairness check")
    verify.add_argument("--beta", type=float, default=1.0, help="damping weight for the fairness check")
    verify.add_argument("--i", type=int, default=0, help="dominated agent index (monotone)")
    verify.add_argument("--j", type=int, default=1, help="dominating agent index (monotone)")
    verify.add_argument("--row", type=int, default=0, help="agent row to rescale (invariance)")
    verify.add_argument("--lambda", dest="lam", type=float, default=10.0, help="rescale factor (invariance)")
    verify.add_argument("--good", type=int, default=0, help="good whose price is bumped (gs)")
    verify.add_argument("--delta", type=float, default=0.05, help="price bump size (gs)")
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser("compare", help="stationary distribution vs market equilibrium on one graph")
    compare.add_argument("--input", required=True, help="edge list or problem document (support graph used)")
    compare.add_argument("--damping", type=float, default=0.85)
    compare.set_defaults(func=_cmd_compare)

    convert = sub.add_parser("convert", help="dump a graph's damped chain as a problem document")
    convert.add_argument("--input", required=True)
    convert.add_argument("--damping", type=float, default=0.85)
    convert.add_argument("--output", default=None, help="write here instead of stdout")
    convert.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_BAD_INPUT
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE
    except (ValueError, OSError, MemoryError) as e:
        # MemoryError: a declared size too large to allocate is unusable input
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_BAD_INPUT


def entry_point() -> None:
    sys.exit(main())

"""Command-line surface.

Four subcommands:

``rank``     score the agents of a problem or graph (ces, pagerank, invariant)
``verify``   run executable axiom checks and emit machine-readable verdicts
``compare``  cross-check power iteration against the closed-form equilibrium
``convert``  write a graph's damped chain as a problem document: its edges at
             weight 1, rho 0 and beta = --damping, in O(n + edges)

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
import signal
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .axioms import (
    check_invariance,
    check_minimal_fairness,
    check_strict_monotonicity,
    check_uniformity,
    gs_spot_check,
)
from .diagnostics import ConvergenceError
from .economy import build_economy, damped_economy, web_economy
from .fixtures import load_fixture
from .formats import _row_blocks, dump_problem, json_document, sniff_and_load
from .problem import DEFAULT_BETA, RHO_MAX, RankingProblem, _agent_names
from .solver import SolverConfig, solve_cobb_douglas, solve_equilibrium, solve_power

#: Scores within this fraction of the higher one are reported as tied.
TIE_TOL = 1e-9
#: Default bound on the certified residual of a chain's prices: pagerank, invariant and compare's power iteration.
POWER_TOL = 1e-12
#: Largest difference between compare's two vectors that still passes.
COMPARE_BOUND = 1e-8

#: Each rank method's default ``--tol``; ces keeps the solver's own default.
_DEFAULT_TOL = {"ces": SolverConfig.tolerance, "pagerank": POWER_TOL, "invariant": POWER_TOL}
#: The flags that only one method reads, in the order their warnings are printed.
_METHOD_FLAGS = {"damping": "pagerank", "rho": "ces", "beta": "ces"}

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
    An agent further than TIE_TOL times its own score below the agent above
    it is further still below any anchor above (twice that covers rounding),
    so it starts a group: only runs of close neighbours are walked. Only
    tied agents are named, by `_agent_names`.
    """
    ranked = scores[order]
    close = np.abs(np.diff(ranked)) <= 2.0 * TIE_TOL * ranked[:-1]
    bounds = np.flatnonzero(np.diff(close.astype(np.int8), prepend=0, append=0))
    groups: list[np.ndarray] = []
    for lo, hi in zip(bounds[::2].tolist(), (bounds[1::2] + 1).tolist()):  # the run is ranked[lo:hi]
        run = ranked[lo:hi].tolist()
        anchor = 0
        if abs(run[-1] - run[0]) > TIE_TOL * run[0]:  # else the last agent is tied, and so is every other
            for k, score in enumerate(run):
                if abs(score - run[anchor]) > TIE_TOL * run[anchor]:
                    groups.append(order[lo + anchor : lo + k])
                    anchor = k
        groups.append(order[lo + anchor : hi])
    return [_agent_names(ids, sorted(g.tolist())) for g in groups if len(g) > 1]


#: One ranking entry of each format (the JSON one as ``json.dumps(..., indent=2)`` writes it in the
#: document), given its agent's ``%`` field: ``v%d`` for an edge list's agent k, ``%s`` for an id.
#: JSON quotes either: ``"v%d"``, or the id as ``encode_basestring_ascii`` escapes it.
_JSON_ENTRY = '    {{\n      "rank": %d,\n      "agent": {},\n      "score": %r\n    }}'.format
_TSV_ENTRY = "%d\t{}\t%.12g\n".format


def _require_tsv_ids(ids) -> None:
    """Raise ValueError unless every agent id fits a TSV field that stdout can encode: one without a tab or line break."""
    if ids is None:
        return
    text = "".join(ids)
    if "\t" in text or "\n" in text or "\r" in text:
        agent = next(a for a in ids if "\t" in a or "\n" in a or "\r" in a)
        raise ValueError(f"agent {agent!r} holds a tab or line break, which a TSV line cannot hold; use --format json")
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding is not None:
        try:
            text.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
        except UnicodeEncodeError as e:
            raise ValueError(f"an agent id holds {e.object[e.start]!r}, which stdout cannot encode as {encoding}; use --format json") from None


def _emit_ranking(ids, scores, report, method: str, fmt: str) -> None:
    """Write the ranking to stdout in blocks, best first, each agent named as `_agent_names` names it.

    Everything that can fail runs before the first write, so a failure leaves stdout empty; the caller checks the ids (`_require_tsv_ids`).
    """
    order = np.argsort(-scores, kind="stable")

    def columns(lo, hi):
        block = order[lo:hi]
        agents = block.tolist()
        if ids is not None:
            agents = map(ids.__getitem__, agents)
            if fmt == "json":
                agents = map(encode_basestring_ascii, agents)
        return range(lo + 1, hi + 1), agents, scores[block].tolist()

    agent = "%s" if ids is not None else ("v%d" if fmt == "tsv" else '"v%d"')
    if fmt == "tsv":
        pieces = _row_blocks(_TSV_ENTRY(agent), "", scores.size, columns)
    else:
        head = {"format": 1, "method": method}
        tail = {"ties": _tie_groups(ids, scores, order), "report": report.to_dict()}
        pieces = json_document(head, ("ranking",), _row_blocks(_JSON_ENTRY(agent), ",\n", scores.size, columns), tail)
    write = sys.stdout.write
    for piece in pieces:
        write(piece)


def _cmd_rank(args) -> int:
    problem = sniff_and_load(args.input)
    ids, graph = problem.agent_ids, problem.graph
    if args.format == "tsv":
        _require_tsv_ids(ids)  # before the solve, which may take long
    for flag, method in _METHOD_FLAGS.items():
        if getattr(args, flag) is not None and args.method != method:
            hint = "; use --beta to damp --method ces" if flag == "damping" and args.method == "ces" else ""
            print(f"warning: --{flag} only applies to --method {method}; ignored{hint}", file=sys.stderr)

    # the method picks the economy and its solver; nothing of size n x n is built
    if args.method == "pagerank":  # the web chain's market, iterated on its edges
        economy, solve = web_economy(graph, args.damping if args.damping is not None else DEFAULT_BETA), solve_power
    elif args.method == "ces":
        rho, beta = (problem.rho if args.rho is None else args.rho), (problem.beta if args.beta is None else args.beta)
        economy, solve = damped_economy(graph, problem.weights, rho, beta), solve_equilibrium
    else:  # invariant: the undamped Cobb-Douglas market, whose solver checks the graph's connectivity
        empty = np.bincount(graph.src, minlength=graph.n) == 0
        if np.any(empty):
            (name,) = _agent_names(ids, [int(np.argmax(empty))])
            # with another vertex, one without out-edges reaches none of them
            need = "one in every row" if graph.n == 1 else "a strongly connected graph, where every agent has one"
            raise ValueError(f"agent {name} has no positive weight; the invariant method needs {need}")
        economy, solve = damped_economy(graph, problem.weights, 0.0, 1.0), solve_equilibrium
    prices, report = solve(economy, SolverConfig(tolerance=_DEFAULT_TOL[args.method] if args.tol is None else args.tol))
    _emit_ranking(ids, prices.pi, report, args.method, args.format)
    return _EXIT_OK


#: Each axiom `verify` checks, in the order ``all`` runs them: its bundled fixture, which
#: ``--input`` replaces (None: the check builds its own problem), and its check under the flags.
_AXIOMS = {
    "fairness": (None, lambda problem, args: check_minimal_fairness(args.n, args.rho, beta=args.beta)),
    "monotone": ("monotone3", lambda problem, args: check_strict_monotonicity(problem, args.i, args.j)),
    "invariance": ("nonuniform3", lambda problem, args: check_invariance(problem, args.row, args.lam)),
    "uniformity": ("nonuniform3", lambda problem, args: check_uniformity(problem)),
    "gs": ("nonuniform3", lambda problem, args: gs_spot_check(build_economy(problem), args.good, args.delta, [np.full(problem.n, 1.0 / problem.n)])),
}


def _cmd_verify(args) -> int:
    custom = None if args.input is None else sniff_and_load(args.input)
    if custom is not None and custom.agent_ids is None:  # an edge list is checked undamped
        custom = RankingProblem._trusted(None, custom.graph, custom.weights, custom.rho, 1.0)

    records = []
    for axiom in _AXIOMS if args.axiom == "all" else (args.axiom,):
        fixture, check = _AXIOMS[axiom]
        verdict = check(custom if custom is not None or fixture is None else load_fixture(fixture), args)
        record = {
            "axiom": verdict.axiom,
            "status": verdict.status,
            "ok": verdict.status != "fail",  # a check is ok unless it fails
            "witness": verdict.witness,
            "tolerances": verdict.tolerances,
        }
        if axiom == "uniformity" and verdict.applicable:
            if custom is None:  # the bundled fixture exists to witness non-uniformity
                record["ok"] = not verdict.passed
                record["note"] = "non-uniform, as claimed" if record["ok"] else "fixture unexpectedly uniform"
            else:  # informational: an input may be either
                record["ok"] = True
                record["note"] = "uniform" if verdict.passed else "non-uniform"
        if verdict.status == "not_applicable":
            print(f"warning: {axiom}: not applicable ({verdict.witness.get('reason')})", file=sys.stderr)
        records.append(record)

    sys.stdout.write(json.dumps(records, indent=2) + "\n")
    return _EXIT_OK if all(r["ok"] for r in records) else _EXIT_CHECK_FAILED


def _cmd_compare(args) -> int:
    problem = sniff_and_load(args.input)
    economy = web_economy(problem.graph, c=args.damping)
    # power iteration on the market versus the closed form's GTH elimination:
    # two independent computations of the same vector
    pagerank, power_report = solve_power(economy, SolverConfig(tolerance=POWER_TOL))
    prices, market_report = solve_cobb_douglas(economy)

    difference = float(np.abs(pagerank.pi - prices.pi).max())
    passed = difference <= COMPARE_BOUND
    doc = {
        "format": 1,
        "damping": args.damping,
        "agents": _agent_names(problem.agent_ids, range(problem.n)),
        "stationary": pagerank.pi.tolist(),
        "equilibrium": prices.pi.tolist(),
        "max_difference": difference,
        "bound": COMPARE_BOUND,
        "passed": passed,
        "reports": {
            "stationary": power_report.to_dict(),
            "equilibrium": market_report.to_dict(),
        },
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return _EXIT_OK if passed else _EXIT_CHECK_FAILED


def _cmd_convert(args) -> int:
    graph = sniff_and_load(args.input).graph
    web_economy(graph, c=args.damping)  # rejects a damping outside (0, 1) and self-loops
    # the problem whose damped economy is the chain's: unit weights, rho 0 and beta = damping
    problem = RankingProblem._trusted(None, graph, np.ones(graph.src.size), 0.0, args.damping)
    text = dump_problem(problem)
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
    rank.add_argument("--rho", type=float, default=None, help=f"override rho for every agent, in [-1, {RHO_MAX}] (ces)")
    rank.add_argument("--beta", type=float, default=None, help="override damping weight (ces)")
    rank.add_argument("--damping", type=float, default=None, help=f"link-following probability, default {DEFAULT_BETA} (pagerank)")
    tols = f"{_DEFAULT_TOL['ces']:g} for ces, {POWER_TOL:g} otherwise"
    rank.add_argument("--tol", type=float, default=None, help=f"bound on the certified max excess demand; {tols}")
    rank.add_argument("--format", choices=("tsv", "json"), default="tsv")
    rank.set_defaults(func=_cmd_rank)

    verify = sub.add_parser("verify", help="run axiom checks against a fixture or your own problem")
    verify.add_argument("--axiom", choices=(*_AXIOMS, "all"), default="all")
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
    compare.add_argument("--damping", type=float, default=DEFAULT_BETA)
    compare.set_defaults(func=_cmd_compare)

    convert = sub.add_parser("convert", help="write a graph's damped chain as a problem document of its edges")
    convert.add_argument("--input", required=True)
    convert.add_argument("--damping", type=float, default=DEFAULT_BETA, help="link-following probability, written as beta")
    convert.add_argument("--output", default=None, help="write here instead of stdout")
    convert.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE
    except (ValueError, OSError, MemoryError) as e:
        # ValueError includes DocumentError; MemoryError: a declared size too large to allocate is unusable input
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_BAD_INPUT


def entry_point() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process quietly, as it ends a Unix filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

"""Agent ranking through exchange-market equilibria.

A ranking problem assigns each agent a preference row over the other agents
and an elasticity parameter. Scoring works by reading the problem as an
exchange economy (each agent endowed with one unit of the good named after
them) and ranking by equilibrium prices. With unit elasticity everywhere the
prices coincide with the stationary distribution of the damped preference
chain, so the classical link-analysis scores come out as the special case
rho = 0; other elasticities genuinely change the ranking.
"""

from .axioms import (
    AxiomVerdict,
    check_invariance,
    check_minimal_fairness,
    check_strict_monotonicity,
    check_uniformity,
    gs_spot_check,
)
from .diagnostics import ClearingReport, ConvergenceError, Leg, SolverReport
from .economy import (
    CesEconomy,
    PriceVector,
    build_economy,
    damped_economy,
    excess_demand,
    web_economy,
)
from .fixtures import FIXTURE_NAMES, load_fixture
from .formats import (
    DocumentError,
    dump_problem,
    load_edge_list,
    load_problem,
    sniff_and_load,
)
from .problem import DirectedGraph, RankingProblem, support_graph
from .solver import (
    SolverConfig,
    rank_problem,
    solve_cobb_douglas,
    solve_equilibrium,
    solve_power,
    solve_tatonnement,
    verify_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomVerdict",
    "CesEconomy",
    "ClearingReport",
    "ConvergenceError",
    "DirectedGraph",
    "DocumentError",
    "FIXTURE_NAMES",
    "Leg",
    "PriceVector",
    "RankingProblem",
    "SolverConfig",
    "SolverReport",
    "build_economy",
    "check_invariance",
    "check_minimal_fairness",
    "check_strict_monotonicity",
    "check_uniformity",
    "damped_economy",
    "dump_problem",
    "excess_demand",
    "gs_spot_check",
    "load_edge_list",
    "sniff_and_load",
    "load_fixture",
    "load_problem",
    "rank_problem",
    "solve_cobb_douglas",
    "solve_equilibrium",
    "solve_power",
    "solve_tatonnement",
    "support_graph",
    "verify_equilibrium",
    "web_economy",
]

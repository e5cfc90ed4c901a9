"""Personal equilibria for reference-dependent investors on scenario trees.

A solver library for discrete-time, finite-scenario incomplete markets:
best responses by backward dynamic programming, personal equilibria as
fixed points of the best-response map, and runtime-checkable certificates
for the explicit optimizer/derivative/continuity bounds the construction
guarantees.
"""

from .bestresponse import (
    OneStepSolution,
    SolveStats,
    Strategy,
    TerminalValue,
    best_response,
    one_step_objective,
    solve_one_step,
    terminal_wealth_law,
    value_recursion,
)
from .equilibrium import (
    EquilibriumConfig,
    EquilibriumReport,
    EquilibriumSet,
    certify_equilibrium,
    evaluate_self_value,
    find_equilibria,
    iterate_fixed_point,
)
from .market import (
    FactorDistribution,
    Market,
    NoArbitrageCertificate,
    PriceModel,
    ScenarioTree,
    TablePriceModel,
    DriftVolPriceModel,
    WealthPath,
    build_eex_model,
    check_uniform_no_arbitrage,
    wealth,
)
from .preferences import (
    ArctanGainLoss,
    ExponentialUtility,
    GainLoss,
    LogFamilies,
    Preferences,
    PropagatedEnvelopes,
    ReferenceDistribution,
    StageEnvelopes,
    TabulatedUtility,
    TerminalEnvelopes,
    Utility,
    build_envelope_stack,
    satisfaction,
    strategy_bound,
    validate_preferences,
)
from .verify import CheckReport, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

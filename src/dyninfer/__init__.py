"""Finite-state toolkit for sequential estimation with feedback.

Models where each round's estimate steers the next observation are reduced to
a finite-horizon MDP and solved exactly by backward induction; strategies can
be evaluated exactly, simulated with seeded rollouts, and cross-checked
against brute-force search over history-dependent strategies.
"""

from .errors import (
    DimensionMismatch,
    DynamicInferenceError,
    HorizonMismatch,
    InvalidModelError,
    InvalidParams,
    NotStochastic,
    SearchSpaceTooLarge,
    ShapeMismatch,
    UnknownLabel,
)
from .evaluate import (
    EvalResult,
    MarkovStrategy,
    SimulationResult,
    evaluate_markov,
    myopic_strategy,
    optimal_strategy,
    simulate,
)
from .examples import PlannerStyle, YieldParams, example_section33, example_stock, example_yield
from .model import (
    Alphabet,
    Problem,
    problem_from_tables,
    problem_to_dict,
    validate_problem,
)
from .oracle import (
    HistoryMode,
    HistoryStrategy,
    OracleReport,
    brute_force_optimum,
    enumerate_markov_strategies,
    exact_loss_history,
    random_history_strategy,
    random_problem,
    verify_lemma1,
)
from .reduction import BarLossTable, bar_loss_table
from .solver import SolveResult, TieBreakRule, minimum_inference_loss, solve
from .trellis import export_trellis

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BarLossTable",
    "DimensionMismatch",
    "DynamicInferenceError",
    "EvalResult",
    "HistoryMode",
    "HistoryStrategy",
    "HorizonMismatch",
    "InvalidModelError",
    "InvalidParams",
    "MarkovStrategy",
    "NotStochastic",
    "OracleReport",
    "PlannerStyle",
    "Problem",
    "SearchSpaceTooLarge",
    "ShapeMismatch",
    "SimulationResult",
    "SolveResult",
    "TieBreakRule",
    "UnknownLabel",
    "YieldParams",
    "bar_loss_table",
    "brute_force_optimum",
    "enumerate_markov_strategies",
    "evaluate_markov",
    "exact_loss_history",
    "example_section33",
    "example_stock",
    "example_yield",
    "export_trellis",
    "minimum_inference_loss",
    "myopic_strategy",
    "optimal_strategy",
    "problem_from_tables",
    "problem_to_dict",
    "random_history_strategy",
    "random_problem",
    "simulate",
    "solve",
    "validate_problem",
    "verify_lemma1",
]

"""Exact weighted colouring-sum solver and audit harness for cycle-derived
graph families (wheels, double wheels, helms, closed helms, sunlets, webs)."""

from .coloring import Coloring, coloring_sum, optimal_labeling
from .families import make, parse_family
from .formulas import predict
from .graphs import Graph
from .oracle import brute_force_oracle
from .solvers import (
    QUANTITIES,
    BudgetExhausted,
    SearchBudget,
    SumResult,
    b_chromatic_number,
    b_sum,
    chi_sum,
    chromatic_number,
    m_bound,
    solve,
)
from .verification import ResultsCache, VerificationRow, render_report, run_campaign

__all__ = [
    "Coloring",
    "coloring_sum",
    "optimal_labeling",
    "make",
    "parse_family",
    "predict",
    "Graph",
    "brute_force_oracle",
    "QUANTITIES",
    "BudgetExhausted",
    "SearchBudget",
    "SumResult",
    "b_chromatic_number",
    "b_sum",
    "chi_sum",
    "chromatic_number",
    "m_bound",
    "solve",
    "ResultsCache",
    "VerificationRow",
    "render_report",
    "run_campaign",
]

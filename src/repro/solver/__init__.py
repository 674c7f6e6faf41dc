"""Exact anytime placement solver (whole-pipeline optimal schedules).

The greedy pipeline of §4 is locally optimal at every step; this package
encodes the *entire* placement problem — candidate positions, §4.6
redundancy between entries, §4.7 combinability into shared messages —
as one pseudo-boolean model (:mod:`repro.solver.encode`), solves it with
a bounded branch-and-bound decision procedure (:mod:`repro.solver.bnb`),
and minimizes total message count by Chlorophyll-style binary search
under an anytime ``solver_budget_ms`` deadline
(:mod:`repro.solver.search`).  Importing the package registers the
``exact`` placement pass.  ``tests/test_solver.py`` checks it against
the golden benchmark records: on every record proved optimal the
``exact`` pipeline reaches exactly ``optimal_messages``, never more than
the greedy ``comb`` count, and its schedule passes the staleness oracle.
"""

from .bnb import SAT, UNKNOWN, UNSAT, PBModel, PBSolver
from .encode import (
    DecodedSchedule,
    ExactModel,
    build_model,
    decode_assignment,
)
from .search import ExactPlacementPass, SolveReport, solve_schedule

__all__ = [
    "SAT",
    "UNKNOWN",
    "UNSAT",
    "PBModel",
    "PBSolver",
    "DecodedSchedule",
    "ExactModel",
    "build_model",
    "decode_assignment",
    "ExactPlacementPass",
    "SolveReport",
    "solve_schedule",
]

"""Execution substrates: reference interpreter, schedule checker, SPMD
executor, and the bulk-synchronous cost simulator."""

from .checker import CheckStats, ScheduleChecker, check_schedule
from .interp import Interpreter, initial_arrays, initial_scalars, interpret
from .simulator import SimReport, Simulator, simulate
from .spmd import SPMDExecutor, execute_spmd

__all__ = [
    "CheckStats",
    "Interpreter",
    "SPMDExecutor",
    "ScheduleChecker",
    "SimReport",
    "Simulator",
    "check_schedule",
    "execute_spmd",
    "initial_arrays",
    "initial_scalars",
    "interpret",
    "simulate",
]

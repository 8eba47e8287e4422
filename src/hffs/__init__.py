"""Hybrid flexible flowshop scheduling toolkit.

Jobs visit an eligible subsequence of ordered stages, each stage holds a pool
of identical machines, processing durations shrink with the number of
assigned workers, machines have finite entry and exit buffers, and moving a
job between machines takes a known transport time.  The package provides
instance generators, eight makespan lower bounds, an exact branch-and-bound
model over interval variables, and a Benders-style decomposition that
separates machine sequencing from worker assignment and timing.
"""

from .bounds import BoundReport, best_lb
from .engine import (
    Assignment,
    ChoiceVar,
    ConditionalBound,
    ConstraintSet,
    Cumulative,
    Disjunctive,
    EngineModel,
    Member,
    OffsetLink,
    Precedence,
    SearchResult,
    TaskVar,
    check_assignment,
    check_model,
    evaluate_objective,
    propagate,
    resume,
    solve,
)
from .full_model import Encoding, build_full, solve_full
from .instance_gen import GenSpec, generate
from .lbbd import BendersCut, Budgets, IterationRecord, RunLog, fingerprint_of, gaps, run
from .master import MasterSolution, build_master, solve_master
from .model import (
    Instance,
    Interval,
    Op,
    Schedule,
    insertion_schedule,
    instance_from_json,
    instance_to_json,
    makespan_of,
    schedule_from_json,
    schedule_to_json,
    serial_schedule,
    validate_instance,
    validate_schedule,
)
from .subproblem import SubResult, build_sub, solve_sub

__all__ = [
    "Assignment",
    "BendersCut",
    "BoundReport",
    "Budgets",
    "ChoiceVar",
    "ConditionalBound",
    "ConstraintSet",
    "Cumulative",
    "Disjunctive",
    "Encoding",
    "EngineModel",
    "GenSpec",
    "Instance",
    "Interval",
    "IterationRecord",
    "MasterSolution",
    "Member",
    "OffsetLink",
    "Op",
    "Precedence",
    "RunLog",
    "Schedule",
    "SearchResult",
    "SubResult",
    "TaskVar",
    "best_lb",
    "build_full",
    "build_master",
    "build_sub",
    "check_assignment",
    "check_model",
    "evaluate_objective",
    "fingerprint_of",
    "gaps",
    "generate",
    "insertion_schedule",
    "instance_from_json",
    "instance_to_json",
    "makespan_of",
    "propagate",
    "resume",
    "run",
    "schedule_from_json",
    "schedule_to_json",
    "serial_schedule",
    "solve",
    "solve_full",
    "solve_master",
    "solve_sub",
    "validate_instance",
    "validate_schedule",
]

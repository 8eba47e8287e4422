"""Restricted subproblem: machines fixed by a master solution, workers and
timing free, all original constraints active.

The encoding is the monolithic model's (``full_model.build_full``) with every
machine choice pinned to the master's machine.  The engine compiles the
one-value routes and transport tables away, so what it searches is one
worker choice per operation selecting the processing duration, the waits
between consecutive operations of a job (a job's outer waits are zero length,
as in the full model) with exact transport constants between the assigned
machines, machine no-overlap groups and buffer cumulatives over only the
operations assigned to each machine, and the global worker cumulative
weighted by the chosen count.  Any optimum here is feasible for the original
problem, so it yields an upper bound; the returned schedule is decoded and
re-validated by the full model's own step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import solve
from .full_model import (
    Encoding,
    build_full,
    incumbent_schedule,
    schedule_to_assignment,
)
from .master import MasterSolution
from .model import (
    Instance,
    Schedule,
    serial_schedule,
    validate_instance,
    validate_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
)


@dataclass(frozen=True, slots=True)
class SubResult:
    zeta: int
    schedule: Schedule
    status: str
    nodes: int
    wall_time: float
    lower_bound: int


def build_sub(
    inst: Instance,
    msol: MasterSolution,
    *,
    horizon: int | None = None,
    lb_floor: int = 0,
) -> Encoding:
    """Encode the subproblem: the full model pinned to the master's machines.
    A machine map that does not give every operation a machine of its stage
    is a ValueError, with or without a ``horizon``."""
    return build_full(inst, horizon=horizon, lb_floor=lb_floor, machine_of=msol.machine_of)


def solve_sub(
    inst: Instance,
    msol: MasterSolution,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    lb_floor: int = 0,
) -> SubResult:
    """Anytime subproblem solve.  ``lb_floor`` may be any proven lower bound
    of the ORIGINAL problem (the subproblem restricts it, so the bound stays
    valid and never inflates the reported optimum)."""
    errors = validate_instance(inst)
    if errors:
        raise ValueError(f"invalid instance: {errors[0]}")
    base = serial_schedule(inst, msol.machine_of)  # rejects a bad machine map
    enc = build_sub(inst, msol, horizon=base.makespan, lb_floor=lb_floor)
    result = solve(
        enc.model,
        node_budget=node_budget,
        time_budget=time_budget,
        hint=schedule_to_assignment(enc, base),
    )
    return SubResult(
        zeta=result.objective,
        schedule=incumbent_schedule(inst, enc, result),
        status=result.status,
        nodes=result.nodes,
        wall_time=result.wall_time,
        lower_bound=result.lower_bound,
    )

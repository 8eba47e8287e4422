"""Restricted subproblem: machines fixed by a master solution, workers and
timing free, all original constraints active.

The encoding is the monolithic model's (``full_model.build_full``) with every
machine choice pinned to the master's machine.  The engine compiles the
one-value guards and transport tables away, so what it searches is one
worker choice per operation selecting the processing duration, the
wait/process/wait triple with chain equality, exact transport constants
between consecutive assigned machines, machine no-overlap groups and buffer
cumulatives over only the operations assigned to each machine, and the
global worker cumulative weighted by the chosen count.  Any optimum here is
feasible for the original problem, so it yields an upper bound; the returned
schedule is decoded and re-validated by the full model's own step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import solve
from .full_model import (
    FullEncoding,
    build_full,
    incumbent_schedule,
    schedule_to_assignment,
)
from .master import MasterSolution
from .model import (
    Instance,
    Op,
    Schedule,
    serial_schedule,
    validate_instance,
    validate_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
)


@dataclass(frozen=True, slots=True)
class SubResult:
    zeta: int | None
    schedule: Schedule | None
    status: str
    nodes: int
    wall_time: float
    lower_bound: int


def _assigned_machines(inst: Instance, msol: MasterSolution) -> dict[Op, str]:
    """Validate coverage of the master's machine sequences and flatten them."""
    machine_of: dict[Op, str] = {}
    for j in inst.jobs:
        chain = inst.eligible_stages[j]
        seq = msol.machine_seq.get(j)
        if seq is None or len(seq) != len(chain):
            raise ValueError(f"machine sequence for job {j} does not cover {chain}")
        for s, m in zip(chain, seq):
            if m not in inst.machines or inst.machines[m] != s:
                raise ValueError(f"machine {m} is not in stage {s} (job {j})")
            machine_of[(j, s)] = m
    return machine_of


def build_sub(
    inst: Instance,
    msol: MasterSolution,
    *,
    horizon: int | None = None,
    lb_floor: int = 0,
) -> FullEncoding:
    """Encode the subproblem: the full model pinned to the master's machines."""
    return build_full(
        inst,
        horizon=horizon,
        lb_floor=lb_floor,
        machine_of=_assigned_machines(inst, msol),
    )


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
    base = serial_schedule(inst, _assigned_machines(inst, msol))
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

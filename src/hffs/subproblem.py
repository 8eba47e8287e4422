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
re-validated by the full model's own step.  A fresh search starts from its
caller's feasible schedule on the master's machines (``hffs.lbbd`` hands in
``model.insertion_schedule`` under that map), its hint and horizon.

A search that stops at its node budget without proving its optimum can be
continued instead of built and searched again (``solve_sub``'s ``paused``):
the result keeps the encoding and the engine's result, which holds the
paused search, and a later call resumes it into a new result, up to its
larger total budget or its deadline.  A raised ``lb_floor`` needs no change
to that search.  Every floor the caller passes is a proven lower
bound of the original problem, so it lies below every leaf makespan, and it
lies below the paused incumbent (a caller whose bound met the incumbent
would have stopped).  Pruning, leaf objectives and status are therefore
those of a fresh search at the raised floor; only the reported lower bound
is raised to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import SearchResult, resume, solve
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
    serial_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
    validate_instance,
    validate_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
)


@dataclass(slots=True)
class SubResult:
    zeta: int
    schedule: Schedule
    status: str
    nodes: int
    wall_time: float
    lower_bound: int
    # the encoding and the engine's result, while its search can be continued
    paused: tuple[Encoding, SearchResult] | None = field(
        default=None, repr=False, compare=False)


def build_sub(
    inst: Instance,
    msol: MasterSolution,
    *,
    horizon: int,
    lb_floor: int = 0,
) -> Encoding:
    """Encode the subproblem: the full model pinned to the master's machines,
    inside the makespan ``horizon`` of a feasible schedule on them.  A
    machine map that does not give every operation a machine of its stage
    is a ValueError."""
    return build_full(inst, horizon=horizon, lb_floor=lb_floor, machine_of=msol.machine_of)


def solve_sub(
    inst: Instance,
    msol: MasterSolution,
    *,
    start: Schedule | None,
    node_budget: int | None = None,
    deadline: float | None = None,
    lb_floor: int = 0,
    paused: SubResult | None = None,
) -> SubResult:
    """Anytime subproblem solve.  A fresh one (no ``paused``) searches from
    ``start``, a feasible schedule on exactly ``msol.machine_of``: the hint,
    whose makespan is the horizon; a start on other machines is a
    ValueError.  ``lb_floor`` may be any proven lower bound of the ORIGINAL
    problem (the subproblem restricts it, so the bound stays valid and never
    inflates the reported optimum).

    A result that stopped at its node budget without proving its optimum
    keeps its search (its ``paused``).  Passing that result as ``paused``,
    with the same instance and master solution and no ``start``, continues
    the search to ``node_budget`` nodes in total or to the ``deadline`` (a
    ``time.perf_counter()`` reading, as in ``engine.solve``); the floor must
    stay below its incumbent (see the module docstring).  The returned
    ``nodes`` and ``wall_time`` are those of this call."""
    if paused is None:
        errors = validate_instance(inst)
        if errors:
            raise ValueError(f"invalid instance: {errors[0]}")
        if start is None or start.machine_of != msol.machine_of:
            raise ValueError("a fresh subproblem starts from a schedule on the master's machines")
        enc = build_sub(inst, msol, horizon=start.makespan, lb_floor=lb_floor)
        result = solve(
            enc.model,
            node_budget=node_budget,
            deadline=deadline,
            hint=schedule_to_assignment(enc, start),
        )
        nodes_before, wall_before = 0, 0.0
    else:
        if lb_floor >= paused.zeta:
            raise ValueError("a continued subproblem needs a floor below its incumbent")
        enc, before = paused.paused
        nodes_before, wall_before = before.nodes, before.wall_time
        result = resume(before, node_budget=node_budget, deadline=deadline)
    if paused is not None and result.objective == paused.zeta:
        schedule = paused.schedule  # the same incumbent, decoded and validated
    else:
        schedule = incumbent_schedule(inst, enc, result)
    return SubResult(
        zeta=result.objective,
        schedule=schedule,
        status=result.status,
        nodes=result.nodes - nodes_before,
        wall_time=result.wall_time - wall_before,
        lower_bound=max(result.lower_bound, lb_floor),
        paused=None if result.paused is None else (enc, result),
    )

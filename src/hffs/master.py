"""Relaxed master model: machine assignment and sequencing under relaxed
durations, strengthened by accumulated logic cuts and a proven floor.

The master encodes exactly its relaxation.  Per operation it keeps only the
full model's machine choice ``m{k}`` and its process task ``pr{k}``, whose
fixed duration is the relaxed processing time (the minimum over admissible
worker counts).  Transport acts as a minimum-delay precedence, not an exact
offset, and per machine one no-overlap group holds the stage's process
tasks, each routed by its machine choice.  A per-stage cumulative with
capacity |machines of the stage| bounds how many of a stage's tasks overlap
while their machine choices are still open, which the routed groups cannot
see.  A group whose whole member tuple fits its capacity can never bind
and is not built.  There are no buffers, no waits and no worker choices:
the worker pool reaches the master only through the floor, whose ``lb8``
is the malleable worker-pool bound.  Every cut is installed as a
conditional bound over the full machine fingerprint, and the objective is
floored at the caller's proven lower bound, so the master's proven bound is
valid for the original problem.  Cuts only raise the objective and forbid
no assignment, so the caller's feasible schedule that warm-starts every
solve (``hffs.lbbd`` hands in ``model.insertion_schedule``) stays feasible
for the relaxation, and the master always returns an assignment.

The encoding is the full model's ``Encoding`` type and shares its transport
tables (``transport_tables``), its warm start (``schedule_to_assignment`` of
the caller's schedule, whose makespan ``solve_master`` also passes as the
horizon) and its machine decoding (``machine_map``), which yields the
solution's ``machine_of`` map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bounds import relaxed_times
from .engine import (
    ChoiceVar,
    ConditionalBound,
    ConstraintSet,
    Cumulative,
    Disjunctive,
    EngineModel,
    Member,
    Precedence,
    TaskVar,
    check_assignment,  # noqa: F401 -- looked up here by perfbench/tracer.py
    solve,
)
from .full_model import Encoding, machine_map, schedule_to_assignment, transport_tables
from .model import (
    Instance,
    Op,
    Schedule,
    serial_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
    validate_instance,
)


@dataclass(frozen=True, slots=True)
class MasterSolution:
    """Machine per operation plus the proven master bound."""

    machine_of: dict[Op, str]
    lower_bound: int
    status: str
    objective: int
    nodes: int
    wall_time: float


def build_master(
    inst: Instance,
    cuts: Iterable,
    lb_floor: int,
    *,
    horizon: int,
) -> Encoding:
    """Encode the relaxation with every task inside ``[0, horizon]``, which
    must be the makespan of a feasible schedule.  ``cuts`` need
    ``fingerprint`` (a tuple of ((job, stage), machine id) pairs over all
    operations) and ``zeta`` attributes."""
    ops = tuple(inst.ops())
    stage_machines = {s: inst.machines_of(s) for s in inst.stages}
    relaxed = relaxed_times(inst)

    tasks: dict[str, TaskVar] = {}
    choices: dict[str, ChoiceVar] = {}
    cs = ConstraintSet()
    machine_members: dict[str, list[Member]] = {s: [] for s in inst.stages}
    stage_members: dict[str, list[Member]] = {s: [] for s in inst.stages}
    last_task: dict[str, str] = {}

    machine_domain = {s: tuple(range(len(ms))) for s, ms in stage_machines.items()}
    for k, (j, s) in enumerate(ops):
        mc, pr = f"m{k}", f"pr{k}"
        choices[mc] = ChoiceVar(mc, machine_domain[s])
        tasks[pr] = TaskVar(pr, duration=relaxed[(j, s)], est=0, lct=horizon)
        machine_members[s].append(Member(pr, on=mc))
        stage_members[s].append(Member(pr))
        last_task[j] = pr

    for ka, kb, table in transport_tables(inst, ops, stage_machines, choices):
        cs.precedences.append(
            Precedence(f"pr{ka}", f"pr{kb}", table=(f"m{ka}", f"m{kb}", table))
        )

    families = {s: tuple(ms) for s, ms in machine_members.items()}
    for m, s in inst.machines.items():  # a stage's machines share its routed tuple
        if len(families[s]) > 1:  # a group whose members all fit can never bind
            cs.disjunctives.append(
                Disjunctive(f"mach:{m}", families[s], value=stage_machines[s].index(m)))
    for s in inst.stages:
        if len(stage_members[s]) > len(stage_machines[s]):
            cs.cumulatives.append(
                Cumulative(f"stage:{s}", len(stage_machines[s]),
                           tuple(stage_members[s]))
            )
    idx_of = {op: k for k, op in enumerate(ops)}
    for cut in cuts:
        terms = tuple((f"m{idx_of[op]}", stage_machines[op[1]].index(m))
                      for op, m in cut.fingerprint)
        cs.conditional_bounds.append(ConditionalBound(terms, cut.zeta))

    model = EngineModel(
        tasks=tasks,
        choices=choices,
        constraints=cs,
        objective_tasks=[last_task[j] for j in inst.jobs],
        objective_floor=lb_floor,
    )
    return Encoding(model=model, ops=ops, stage_machines=stage_machines)


def solve_master(
    inst: Instance,
    cuts: Iterable,
    lb_floor: int,
    *,
    start: Schedule,
    node_budget: int | None = None,
    deadline: float | None = None,
) -> MasterSolution:
    """Anytime master solve from ``start``, a feasible schedule: the hint,
    whose makespan is the horizon.  The returned bound is proven for the
    original problem, and the start gives an incumbent at every budget."""
    errors = validate_instance(inst)
    if errors:
        raise ValueError(f"invalid instance: {errors[0]}")
    enc = build_master(inst, cuts, lb_floor, horizon=start.makespan)
    result = solve(
        enc.model,
        node_budget=node_budget,
        deadline=deadline,
        hint=schedule_to_assignment(enc, start),
    )
    return MasterSolution(
        machine_of=machine_map(enc, result.incumbent),
        lower_bound=result.lower_bound,
        status=result.status,
        objective=int(result.objective),
        nodes=result.nodes,
        wall_time=result.wall_time,
    )

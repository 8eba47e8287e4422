"""Relaxed master model: machine assignment and sequencing under relaxed
durations, strengthened by lower bounds and accumulated logic cuts.

Per operation the master keeps only a machine choice and a single task whose
fixed duration is the relaxed processing time (the minimum over admissible
worker counts).  Transport acts as a minimum delay, not an exact offset, and
there are no buffers and no worker choices; a per-stage cumulative with
capacity |machines of the stage| and a global worker cumulative weighted by
each stage's minimum worker count are kept as redundant strength.  Every cut
is installed as a conditional bound over the full machine fingerprint, and
the objective is floored at the caller's proven lower bound, so the master's
proven bound is valid for the original problem.  Cuts only raise the
objective and forbid no assignment, so the serial assignment that
warm-starts every solve stays feasible and the master always returns one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engine import (
    Assignment,
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
from .model import Instance, Op, serial_schedule, validate_instance

Fingerprint = tuple[tuple[Op, str], ...]


@dataclass(frozen=True, slots=True)
class MasterSolution:
    """Machine sequence per job plus the proven master bound."""

    machine_seq: dict[str, tuple[str, ...]]
    lower_bound: int
    status: str
    objective: int
    nodes: int
    wall_time: float


@dataclass(frozen=True, slots=True)
class MasterEncoding:
    model: EngineModel
    ops: tuple[Op, ...]
    stage_machines: dict[str, tuple[str, ...]]


def relaxed_duration(inst: Instance, job: str, stage: str) -> int:
    return min(inst.proc_time[(job, stage, w)] for w in inst.worker_window(stage))


def _choice_fingerprint(
    enc: MasterEncoding, fingerprint: Fingerprint
) -> tuple[tuple[str, int], ...]:
    """Translate an (op -> machine id) fingerprint to engine choice terms."""
    idx_of = {op: k for k, op in enumerate(enc.ops)}
    terms = []
    for op, machine in fingerprint:
        k = idx_of[op]
        machs = enc.stage_machines[op[1]]
        terms.append((f"m{k}", machs.index(machine)))
    return tuple(terms)


def build_master(
    inst: Instance,
    cuts: Sequence,
    lb_floor: int,
    *,
    horizon: int | None = None,
) -> MasterEncoding:
    """Encode the relaxation.  ``cuts`` need ``fingerprint`` (a tuple of
    ((job, stage), machine id) pairs over all operations) and ``zeta``
    attributes."""
    if horizon is None:
        horizon = serial_schedule(inst).makespan
    ops = tuple(inst.ops())
    stage_machines = {s: inst.machines_of(s) for s in inst.stages}
    idx_of = {op: k for k, op in enumerate(ops)}

    tasks: dict[str, TaskVar] = {}
    choices: dict[str, ChoiceVar] = {}
    cs = ConstraintSet()
    machine_members: dict[str, list[Member]] = {m: [] for m in inst.machines}
    stage_members: dict[str, list[Member]] = {s: [] for s in inst.stages}
    worker_members: list[Member] = []
    last_task: dict[str, str] = {}

    for k, (j, s) in enumerate(ops):
        machs = stage_machines[s]
        mc = ChoiceVar(f"m{k}", tuple(range(len(machs))), kind="machine")
        choices[mc.id] = mc
        task = TaskVar(f"t{k}", duration=relaxed_duration(inst, j, s), est=0,
                       lct=horizon)
        tasks[task.id] = task
        for i, m in enumerate(machs):
            machine_members[m].append(Member(task.id, guard=(mc.id, i)))
        stage_members[s].append(Member(task.id))
        worker_members.append(Member(task.id, weight=inst.workers_min[s]))
        last_task[j] = task.id

    for j in inst.jobs:
        chain = inst.eligible_stages[j]
        for a, b in zip(chain, chain[1:]):
            ka, kb = idx_of[(j, a)], idx_of[(j, b)]
            table = {
                (ia, ib): inst.transport[(ma, mb)]
                for ia, ma in enumerate(stage_machines[a])
                for ib, mb in enumerate(stage_machines[b])
            }
            cs.precedences.append(
                Precedence(f"t{ka}", f"t{kb}", table=(f"m{ka}", f"m{kb}", table))
            )

    for m in inst.machines:
        if machine_members[m]:
            cs.disjunctives.append(Disjunctive(f"mach:{m}", tuple(machine_members[m])))
    for s in inst.stages:
        if stage_members[s]:
            cs.cumulatives.append(
                Cumulative(f"stage:{s}", len(stage_machines[s]),
                           tuple(stage_members[s]))
            )
    cs.cumulatives.append(
        Cumulative("workers", inst.workers_total, tuple(worker_members))
    )

    model = EngineModel(
        tasks=tasks,
        choices=choices,
        constraints=cs,
        objective_tasks=[last_task[j] for j in inst.jobs],
        objective_floor=lb_floor,
    )
    enc = MasterEncoding(model=model, ops=ops, stage_machines=stage_machines)
    for cut in cuts:
        cs.conditional_bounds.append(
            ConditionalBound(_choice_fingerprint(enc, cut.fingerprint), cut.zeta)
        )
    return enc


def _serial_hint(enc: MasterEncoding, inst: Instance) -> Assignment:
    base = serial_schedule(inst)
    choices: dict[str, int] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    for k, op in enumerate(enc.ops):
        _, s = op
        choices[f"m{k}"] = enc.stage_machines[s].index(base.machine_of[op])
        lo, hi = base.process[op]
        starts[f"t{k}"] = lo
        ends[f"t{k}"] = hi
    return Assignment(choices=choices, starts=starts, ends=ends)


def solve_master(
    inst: Instance,
    cuts: Sequence,
    lb_floor: int,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> MasterSolution:
    """Anytime master solve; the returned bound is proven for the original
    problem, and the serial warm start gives an incumbent at every budget."""
    errors = validate_instance(inst)
    if errors:
        raise ValueError(f"invalid instance: {errors[0]}")
    enc = build_master(inst, cuts, lb_floor)
    result = solve(
        enc.model,
        node_budget=node_budget,
        time_budget=time_budget,
        hint=_serial_hint(enc, inst),
    )
    machine_seq: dict[str, tuple[str, ...]] = {}
    for k, (j, s) in enumerate(enc.ops):
        m = enc.stage_machines[s][result.incumbent.choices[f"m{k}"]]
        machine_seq[j] = machine_seq.get(j, ()) + (m,)
    return MasterSolution(
        machine_seq=machine_seq,
        lower_bound=result.lower_bound,
        status=result.status,
        objective=int(result.objective),
        nodes=result.nodes,
        wall_time=result.wall_time,
    )

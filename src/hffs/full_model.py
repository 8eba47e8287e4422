"""Monolithic exact model: the whole problem flattened onto the engine.

Per operation (job, eligible stage) the encoding carries a machine choice, a
worker choice, and a wait/process/wait task triple chained by zero-delta
offsets; the chosen machine's process task is the operation's interval, so no
separate synchronisation layer is needed.  Machine-dependent transport deltas
between consecutive operations of a job are exact offsets on the surrounding
waits; since the waits are nonnegative and transport is at least 0, they also
order consecutive process tasks.  Per machine there is a no-overlap group
over process tasks and one entry and one exit buffer cumulative over the wait
tasks; a single global cumulative with worker-count weights caps crew usage.

A ``machine_of`` map pins every machine choice to one value.  The pinned
model is the decomposition's subproblem: the engine compiles its one-value
guards and transport tables away, so it searches exactly the model with
fixed machines.

The solver is warm-started from the serial baseline schedule, which also
bounds the horizon, and its objective floor is seeded from the bound module,
so a feasible incumbent exists at every budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import best_lb
from .engine import (
    Assignment,
    ChoiceVar,
    ConstraintSet,
    Cumulative,
    Disjunctive,
    EngineModel,
    Member,
    OffsetLink,
    SearchResult,
    TaskVar,
    solve,
)
from .model import (
    Instance,
    Op,
    Schedule,
    serial_schedule,
    validate_instance,
    validate_schedule,
)


@dataclass(frozen=True, slots=True)
class FullEncoding:
    """Engine model plus the indexing needed to decode incumbents.

    Task ids are ``wb{k}``/``pr{k}``/``wa{k}`` and choice ids ``m{k}``/``w{k}``
    where ``k`` is the operation's position in ``ops``; machine choice values
    are indices into ``stage_machines[stage]``.
    """

    model: EngineModel
    ops: tuple[Op, ...]
    stage_machines: dict[str, tuple[str, ...]]


def build_full(
    inst: Instance,
    *,
    horizon: int | None = None,
    lb_floor: int = 0,
    machine_of: dict[Op, str] | None = None,
) -> FullEncoding:
    """Encode the complete problem, or with ``machine_of`` (a machine per
    operation) the problem under that fixed assignment.  ``horizon``
    defaults to the serial baseline makespan under the same machines (a
    valid upper bound); ``lb_floor`` must be a proven lower bound of the
    encoded problem (0 is always safe)."""
    if horizon is None:
        horizon = serial_schedule(inst, machine_of).makespan
    ops = tuple(inst.ops())
    stage_machines = {s: inst.machines_of(s) for s in inst.stages}
    idx_of = {op: k for k, op in enumerate(ops)}

    tasks: dict[str, TaskVar] = {}
    choices: dict[str, ChoiceVar] = {}
    cs = ConstraintSet()
    proc_members: dict[str, list[Member]] = {m: [] for m in inst.machines}
    in_members: dict[str, list[Member]] = {m: [] for m in inst.machines}
    out_members: dict[str, list[Member]] = {m: [] for m in inst.machines}
    worker_members: list[Member] = []
    last_wa: dict[str, str] = {}

    for k, (j, s) in enumerate(ops):
        machs = stage_machines[s]
        pinned = machine_of is not None
        values = (machs.index(machine_of[(j, s)]),) if pinned else tuple(range(len(machs)))
        mc = ChoiceVar(f"m{k}", values, kind="machine")
        window = tuple(inst.worker_window(s))
        wc = ChoiceVar(f"w{k}", window, kind="worker")
        choices[mc.id] = mc
        choices[wc.id] = wc
        menu = {w: inst.proc_time[(j, s, w)] for w in window}
        wb = TaskVar(f"wb{k}", elastic=True, est=0, lct=horizon)
        pr = TaskVar(f"pr{k}", duration_menu=(wc.id, menu), est=0, lct=horizon)
        wa = TaskVar(f"wa{k}", elastic=True, est=0, lct=horizon)
        tasks[wb.id] = wb
        tasks[pr.id] = pr
        tasks[wa.id] = wa
        cs.offsets.append(OffsetLink(wb.id, pr.id, 0))
        cs.offsets.append(OffsetLink(pr.id, wa.id, 0))
        for i in mc.values:
            m = machs[i]
            proc_members[m].append(Member(pr.id, guard=(mc.id, i)))
            in_members[m].append(Member(wb.id, guard=(mc.id, i)))
            out_members[m].append(Member(wa.id, guard=(mc.id, i)))
        worker_members.append(Member(pr.id, weight_choice=wc.id))
        last_wa[j] = wa.id

    for j in inst.jobs:
        chain = inst.eligible_stages[j]
        for a, b in zip(chain, chain[1:]):
            ka, kb = idx_of[(j, a)], idx_of[(j, b)]
            table = {
                (ia, ib): inst.transport[(stage_machines[a][ia], stage_machines[b][ib])]
                for ia in choices[f"m{ka}"].values
                for ib in choices[f"m{kb}"].values
            }
            cs.offsets.append(
                OffsetLink(f"wa{ka}", f"wb{kb}", table=(f"m{ka}", f"m{kb}", table))
            )

    for m in inst.machines:
        if proc_members[m]:
            cs.disjunctives.append(Disjunctive(f"mach:{m}", tuple(proc_members[m])))
            cs.cumulatives.append(
                Cumulative(f"in:{m}", inst.buffer_in[m], tuple(in_members[m]))
            )
            cs.cumulatives.append(
                Cumulative(f"out:{m}", inst.buffer_out[m], tuple(out_members[m]))
            )
    cs.cumulatives.append(
        Cumulative("workers", inst.workers_total, tuple(worker_members))
    )

    model = EngineModel(
        tasks=tasks,
        choices=choices,
        constraints=cs,
        objective_tasks=[last_wa[j] for j in inst.jobs],
        objective_floor=lb_floor,
    )
    return FullEncoding(model=model, ops=ops, stage_machines=stage_machines)


def schedule_to_assignment(enc: FullEncoding, sched: Schedule) -> Assignment:
    """Translate a Schedule into the encoding's engine assignment."""
    choices: dict[str, int] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    for k, op in enumerate(enc.ops):
        _, s = op
        choices[f"m{k}"] = enc.stage_machines[s].index(sched.machine_of[op])
        choices[f"w{k}"] = sched.workers_of[op]
        for prefix, table in (
            ("wb", sched.wait_before),
            ("pr", sched.process),
            ("wa", sched.wait_after),
        ):
            lo, hi = table[op]
            starts[f"{prefix}{k}"] = lo
            ends[f"{prefix}{k}"] = hi
    return Assignment(choices=choices, starts=starts, ends=ends)


def assignment_to_schedule(enc: FullEncoding, asg: Assignment) -> Schedule:
    """Decode an engine assignment back into a Schedule."""
    machine_of: dict[Op, str] = {}
    workers_of: dict[Op, int] = {}
    wb: dict[Op, tuple[int, int]] = {}
    pr: dict[Op, tuple[int, int]] = {}
    wa: dict[Op, tuple[int, int]] = {}
    for k, op in enumerate(enc.ops):
        _, s = op
        machine_of[op] = enc.stage_machines[s][asg.choices[f"m{k}"]]
        workers_of[op] = asg.choices[f"w{k}"]
        wb[op] = (asg.starts[f"wb{k}"], asg.ends[f"wb{k}"])
        pr[op] = (asg.starts[f"pr{k}"], asg.ends[f"pr{k}"])
        wa[op] = (asg.starts[f"wa{k}"], asg.ends[f"wa{k}"])
    makespan = max(end for _, end in wa.values())
    return Schedule(machine_of, workers_of, wb, pr, wa, makespan)


def incumbent_schedule(
    inst: Instance, enc: FullEncoding, result: SearchResult
) -> Schedule | None:
    """Decode the search's incumbent and re-check it with the independent
    validator; None when the search found no incumbent."""
    if result.incumbent is None:
        return None
    schedule = assignment_to_schedule(enc, result.incumbent)
    bad = validate_schedule(inst, schedule)
    if bad:
        raise RuntimeError(f"solver produced an invalid schedule: {bad[0]}")
    if result.objective != schedule.makespan:
        raise RuntimeError("objective exceeds the incumbent makespan: an unsound floor")
    return schedule


def solve_full(
    inst: Instance,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    lb_floor: int | None = None,
) -> tuple[SearchResult, Schedule | None]:
    """Solve the monolithic model; the returned schedule (when an incumbent
    exists, which the serial warm start guarantees) has passed the full
    validator.  ``lb_floor`` defaults to the bound module's best value."""
    errors = validate_instance(inst)
    if errors:
        raise ValueError(f"invalid instance: {errors[0]}")
    if lb_floor is None:
        lb_floor = best_lb(inst).best
    base = serial_schedule(inst)
    enc = build_full(inst, horizon=base.makespan, lb_floor=lb_floor)
    result = solve(
        enc.model,
        node_budget=node_budget,
        time_budget=time_budget,
        hint=schedule_to_assignment(enc, base),
    )
    return result, incumbent_schedule(inst, enc, result)

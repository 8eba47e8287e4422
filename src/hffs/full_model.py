"""Monolithic exact model: the whole problem flattened onto the engine.

Per operation (job, eligible stage) the encoding carries a machine choice, a
worker choice and a process task, the operation's interval on the chosen
machine.  Between two consecutive operations of a job, the wait after the
first and the wait before the second are chained to the process tasks by
zero-delta offsets and to each other by the machine-dependent transport
delta.  Per machine there is a no-overlap group over process tasks and an
entry and an exit buffer cumulative over the waits; a global cumulative with
worker-count weights caps crew usage.  A stage's machine groups share one
member tuple per kind, each member routed by its operation's machine choice
(``Member.on``); a group whose whole tuple fits its capacity (one process
task, or no more waits than buffer slots) can never bind and is not built.

A job's outer waits (before its first operation, after its last) are not
encoded and decode as zero length: shrinking either to zero at its process
task breaks no rule (a zero-length wait occupies no buffer, neither meets a
transport, the makespan cannot grow), so the model keeps an optimal schedule
and its proven bounds, and the decomposition's cuts, hold for the problem.

A ``machine_of`` map pins every machine choice to one value.  The pinned
model is the decomposition's subproblem: the engine compiles its one-value
routes and transport tables away, so it searches exactly the model with
fixed machines.

``solve_full`` warm-starts the search from its caller's feasible schedule
(``hffs solve`` hands in ``model.insertion_schedule``), whose makespan it
also passes as the horizon, so a feasible incumbent exists at every budget,
and floors the objective at its caller's proven bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bounds import best_lb  # noqa: F401 -- looked up here by perfbench/tracer.py
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
    check_machine_map,
    makespan_of,
    serial_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
    validate_instance,
    validate_schedule,
)


@dataclass(frozen=True, slots=True)
class Encoding:
    """Engine model plus the indexing needed to decode incumbents, for the
    full model, the subproblem and the master alike.

    Task ids are ``wb{k}``/``pr{k}``/``wa{k}`` and choice ids ``m{k}``/``w{k}``
    where ``k`` is the operation's position in ``ops``; machine choice values
    are indices into ``stage_machines[stage]``; waits exist only between two
    operations of a job.  The master has only the ``pr{k}`` tasks and the
    ``m{k}`` choices.
    """

    model: EngineModel
    ops: tuple[Op, ...]
    stage_machines: dict[str, tuple[str, ...]]


def build_full(
    inst: Instance,
    *,
    horizon: int,
    lb_floor: int = 0,
    machine_of: dict[Op, str] | None = None,
) -> Encoding:
    """Encode the complete problem, or with ``machine_of`` (a machine per
    operation) the problem under that fixed assignment; a ``machine_of``
    that does not give every operation a machine of its stage is a
    ValueError.  ``horizon`` must be the makespan of a feasible schedule of
    the encoded problem (the caller's warm start); ``lb_floor`` must be a
    proven lower bound of it (0 is always safe)."""
    if machine_of is not None:
        check_machine_map(inst, machine_of)
    ops = tuple(inst.ops())
    stage_machines = {s: inst.machines_of(s) for s in inst.stages}

    tasks: dict[str, TaskVar] = {}
    choices: dict[str, ChoiceVar] = {}  # every m{k}, then every w{k}: the branching order
    machine_domain = {s: tuple(range(len(ms))) for s, ms in stage_machines.items()}
    worker_domain = {s: tuple(inst.worker_window(s)) for s in inst.stages}
    for k, (j, s) in enumerate(ops):
        if machine_of is None:
            values = machine_domain[s]
        else:
            values = (stage_machines[s].index(machine_of[(j, s)]),)
        choices[f"m{k}"] = ChoiceVar(f"m{k}", values)
    for k, (j, s) in enumerate(ops):
        choices[f"w{k}"] = ChoiceVar(f"w{k}", worker_domain[s])
    cs = ConstraintSet()
    proc_members: dict[str, list[Member]] = {s: [] for s in inst.stages}
    in_members: dict[str, list[Member]] = {s: [] for s in inst.stages}
    out_members: dict[str, list[Member]] = {s: [] for s in inst.stages}
    worker_members: list[Member] = []
    last_pr: dict[str, str] = {}

    proc_time = inst.proc_time
    for k, (j, s) in enumerate(ops):
        mc, wc, pr = f"m{k}", f"w{k}", f"pr{k}"
        menu = {w: proc_time[(j, s, w)] for w in worker_domain[s]}
        chain = inst.eligible_stages[j]
        if s != chain[0]:  # only a wait between two operations can be nonzero
            wb = f"wb{k}"
            tasks[wb] = TaskVar(wb, elastic=True, est=0, lct=horizon)
            cs.offsets.append(OffsetLink(wb, pr, 0))
            in_members[s].append(Member(wb, on=mc))
        tasks[pr] = TaskVar(pr, duration_menu=(wc, menu), est=0, lct=horizon)
        if s != chain[-1]:
            wa = f"wa{k}"
            tasks[wa] = TaskVar(wa, elastic=True, est=0, lct=horizon)
            cs.offsets.append(OffsetLink(pr, wa, 0))
            out_members[s].append(Member(wa, on=mc))
        proc_members[s].append(Member(pr, on=mc))
        worker_members.append(Member(pr, weight_choice=wc))
        last_pr[j] = pr

    for ka, kb, table in transport_tables(inst, ops, stage_machines, choices):
        cs.offsets.append(
            OffsetLink(f"wa{ka}", f"wb{kb}", table=(f"m{ka}", f"m{kb}", table))
        )

    families = {  # one member tuple per stage and kind, shared by its machines
        s: (tuple(proc_members[s]), tuple(in_members[s]), tuple(out_members[s]))
        for s in inst.stages
    }
    used = inst.machines if machine_of is None else set(machine_of.values())
    for m, s in inst.machines.items():
        if m in used:  # a pinned machine may get no operation
            procs, ins, outs = families[s]
            i = stage_machines[s].index(m)
            if len(procs) > 1:  # a group whose members all fit can never bind
                cs.disjunctives.append(Disjunctive(f"mach:{m}", procs, value=i))
            if len(ins) > inst.buffer_in[m]:
                cs.cumulatives.append(Cumulative(f"in:{m}", inst.buffer_in[m], ins, value=i))
            if len(outs) > inst.buffer_out[m]:
                cs.cumulatives.append(Cumulative(f"out:{m}", inst.buffer_out[m], outs, value=i))
    cs.cumulatives.append(
        Cumulative("workers", inst.workers_total, tuple(worker_members))
    )

    model = EngineModel(
        tasks=tasks,
        choices=choices,
        constraints=cs,
        objective_tasks=[last_pr[j] for j in inst.jobs],
        objective_floor=lb_floor,
    )
    return Encoding(model=model, ops=ops, stage_machines=stage_machines)


def transport_tables(
    inst: Instance,
    ops: tuple[Op, ...],
    stage_machines: dict[str, tuple[str, ...]],
    choices: dict[str, ChoiceVar],
) -> list[tuple[int, int, dict[tuple[int, int], int]]]:
    """(ka, kb, table) for every pair of consecutive operations of a job, by
    position in ``ops``: the transport time per pair of values of the choices
    ``m{ka}`` and ``m{kb}``.  One table per stage pair and machine domains,
    shared by every job that crosses it; the engine only reads tables."""
    idx_of = {op: k for k, op in enumerate(ops)}
    tables: dict[tuple, dict[tuple[int, int], int]] = {}
    links = []
    for j in inst.jobs:
        chain = inst.eligible_stages[j]
        for a, b in zip(chain, chain[1:]):
            ka, kb = idx_of[(j, a)], idx_of[(j, b)]
            da, db = choices[f"m{ka}"].values, choices[f"m{kb}"].values
            table = tables.get((a, b, da, db))
            if table is None:
                table = tables[(a, b, da, db)] = {
                    (ia, ib): inst.transport[(stage_machines[a][ia], stage_machines[b][ib])]
                    for ia in da
                    for ib in db
                }
            links.append((ka, kb, table))
    return links


def schedule_to_assignment(enc: Encoding, sched: Schedule) -> Assignment:
    """Translate a Schedule into the encoding's engine assignment, reading
    the operation from each of the encoding's own ids (see ``Encoding``), so
    only its own variables are set: the master has no worker choices and no
    waits.  A fixed-duration task, the master's relaxed process task, starts
    where the schedule's process does and keeps its own duration, which is
    at most the scheduled one, so it ends no later."""
    choices: dict[str, int] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    tables = {"wb": sched.wait_before, "pr": sched.process, "wa": sched.wait_after}
    ops, stage_machines = enc.ops, enc.stage_machines
    for cid in enc.model.choices:  # m{k} or w{k}
        op = ops[int(cid[1:])]
        if cid[0] == "m":
            choices[cid] = stage_machines[op[1]].index(sched.machine_of[op])
        else:
            choices[cid] = sched.workers_of[op]
    for tid, task in enc.model.tasks.items():  # wb{k}, pr{k} or wa{k}
        lo, hi = tables[tid[:2]][ops[int(tid[2:])]]
        starts[tid], ends[tid] = lo, hi if task.duration is None else lo + task.duration
    return Assignment(choices=choices, starts=starts, ends=ends)


def machine_map(enc: Encoding, asg: Assignment) -> dict[Op, str]:
    """The machine that each operation's choice selects in ``asg``."""
    return {
        op: enc.stage_machines[op[1]][asg.choices[f"m{k}"]]
        for k, op in enumerate(enc.ops)
    }


def assignment_to_schedule(enc: Encoding, asg: Assignment) -> Schedule:
    """Decode an engine assignment of the full model back into a Schedule;
    the waits the encoding omits become zero-length intervals."""
    workers_of: dict[Op, int] = {}
    wb: dict[Op, tuple[int, int]] = {}
    pr: dict[Op, tuple[int, int]] = {}
    wa: dict[Op, tuple[int, int]] = {}
    starts, ends = asg.starts, asg.ends
    for k, op in enumerate(enc.ops):
        workers_of[op] = asg.choices[f"w{k}"]
        lo, hi = pr[op] = (starts[f"pr{k}"], ends[f"pr{k}"])
        wb[op] = (starts.get(f"wb{k}", lo), ends.get(f"wb{k}", lo))
        wa[op] = (starts.get(f"wa{k}", hi), ends.get(f"wa{k}", hi))
    sched = Schedule(machine_map(enc, asg), workers_of, wb, pr, wa, 0)
    return replace(sched, makespan=makespan_of(sched))


def incumbent_schedule(
    inst: Instance, enc: Encoding, result: SearchResult
) -> Schedule:
    """Decode the search's incumbent (the warm start guarantees one) and
    re-check it with the independent validator."""
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
    start: Schedule,
    lb_floor: int,
    node_budget: int | None = None,
    deadline: float | None = None,
) -> tuple[SearchResult, Schedule]:
    """Solve the monolithic model above ``lb_floor``, a proven lower bound,
    from ``start``, a feasible schedule: the search's hint, whose makespan
    is its horizon.  The returned schedule (the start guarantees an
    incumbent) has passed the full validator.  ``deadline`` is a
    ``time.perf_counter()`` reading (see ``engine.solve``); the encoding runs
    before the search and spends its time."""
    errors = validate_instance(inst)
    if errors:
        raise ValueError(f"invalid instance: {errors[0]}")
    enc = build_full(inst, horizon=start.makespan, lb_floor=lb_floor)
    result = solve(
        enc.model,
        node_budget=node_budget,
        deadline=deadline,
        hint=schedule_to_assignment(enc, start),
    )
    result.paused = None  # never continued: free the search before decoding
    return result, incumbent_schedule(inst, enc, result)

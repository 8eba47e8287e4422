"""Logic-based Benders decomposition orchestrator.

The loop seeds the global lower bound from the bound module, then alternates:
solve the relaxed master for a machine assignment and a proven bound; if the
bound meets the incumbent upper bound, stop; otherwise solve the restricted
subproblem under that assignment for a feasible schedule.  A subproblem
solved to proven optimality installs an optimality cut (full machine
fingerprint, objective at least zeta); a subproblem that only hits its node
budget updates the upper bound and installs NO cut (a cut from a non-optimal
incumbent could overconstrain).  Its search is kept, paused, and the next
iteration continues it to twice the node budget instead of restarting it.
That iteration also keeps the master solution: no cut was added, so the
master's model differs only in its floor, which the solution's own bound
already meets, and a re-solve under the same node budget would return the
same machines, objective, status and bound.  The continued search needs no
change for the raised floor it is passed (``hffs.subproblem`` proves it).
The loop holds at most one paused search and lets it go, with its result,
once a cut is installed or the loop ends.  Node counts are the work done: a
kept master counts 0 nodes and a continued subproblem the nodes it searched
in that iteration.
Only optimality cuts are needed (Hooker, "Planning and scheduling by logic-based
Benders decomposition", Oper. Res. 55(3), 2007): ``model.insertion_schedule``
under any machine assignment is feasible and warm-starts every fresh
subproblem, so no subproblem is infeasible.  Every master starts from the
run's one insertion schedule, built before the first, and so does a fresh
subproblem whose master kept its machines.  That schedule is also the run's
first upper bound and schedule: a run whose seed bound meets it returns it
after no iteration, and a master whose bound meets it skips its subproblem.
A subproblem schedule of equal makespan, decoded and validated, replaces it,
so the start itself is validated only when the run returns it.
A master solution whose fingerprint already has a cut skips its subproblem,
which was solved and whose zeta the upper bound already holds: the
iteration records the cut's zeta and 0 subproblem nodes, and doubles the
master's node budget.
Time: ``Budgets.deadline`` is one ``time.perf_counter()`` reading shared by
every layer.  Each master stops at the midpoint between its start and the
deadline, and the subproblem runs to the deadline, so a subproblem keeps
about half the time left (Hooker's scheme needs both to run in each
iteration).  The deadline is the one time budget; only node budgets
double.  It is checked from the second iteration on: as the engine always
propagates its root, the first iteration runs its master and subproblem
even past the deadline, so a run always returns a schedule.
Termination: bound meets upper bound (optimal), or iteration budget or
deadline (feasible with gap).  Under node budgets alone the loop ends
optimal: each iteration installs a cut on a new fingerprint (there are
finitely many) or doubles the subproblem's or the master's budget, a search
with a large enough budget finishes, and a finished master that returns a
fingerprint with a cut proves a bound of at least that cut's zeta, which
meets the upper bound.

Determinism: with pure node budgets the run never reads the clock for
decisions and the serialized RunLog omits wall-clock fields, so identical
(instance, budgets) give byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import asdict, dataclass, field, fields

from .bounds import best_lb
from .master import MasterSolution, solve_master
from .model import (
    Instance,
    Op,
    Schedule,
    insertion_schedule,
    schedule_to_dict,
    validate_instance,
    validate_schedule,
)
from .subproblem import SubResult, solve_sub

Fingerprint = tuple[tuple[Op, str], ...]


@dataclass(frozen=True, slots=True)
class BendersCut:
    """Optimality cut: if every operation repeats this exact machine, the
    makespan is at least zeta."""

    fingerprint: Fingerprint
    zeta: int

    def __post_init__(self) -> None:
        if self.zeta < 1:
            raise ValueError("cut bound must be at least 1")
        if not self.fingerprint:
            raise ValueError("cut fingerprint must cover the operations")


@dataclass(frozen=True, slots=True)
class Budgets:
    master_nodes: int | None = None
    sub_nodes: int | None = None
    deadline: float | None = None  # a time.perf_counter() reading
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        """A node budget doubles, so it must be able to grow; an iteration
        budget must allow one iteration."""
        for nodes in (self.master_nodes, self.sub_nodes):
            if nodes is not None and nodes < 1:
                raise ValueError("node budgets must be at least 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("the iteration budget must be at least 1")

    @property
    def deterministic(self) -> bool:
        return self.deadline is None


@dataclass(slots=True)
class IterationRecord:
    k: int
    master_lb: int
    jstar_hash: str
    zeta: int | None
    lb: int
    ub: int
    master_nodes: int
    sub_nodes: int
    wall_time: float | None


@dataclass(slots=True)
class RunLog:
    best_lb: int
    lb: int
    ub: int
    status: str
    iterations: list[IterationRecord] = field(default_factory=list)
    nodes: int = 0
    wall_time: float | None = None
    schedule: Schedule | None = None

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["iterations"] = [asdict(it) for it in self.iterations]
        if self.schedule is not None:
            payload["schedule"] = schedule_to_dict(self.schedule)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint_of(inst: Instance, msol: MasterSolution) -> Fingerprint:
    """Canonical (op, machine) tuple over all operations in instance order."""
    return tuple((op, msol.machine_of[op]) for op in inst.ops())


def _hash_fingerprint(fp: Fingerprint) -> str:
    blob = json.dumps([[j, s, m] for (j, s), m in fp], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def gaps(best_lb_value: float, lb: float, ub: float) -> tuple[float, float]:
    """Original gap 100(ub-lb)/ub and real gap 100(ub-max(best_lb,lb))/ub."""
    if ub <= 0:
        raise ValueError("upper bound must be positive")
    original = 100.0 * (ub - lb) / ub
    real = 100.0 * (ub - max(best_lb_value, lb)) / ub
    return original, real


def run(inst: Instance, budgets: Budgets = Budgets()) -> RunLog:
    """Run the decomposition to optimality or budget; see the module docstring
    for the cut policy.  The returned log carries the best validated schedule."""
    errors = validate_instance(inst)
    if errors:
        raise ValueError(f"invalid instance: {errors[0]}")
    t0 = _time.perf_counter()
    deterministic, deadline = budgets.deterministic, budgets.deadline
    seed_lb = best_lb(inst).best
    start = insertion_schedule(inst)  # every master's hint and horizon
    lb = seed_lb
    ub, best_sched = start.makespan, start  # the first upper bound
    cuts: dict[Fingerprint, BendersCut] = {}
    iterations: list[IterationRecord] = []
    master_budget, sub_nodes = budgets.master_nodes, budgets.sub_nodes
    total_nodes = 0
    k = 0
    held: SubResult | None = None  # paused at its budget; msol is its master's

    while True:
        if lb >= ub:
            status = "optimal"
            break
        if (budgets.max_iterations is not None and k >= budgets.max_iterations) or (
            k > 0 and deadline is not None and _time.perf_counter() >= deadline
        ):
            status = "feasible"
            break
        k += 1
        if held is None:
            msol = solve_master(
                inst,
                cuts.values(),
                lb,
                start=start,
                node_budget=master_budget,
                deadline=None if deadline is None else (_time.perf_counter() + deadline) / 2,
            )
            master_nodes, master_wall = msol.nodes, msol.wall_time
        else:
            master_nodes, master_wall = 0, 0.0  # no cut since: the same solution
        lb = max(lb, msol.lower_bound)
        fp = fingerprint_of(inst, msol)
        zeta, nodes, wall = None, 0, 0.0
        if lb >= ub:
            pass  # proven by the master: no subproblem
        elif fp in cuts:  # solved already: only a larger master budget moves on
            zeta = cuts[fp].zeta
            if master_budget is not None:
                master_budget *= 2
        else:
            if held is not None:
                sub_start = None  # the paused search continues
            elif msol.machine_of == start.machine_of:
                sub_start = start  # the master kept the run's machines
            else:
                sub_start = insertion_schedule(inst, msol.machine_of)
            sres = solve_sub(
                inst,
                msol,
                start=sub_start,
                node_budget=sub_nodes,
                deadline=deadline,
                lb_floor=lb,
                paused=held,
            )
            held = sres if sres.paused is not None else None
            zeta, nodes, wall = sres.zeta, sres.nodes, sres.wall_time
            if zeta < ub or zeta == ub and best_sched is start:  # a tie: the validated one
                ub = zeta
                best_sched = sres.schedule
            if sres.status == "optimal":
                cuts[fp] = BendersCut(fingerprint=fp, zeta=zeta)
            elif sub_nodes is not None:
                sub_nodes *= 2  # incumbent kept, cut withheld, search continued
        total_nodes += master_nodes + nodes
        iterations.append(
            IterationRecord(
                k, msol.lower_bound, _hash_fingerprint(fp), zeta, lb, ub,
                master_nodes, nodes, None if deterministic else master_wall + wall,
            )
        )
    if best_sched is start:  # no subproblem matched it: check it as they were checked
        bad = validate_schedule(inst, start)
        if bad:
            raise RuntimeError(f"the insertion start is invalid: {bad[0]}")
    wall_time = None if deterministic else _time.perf_counter() - t0
    return RunLog(seed_lb, lb, ub, status, iterations, total_nodes, wall_time, best_sched)

"""Logic-based Benders decomposition orchestrator.

The loop seeds the global lower bound from the bound module, then alternates:
solve the relaxed master for a machine assignment and a proven bound; if the
bound meets the incumbent upper bound, stop; otherwise solve the restricted
subproblem under that assignment for a feasible schedule.  A subproblem
solved to proven optimality installs an optimality cut (full machine
fingerprint, objective at least zeta); a subproblem that only times out
updates the upper bound, installs NO cut (a cut from a non-optimal incumbent
could overconstrain), and doubles the subproblem node budget.  Only
optimality cuts are needed (Hooker, "Planning and scheduling by logic-based
Benders decomposition", Oper. Res. 55(3), 2007): the serial schedule under
any machine assignment is feasible and warm-starts every subproblem, so no
subproblem is infeasible.  Termination: bound meets upper bound (optimal),
or iteration/time budget (feasible with gap).

Determinism: with pure node budgets the run never reads the clock for
decisions and the serialized RunLog omits wall-clock fields, so identical
(instance, budgets) give byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import dataclass, field

from .bounds import best_lb
from .master import MasterSolution, solve_master
from .model import Instance, Op, Schedule, schedule_to_json, validate_instance
from .subproblem import solve_sub

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
    master_time: float | None = None
    sub_nodes: int | None = None
    sub_time: float | None = None
    total_time: float | None = None
    max_iterations: int | None = None

    @property
    def deterministic(self) -> bool:
        return (
            self.master_time is None
            and self.sub_time is None
            and self.total_time is None
        )


@dataclass(slots=True)
class IterationRecord:
    k: int
    master_lb: int
    jstar_hash: str
    zeta: int | None
    lb: int
    ub: int | None
    master_nodes: int
    sub_nodes: int
    wall_time: float | None


@dataclass(slots=True)
class RunLog:
    best_lb: int
    lb: int
    ub: int | None
    status: str
    iterations: list[IterationRecord] = field(default_factory=list)
    nodes: int = 0
    wall_time: float | None = None
    schedule: Schedule | None = None

    def to_json(self) -> str:
        payload = {
            "best_lb": self.best_lb,
            "lb": self.lb,
            "ub": self.ub,
            "status": self.status,
            "nodes": self.nodes,
            "wall_time": self.wall_time,
            "iterations": [
                {
                    "k": it.k,
                    "master_lb": it.master_lb,
                    "jstar_hash": it.jstar_hash,
                    "zeta": it.zeta,
                    "lb": it.lb,
                    "ub": it.ub,
                    "master_nodes": it.master_nodes,
                    "sub_nodes": it.sub_nodes,
                    "wall_time": it.wall_time,
                }
                for it in self.iterations
            ],
            "schedule": (
                None if self.schedule is None
                else json.loads(schedule_to_json(self.schedule))
            ),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint_of(inst: Instance, msol: MasterSolution) -> Fingerprint:
    """Canonical (op, machine) tuple over all operations in instance order."""
    pairs = []
    for j in inst.jobs:
        for s, m in zip(inst.eligible_stages[j], msol.machine_seq[j]):
            pairs.append(((j, s), m))
    return tuple(pairs)


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
    deterministic = budgets.deterministic

    def remaining() -> float | None:
        if budgets.total_time is None:
            return None
        return budgets.total_time - (_time.perf_counter() - t0)

    def clip(limit: float | None) -> float | None:
        rem = remaining()
        if limit is None:
            return rem
        if rem is None:
            return limit
        return min(limit, rem)

    seed_lb = best_lb(inst).best
    lb = seed_lb
    ub: int | None = None
    best_sched: Schedule | None = None
    cuts: list[BendersCut] = []
    known_cut_fps: set[Fingerprint] = set()
    log = RunLog(best_lb=seed_lb, lb=lb, ub=None, status="unknown")
    sub_nodes = budgets.sub_nodes
    total_nodes = 0
    status = "feasible"
    k = 0

    while True:
        if budgets.max_iterations is not None and k >= budgets.max_iterations:
            status = "feasible" if ub is not None else "unknown"
            break
        rem = remaining()
        if rem is not None and rem <= 0:
            status = "feasible" if ub is not None else "unknown"
            break
        k += 1
        msol = solve_master(
            inst,
            cuts,
            lb,
            node_budget=budgets.master_nodes,
            time_budget=clip(budgets.master_time),
        )
        total_nodes += msol.nodes
        lb = max(lb, msol.lower_bound)
        fp = fingerprint_of(inst, msol)
        if ub is not None and lb >= ub:
            log.iterations.append(
                IterationRecord(
                    k, msol.lower_bound, _hash_fingerprint(fp), None, lb, ub,
                    msol.nodes, 0, None if deterministic else msol.wall_time,
                )
            )
            status = "optimal"
            break
        sres = solve_sub(
            inst,
            msol,
            node_budget=sub_nodes,
            time_budget=clip(budgets.sub_time),
            lb_floor=lb,
        )
        total_nodes += sres.nodes
        if sres.zeta is not None and (ub is None or sres.zeta < ub):
            ub = sres.zeta
            best_sched = sres.schedule
        if sres.status == "optimal":
            if fp not in known_cut_fps:
                cuts.append(BendersCut(fingerprint=fp, zeta=sres.zeta))
                known_cut_fps.add(fp)
        elif sub_nodes is not None:
            sub_nodes *= 2  # incumbent kept, cut withheld, budget doubled
        log.iterations.append(
            IterationRecord(
                k, msol.lower_bound, _hash_fingerprint(fp), sres.zeta, lb, ub,
                msol.nodes, sres.nodes,
                None if deterministic else msol.wall_time + sres.wall_time,
            )
        )
        if ub is not None and lb >= ub:
            status = "optimal"
            break

    log.lb = lb
    log.ub = ub
    log.status = status
    log.nodes = total_nodes
    log.wall_time = None if deterministic else _time.perf_counter() - t0
    log.schedule = best_sched
    return log

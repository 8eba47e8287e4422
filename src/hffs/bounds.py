"""Lower bounds on the optimal makespan.

Eight bounds are computed from different relaxations:

- lb1: per-stage load spread evenly over the stage's machines;
- lb2: per-job chain length (processing minima plus the true shortest
  machine-to-machine transport path through the job's eligible stages);
- lb3: per-stage load plus the earliest possible arrival at that stage;
- lb4..lb7: two-stage bounds over consecutive stage pairs, adapted from the
  classic parallel-machine flowshop bounds of Lee & Vairaktarakis;
- lb8: the malleable-scheduling relaxation in which the worker pool is the
  only resource and fractional worker-time may be balanced perfectly.

All bounds use relaxed durations (the minimum over admissible worker counts)
where a duration is needed, which keeps every bound valid regardless of the
worker choices an optimal schedule makes.  Fractional values are rounded up:
with integral data the optimal makespan is integral.

For the pair bounds, jobs are sorted on the stage of the pair that has more
machines and the sum is divided by that machine count; the mirrored branch
(second stage richer) is the time-reversal image of the first.  Validity of
the whole family is additionally enforced by a brute-force suite in the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import Instance, Op


@dataclass(frozen=True, slots=True)
class BoundReport:
    """All eight bounds, their maximum, and the intermediate tables."""

    lb1: int
    lb2: int
    lb3: int
    lb4: int | None
    lb5: int | None
    lb6: int | None
    lb7: int | None
    lb8: int
    best: int
    relaxed_times: dict[Op, int]
    transport_min: dict[str, int]
    per_stage_head: dict[Op, tuple[int, int]]

    def values(self) -> dict[str, int | None]:
        return {
            "lb1": self.lb1, "lb2": self.lb2, "lb3": self.lb3, "lb4": self.lb4,
            "lb5": self.lb5, "lb6": self.lb6, "lb7": self.lb7, "lb8": self.lb8,
        }

    def to_json(self) -> str:
        doc = dict(self.values())
        doc["best"] = self.best
        doc["relaxed_times"] = {f"{j}|{s}": p for (j, s), p in self.relaxed_times.items()}
        doc["transport_min"] = dict(self.transport_min)
        doc["per_stage_head"] = {
            f"{j}|{s}": list(head) for (j, s), head in self.per_stage_head.items()
        }
        return json.dumps(doc, indent=2)


def relaxed_times(inst: Instance) -> dict[Op, int]:
    """Minimum processing time over admissible worker counts, per operation."""
    return {
        (j, s): min(inst.proc_time[(j, s, w)] for w in inst.worker_window(s))
        for j in inst.jobs
        for s in inst.eligible_stages[j]
    }


def _transport_prefix(inst: Instance, job: str) -> dict[str, int]:
    """Cheapest total transport from the job's first eligible stage up to each
    eligible stage, minimised over machine choices (layered shortest path)."""
    elig = inst.eligible_stages[job]
    best: dict[str, int] = {elig[0]: 0}
    layer = {m: 0 for m in inst.machines_of(elig[0])}
    for prev, cur in zip(elig, elig[1:]):
        nxt: dict[str, int] = {}
        for n in inst.machines_of(cur):
            costs = []
            for m, acc in layer.items():
                t = inst.transport.get((m, n))
                if t is None:
                    raise ValueError(f"missing transport entry for machine pair {m} -> {n}")
                costs.append(acc + t)
            nxt[n] = min(costs)
        layer = nxt
        best[cur] = min(layer.values())
    return best


def shortest_transport(inst: Instance, job: str) -> int:
    """Cost of the cheapest machine path through the job's eligible stages."""
    return _transport_prefix(inst, job)[inst.eligible_stages[job][-1]]


def lb1_stage_load(inst: Instance) -> int:
    """Max over stages of the stage's total relaxed load spread over its machines."""
    return _lb1(inst, relaxed_times(inst))


def _lb1(inst: Instance, pbar: dict[Op, int]) -> int:
    best = 0
    for s in inst.stages:
        load = sum(pbar[(j, s)] for j in inst.jobs if (j, s) in pbar)
        best = max(best, -(-load // len(inst.machines_of(s))))
    return best


def lb2_job_path(inst: Instance) -> int:
    """Max over jobs of relaxed processing total plus shortest transport path."""
    transport_min = {j: shortest_transport(inst, j) for j in inst.jobs}
    return _lb2(inst, relaxed_times(inst), transport_min)


def _lb2(inst: Instance, pbar: dict[Op, int], transport_min: dict[str, int]) -> int:
    best = 0
    for j in inst.jobs:
        total = sum(pbar[(j, s)] for s in inst.eligible_stages[j])
        best = max(best, total + transport_min[j])
    return best


def _stage_heads(
    inst: Instance, pbar: dict[Op, int], prefixes: dict[str, dict[str, int]]
) -> dict[Op, tuple[int, int]]:
    """Per operation: (relaxed work before the stage, cheapest transport up to it)."""
    heads: dict[Op, tuple[int, int]] = {}
    for j in inst.jobs:
        acc = 0
        for s in inst.eligible_stages[j]:
            heads[(j, s)] = (acc, prefixes[j][s])
            acc += pbar[(j, s)]
    return heads


def lb3_stage_head(inst: Instance) -> int:
    """Stage load bound shifted by the earliest possible arrival at the stage."""
    pbar = relaxed_times(inst)
    prefixes = {j: _transport_prefix(inst, j) for j in inst.jobs}
    return _lb3(inst, pbar, _stage_heads(inst, pbar, prefixes))


def _lb3(inst: Instance, pbar: dict[Op, int], heads: dict[Op, tuple[int, int]]) -> int:
    best = 0
    for s in inst.stages:
        eligible_jobs = [j for j in inst.jobs if (j, s) in pbar]
        if not eligible_jobs:
            continue
        load = sum(pbar[(j, s)] for j in eligible_jobs)
        load_term = -(-load // len(inst.machines_of(s)))
        head = min(sum(heads[(j, s)]) for j in eligible_jobs)
        best = max(best, load_term + head)
    return best


def _two_stage_parts(inst: Instance, pbar: dict[Op, int]) -> dict[str, Fraction | None]:
    """Best ratio per two-stage bound over all consecutive stage pairs."""
    parts: dict[str, Fraction | None] = {"lb4": None, "lb5": None, "lb6": None, "lb7": None}

    def bump(key: str, value: Fraction) -> None:
        cur = parts[key]
        parts[key] = value if cur is None or value > cur else cur

    for s, s2 in zip(inst.stages, inst.stages[1:]):
        shared = [j for j in inst.jobs if (j, s) in pbar and (j, s2) in pbar]
        n = len(shared)
        if n == 0:
            continue
        k, l = len(inst.machines_of(s)), len(inst.machines_of(s2))
        if k >= l:
            order = sorted(shared, key=lambda j: pbar[(j, s)])
            if n >= l:
                bump("lb4", Fraction(pbar[(order[l - 1], s)] + pbar[(order[-1], s2)], k))
            # n must exceed k or the first-stage time of one job is counted
            # twice, which overshoots the optimum
            if n > k:
                bump("lb5", Fraction(
                    pbar[(order[k - 1], s)]
                    + (k - l) * pbar[(order[0], s2)]
                    + pbar[(order[-1], s)],
                    k,
                ))
        else:
            # Mirrored branch: the second stage is richer, so sort on it and
            # divide by its machine count (time reversal of the k >= l case).
            order = sorted(shared, key=lambda j: pbar[(j, s2)])
            # mirror of the richer-first-stage case: n must exceed l for the
            # two second-stage terms to come from distinct jobs
            if n > l:
                bump("lb6", Fraction(
                    pbar[(order[l - 1], s2)]
                    + (l - k) * pbar[(order[0], s)]
                    + pbar[(order[-1], s2)],
                    l,
                ))
            if n >= k:
                bump("lb7", Fraction(pbar[(order[k - 1], s2)] + pbar[(order[-1], s)], l))
    return parts


def lb_two_stage(inst: Instance) -> int | None:
    """Max of the four pair bounds, or None when no stage pair qualifies."""
    parts = _two_stage_parts(inst, relaxed_times(inst))
    present = [v for v in parts.values() if v is not None]
    return math.ceil(max(present)) if present else None


def _work_floor(inst: Instance, j: str, s: str) -> int:
    """Worker-time any schedule must spend on the operation.

    Equals the one-worker time when a single worker is admissible (the
    equal-work floor makes w * p_w at least p_1); otherwise the minimum of
    w * p_w keeps the load bound valid without assuming anything extra.
    """
    if inst.workers_min[s] == 1:
        return inst.proc_time[(j, s, 1)]
    return min(w * inst.proc_time[(j, s, w)] for w in inst.worker_window(s))


def lb8_malleable(inst: Instance) -> int:
    """Closed form of the worker-pool relaxation.

    Fractional worker-time can be balanced perfectly across the pool, so the
    relaxation's optimum is the larger of the pooled load and the largest
    duration at the maximal worker count.
    """
    return math.ceil(_lb8_exact(inst))


def _lb8_exact(inst: Instance) -> Fraction:
    total_work = sum(_work_floor(inst, j, s) for j, s in inst.ops())
    per_op_floor = max(
        (inst.proc_time[(j, s, inst.workers_max[s])] for j, s in inst.ops()),
        default=0,
    )
    return max(Fraction(total_work, inst.workers_total), Fraction(per_op_floor))


def best_lb(inst: Instance) -> BoundReport:
    """Compute every bound and their maximum, with the relaxed times and
    each job's transport prefix computed once and shared."""
    pbar = relaxed_times(inst)
    prefixes = {j: _transport_prefix(inst, j) for j in inst.jobs}
    transport_min = {j: prefixes[j][inst.eligible_stages[j][-1]] for j in inst.jobs}
    heads = _stage_heads(inst, pbar, prefixes)
    parts = _two_stage_parts(inst, pbar)
    values: dict[str, int | None] = {
        "lb1": _lb1(inst, pbar),
        "lb2": _lb2(inst, pbar, transport_min),
        "lb3": _lb3(inst, pbar, heads),
        "lb4": None if parts["lb4"] is None else math.ceil(parts["lb4"]),
        "lb5": None if parts["lb5"] is None else math.ceil(parts["lb5"]),
        "lb6": None if parts["lb6"] is None else math.ceil(parts["lb6"]),
        "lb7": None if parts["lb7"] is None else math.ceil(parts["lb7"]),
        "lb8": lb8_malleable(inst),
    }
    return BoundReport(
        **values,  # type: ignore[arg-type]
        best=max(v for v in values.values() if v is not None),
        relaxed_times=pbar,
        transport_min=transport_min,
        per_stage_head=heads,
    )

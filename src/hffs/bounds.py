"""Lower bounds on the optimal makespan.

Eight bounds are computed from different relaxations:

- lb1: per-stage load spread evenly over the stage's machines;
- lb2: per-job chain length (processing minima plus the true shortest
  machine-to-machine transport path through the job's eligible stages);
- lb3: lb1's load term plus the earliest possible arrival at the stage;
- lb4..lb7: two-stage bounds over consecutive stage pairs, adapted from the
  classic parallel-machine flowshop bounds of Lee & Vairaktarakis;
- lb8: the malleable-scheduling relaxation in which the worker pool is the
  only resource and fractional worker-time may be balanced perfectly.

All bounds use relaxed durations (the minimum over admissible worker counts)
where a duration is needed, which keeps every bound valid regardless of the
worker choices an optimal schedule makes.  Fractional values are rounded up:
with integral data the optimal makespan is integral.

For the pair bounds, jobs are sorted on the stage of the pair that has more
machines and the sum is divided by that machine count.  When the second stage
is richer, lb7/lb6 are computed as lb4/lb5 of the reversed pair, the time
reversal of the schedule.  A brute-force suite in the tests checks them all.
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
        return json.dumps(doc, separators=(",", ":"))


def relaxed_times(inst: Instance) -> dict[Op, int]:
    """Minimum processing time over admissible worker counts, per operation."""
    return {
        (j, s): min(inst.proc_time[(j, s, w)] for w in inst.worker_window(s))
        for j in inst.jobs
        for s in inst.eligible_stages[j]
    }


def _transport_prefixes(inst: Instance) -> dict[str, dict[str, int]]:
    """Each job's transport prefix: the cheapest total transport from its
    chain's first stage up to each of its stages, minimised over machine
    choices (a layered shortest path).  A layer, the cheapest transport to
    each machine of a stage, depends only on the chain up to that stage, so
    chains that share a prefix share its layers: one step per distinct
    prefix, and jobs on one chain share the dict."""
    layers: dict[tuple[str, ...], tuple[dict[str, int], int]] = {}  # -> (layer, its min)
    by_chain: dict[tuple[str, ...], dict[str, int]] = {}
    transport = inst.transport
    for j in inst.jobs:
        chain = inst.eligible_stages[j]
        if chain in by_chain:
            continue
        best = by_chain[chain] = {}
        for i, cur in enumerate(chain, 1):
            prefix = chain[:i]
            if prefix not in layers:
                machines = inst.machines_of(cur)
                if i == 1:
                    layer = dict.fromkeys(machines, 0)
                else:
                    prev = layers[chain[: i - 1]][0].items()
                    try:
                        layer = {n: min(acc + transport[m, n] for m, acc in prev)
                                 for n in machines}
                    except KeyError as err:
                        m, n = err.args[0]
                        raise ValueError(
                            f"missing transport entry for machine pair {m} -> {n}") from None
                layers[prefix] = (layer, min(layer.values()))
            best[cur] = layers[prefix][1]
    return {j: by_chain[inst.eligible_stages[j]] for j in inst.jobs}


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


def _stage_bounds(
    inst: Instance, pbar: dict[Op, int], heads: dict[Op, tuple[int, int]]
) -> tuple[int, int]:
    """lb1 and lb3: per stage, its load spread over its machines, alone and
    plus the earliest arrival of one of its jobs."""
    lb1 = lb3 = 0
    for s in inst.stages:
        jobs = [j for j in inst.jobs if (j, s) in pbar]
        if jobs:
            load = -(-sum(pbar[(j, s)] for j in jobs) // len(inst.machines_of(s)))
            lb1 = max(lb1, load)
            lb3 = max(lb3, load + min(sum(heads[(j, s)]) for j in jobs))
    return lb1, lb3


def _pair_bounds(
    pbar: dict[Op, int], shared: list[str], s: str, s2: str, k: int, l: int
) -> tuple[int | None, int | None]:
    """The two bounds of the stage pair (s, s2) whose first stage has k >= l
    machines, over the jobs ``shared`` by both; None where too few jobs."""
    n = len(shared)
    order = sorted(shared, key=lambda j: pbar[(j, s)])
    first = -(-(pbar[(order[l - 1], s)] + pbar[(order[-1], s2)]) // k) if n >= l else None
    # n must exceed k or the first-stage time of one job is counted twice,
    # which overshoots the optimum
    if n <= k:
        return first, None
    total = pbar[(order[k - 1], s)] + (k - l) * pbar[(order[0], s2)] + pbar[(order[-1], s)]
    return first, -(-total // k)


def _two_stage_parts(inst: Instance, pbar: dict[Op, int]) -> dict[str, int | None]:
    """Best two-stage bound per family over all consecutive stage pairs."""
    parts: dict[str, int | None] = {"lb4": None, "lb5": None, "lb6": None, "lb7": None}
    for s, s2 in zip(inst.stages, inst.stages[1:]):
        shared = [j for j in inst.jobs if (j, s) in pbar and (j, s2) in pbar]
        k, l = len(inst.machines_of(s)), len(inst.machines_of(s2))
        if k >= l:
            keys, pair = ("lb4", "lb5"), (s, s2, k, l)
        else:  # the second stage is richer: read the pair backwards
            keys, pair = ("lb7", "lb6"), (s2, s, l, k)
        for key, value in zip(keys, _pair_bounds(pbar, shared, *pair)):
            if value is not None:
                parts[key] = max(value, parts[key] or 0)
    return parts


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
    prefixes = _transport_prefixes(inst)
    transport_min = {j: prefixes[j][inst.eligible_stages[j][-1]] for j in inst.jobs}
    heads = _stage_heads(inst, pbar, prefixes)
    lb1, lb3 = _stage_bounds(inst, pbar, heads)
    values: dict[str, int | None] = {
        "lb1": lb1,
        "lb2": _lb2(inst, pbar, transport_min),
        "lb3": lb3,
        **_two_stage_parts(inst, pbar),
        "lb8": lb8_malleable(inst),
    }
    return BoundReport(
        **values,  # type: ignore[arg-type]
        best=max(v for v in values.values() if v is not None),
        relaxed_times=pbar,
        transport_min=transport_min,
        per_stage_head=heads,
    )

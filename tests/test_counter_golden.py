"""Pinned propagator counters of real node-budget searches.

The other goldens pin what a search finds; these pin how much propagation it
took to find it: the runs and failures per propagator kind (``KINDS``) of
``engine.solve`` with the serial hint, next to its node count and objective,
and the choice values its forward checks refuted, per kind of the refuting
watcher.
A restatement of the compiled model that wakes one propagator more or less
at one node changes a row here, even when every fixpoint stays the same.

The four model kinds are the group 1 full model (routed machine groups,
worker choices, menus), the group 2 master (routed machine groups only), the
group 2 full model under a round-robin machine map (worker choices only, as
in a subproblem) and the tiny group 2 full model (3 jobs, 3 stages), where
forward checks refute values of every probed kind within 60 nodes; on the
20-job rows they refute none within their budgets.  The pinned-group2 rows
were re-recorded when each choice began to take the incumbent's value first:
their objectives fell from 290-365 to 76-85.  Every group 2 row was
re-recorded when a node became a leaf once its earliest-start schedule fits:
the same budgets reach further into the tree, so the counters grew, and the
objectives held or fell (pinned-group2 seed 2 85 -> 82; tiny-group2 15 -> 12,
6 -> 5 and 27 -> 22).
"""

from collections import Counter

import pytest

from hffs.bounds import best_lb
from hffs.engine import KINDS, solve
from hffs.full_model import build_full, schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.master import build_master
from hffs.model import serial_schedule

# (model, seed) -> (nodes, objective, runs, fails and refuted values per kind)
NONE = (0, 0, 0, 0)
COUNTERS = {
    ("full-group1", 0): (60, 1274, (2456, 2384, 301, 557), NONE, NONE),
    ("full-group1", 1): (60, 1356, (2129, 2068, 305, 563), NONE, NONE),
    ("full-group1", 2): (60, 879, (2015, 1972, 323, 591), NONE, NONE),
    ("master-group2", 0): (200, 70, (1668, 1334, 483, 435), (26, 0, 38, 2), NONE),
    ("master-group2", 1): (200, 70, (1722, 1497, 522, 475), (42, 1, 13, 9), NONE),
    ("master-group2", 2): (200, 74, (2024, 1899, 644, 567), (14, 0, 46, 2), NONE),
    ("pinned-group2", 0): (200, 76, (2738, 1961, 330, 646), (11, 0, 12, 26), NONE),
    ("pinned-group2", 1): (200, 78, (2652, 1906, 477, 873), (18, 0, 27, 4), NONE),
    ("pinned-group2", 2): (200, 82, (3531, 2635, 576, 974), (23, 0, 12, 7), NONE),
    ("tiny-group2", 0): (60, 12, (246, 141, 51, 49), (10, 4, 8, 0), (17, 6, 1, 0)),
    ("tiny-group2", 1): (60, 5, (148, 51, 30, 39), (17, 2, 4, 1), (20, 2, 1, 0)),
    ("tiny-group2", 2): (60, 22, (199, 85, 32, 61), (31, 0, 0, 0), (3, 0, 0, 0)),
}


def round_robin(inst):
    """Each operation's machine, taken in turn over its stage's machines."""
    seen = Counter()
    machine_of = {}
    for job, stage in inst.ops():
        machines = inst.machines_of(stage)
        machine_of[job, stage] = machines[seen[stage] % len(machines)]
        seen[stage] += 1
    return machine_of


def encoding(kind, seed):
    """The model, its serial hint and the node budget of a pinned search."""
    if kind in ("full-group1", "tiny-group2"):
        inst = generate(GenSpec(group=1, jobs=20, seed=seed) if kind == "full-group1"
                        else GenSpec(group=2, jobs=3, stages=3, variant=1, seed=seed))
        base = serial_schedule(inst)
        enc = build_full(inst, horizon=base.makespan, lb_floor=best_lb(inst).best)
        return enc, base, 60
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=seed))
    if kind == "master-group2":
        base = serial_schedule(inst)
        enc = build_master(inst, [], best_lb(inst).best, horizon=base.makespan)
        return enc, base, 200
    machine_of = round_robin(inst)
    base = serial_schedule(inst, machine_of)
    enc = build_full(inst, horizon=base.makespan, lb_floor=best_lb(inst).best,
                     machine_of=machine_of)
    return enc, base, 200


def counters(kind, seed):
    enc, base, nodes = encoding(kind, seed)
    res = solve(enc.model, node_budget=nodes, hint=schedule_to_assignment(enc, base))
    return (res.nodes, res.objective, *(
        tuple(counts[k] for k in KINDS) for counts in (res.runs, res.fails, res.refuted)))


@pytest.mark.parametrize("key", sorted(COUNTERS), ids=str)
def test_search_counters_are_pinned(key):
    assert counters(*key) == COUNTERS[key]

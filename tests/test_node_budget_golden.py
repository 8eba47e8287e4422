"""Pinned node-budget results: search outcomes that must not move when the
engine only gets faster.

The values were recorded with the round-robin propagation loop that the
queue-driven fixpoint replaced.  Propagation order does not change a
monotone fixpoint, so statuses, bounds, node counts and incumbent histories
must match exactly; a change here means search or propagation strength
changed and must be reported as such.
"""

import pytest

from hffs.full_model import solve_full
from hffs.instance_gen import GenSpec, generate
from hffs.lbbd import Budgets, run

# (status, objective, lower_bound, nodes, ub_history) of solve_full.
FULL = {
    ("g1", 0, 5): ("feasible", 1274, 65, 5, [(0, 1274)]),
    ("g1", 0, 60): ("feasible", 1274, 65, 60, [(0, 1274)]),
    ("g1", 1, 5): ("feasible", 1356, 62, 5, [(0, 1356)]),
    ("g1", 1, 60): ("feasible", 1356, 62, 60, [(0, 1356)]),
    ("g1", 2, 5): ("feasible", 879, 62, 5, [(0, 879)]),
    ("g1", 2, 60): ("feasible", 879, 62, 60, [(0, 879)]),
    ("g2", 3, 2, 0): ("optimal", 9, 9, 158, [
        (0, 19), (16, 18), (30, 17), (49, 15), (65, 14), (81, 13), (103, 12),
        (113, 11), (131, 10), (148, 9)]),
    ("g2", 3, 3, 1): ("optimal", 4, 4, 203, [
        (0, 15), (21, 13), (44, 12), (65, 11), (88, 10), (107, 9), (135, 7),
        (157, 6), (176, 5), (199, 4)]),
    ("g2", 4, 2, 2): ("feasible", 20, 13, 300, [
        (0, 39), (32, 33), (68, 30), (100, 29), (133, 28), (165, 26), (201, 23),
        (233, 22), (266, 21), (293, 20)]),
    ("g2", 4, 3, 3): ("feasible", 62, 22, 300, [(0, 64), (63, 62)]),
}


@pytest.mark.parametrize("key", sorted(FULL), ids=str)
def test_solve_full_node_budget_results_are_pinned(key):
    if key[0] == "g1":
        _, seed, nodes = key
        inst = generate(GenSpec(group=1, jobs=20, seed=seed))
    else:
        _, jobs, stages, seed = key
        inst = generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=1, seed=seed))
        nodes = 300
    res, _ = solve_full(inst, node_budget=nodes)
    assert (res.status, res.objective, res.lower_bound, res.nodes, res.ub_history) == FULL[key]


def test_lbbd_node_budget_results_are_pinned():
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))
    log = run(inst, Budgets(master_nodes=25, sub_nodes=25, max_iterations=2))
    assert (log.ub, log.lb, [it.jstar_hash for it in log.iterations]) == (
        329, 53, ["63fddc41b4ae15f5", "63fddc41b4ae15f5"])

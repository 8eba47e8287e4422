"""Pinned node-budget results: search outcomes that must not move when the
engine only gets faster.

The values were recorded with the round-robin propagation loop that the
queue-driven fixpoint replaced.  Propagation order does not change a
monotone fixpoint, so statuses, bounds, node counts and incumbent histories
must match exactly; a change here means search or propagation strength
changed and must be reported as such.  The group 2 rows were re-recorded
when the full model dropped each job's first and last waits and the search
stopped branching on elastic ends (every objective and bound held or
improved), and again, with the criterion-1 totals, when each choice began
to take the incumbent's value first: every group 2 objective and bound held
or improved, and the complete proofs of criterion 1 take more nodes.  They
were re-recorded again when each choice frame began to drop the values its
forward check refutes: every objective and bound held, three group 2 proofs
took fewer nodes, and so did criterion 1's.  They were re-recorded again when
a node became a leaf once every choice is decided and its earliest-start
schedule fits every group: each group 2 row found the same incumbents at
lower node indices, its three proofs took fewer nodes, and so did criterion
1's.
"""

import pytest

import hffs.lbbd as lbbd
import hffs.subproblem as subproblem
from hffs.bounds import best_lb
from hffs.full_model import solve_full
from hffs.instance_gen import GenSpec, generate
from hffs.lbbd import Budgets, run
from hffs.model import insertion_schedule, serial_schedule

# Search nodes of criterion 1's 50 proofs to optimality (tests/test_acceptance.py),
# from the serial schedule and from the insertion schedule.
CRITERION_1_NODES = 6_128
CRITERION_1_INSERTION_NODES = 3_644

# (status, objective, lower_bound, nodes, ub_history) of solve_full.
FULL = {
    ("g1", 0, 5): ("feasible", 1274, 65, 5, [(0, 1274)]),
    ("g1", 0, 60): ("feasible", 1274, 65, 60, [(0, 1274)]),
    ("g1", 1, 5): ("feasible", 1356, 62, 5, [(0, 1356)]),
    ("g1", 1, 60): ("feasible", 1356, 62, 60, [(0, 1356)]),
    ("g1", 2, 5): ("feasible", 879, 62, 5, [(0, 879)]),
    ("g1", 2, 60): ("feasible", 879, 62, 60, [(0, 879)]),
    ("g2", 3, 2, 0): ("optimal", 9, 9, 38, [(0, 19), (10, 13), (27, 9)]),
    ("g2", 3, 3, 1): ("optimal", 4, 4, 61, [
        (0, 15), (10, 11), (13, 9), (33, 6), (46, 5), (61, 4)]),
    ("g2", 4, 2, 2): ("optimal", 13, 13, 74, [
        (0, 39), (16, 17), (40, 15), (61, 14), (64, 13)]),
    ("g2", 4, 3, 3): ("feasible", 28, 22, 300, [(0, 64), (27, 28)]),
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
    res, _ = solve_full(
        inst, start=serial_schedule(inst), lb_floor=best_lb(inst).best, node_budget=nodes)
    assert (res.status, res.objective, res.lower_bound, res.nodes, res.ub_history) == FULL[key]


def test_lbbd_node_budget_results_are_pinned(monkeypatch):
    """The first subproblem stops at its budget, so the second iteration
    reuses the master solution (0 nodes) and continues that search from 25
    to 50 nodes: one master solve and one subproblem build in all."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(lbbd, "solve_master")
    counted(subproblem, "build_sub")
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))
    log = run(inst, Budgets(master_nodes=25, sub_nodes=25, max_iterations=2))
    assert (log.ub, log.lb, [it.jstar_hash for it in log.iterations]) == (
        66, 53, ["c9f1209e0afe7d0b", "c9f1209e0afe7d0b"])
    # (master_lb, master_nodes, sub_nodes, zeta, lb, ub): the second master
    # is kept and its subproblem continued
    assert [(it.master_lb, it.master_nodes, it.sub_nodes, it.zeta, it.lb, it.ub)
            for it in log.iterations] == [(53, 25, 25, 66, 53, 66), (53, 0, 25, 66, 53, 66)]
    assert log.nodes == 75
    assert sorted(calls) == ["build_sub", "solve_master"]


def test_criterion_1_proofs_take_the_pinned_node_total(suite50, suite_optima):
    results = [
        solve_full(inst, start=serial_schedule(inst), lb_floor=best_lb(inst).best,
                   node_budget=2_000_000)[0]
        for inst in suite50
    ]
    assert [r.status for r in results] == ["optimal"] * len(suite50)
    assert [r.objective for r in results] == suite_optima
    assert sum(r.nodes for r in results) == CRITERION_1_NODES


def test_criterion_1_proofs_from_the_insertion_start_take_the_pinned_node_total(
        suite50, suite_optima):
    results = [
        solve_full(inst, start=insertion_schedule(inst), lb_floor=best_lb(inst).best,
                   node_budget=2_000_000)[0]
        for inst in suite50
    ]
    assert [r.status for r in results] == ["optimal"] * len(suite50)
    assert [r.objective for r in results] == suite_optima
    assert sum(r.nodes for r in results) == CRITERION_1_INSERTION_NODES


@pytest.mark.parametrize("nodes", [3, 10, 40])
def test_capped_searches_on_the_tiny_suite_report_proven_bounds(suite50, suite_optima, nodes):
    """A search stopped at its budget, whose frames take the incumbent's
    value first, still brackets the brute-force optimum between a bound at
    least the floor and its schedule's makespan, and is optimal only where
    they meet."""
    for inst, optimum in zip(suite50, suite_optima):
        floor = best_lb(inst).best
        res, sched = solve_full(
            inst, start=insertion_schedule(inst), lb_floor=floor, node_budget=nodes)
        assert floor <= res.lower_bound <= optimum <= res.objective == sched.makespan
        assert (res.status == "optimal") == (res.lower_bound == res.objective)

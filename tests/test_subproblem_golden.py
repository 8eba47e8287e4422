"""Pinned node-budget results of the decomposition's subproblem.

Each subproblem runs under the machine map of a 25-node master solve, with
the floor the decomposition loop would pass it.  Statuses, bounds, node
counts and incumbent histories must not move when the subproblem's encoding
is only restated; a change here means search or propagation strength
changed and must be reported as such.
"""

import pytest

import hffs.subproblem as subproblem
from hffs.bounds import best_lb
from hffs.instance_gen import GenSpec, generate
from hffs.master import solve_master

# (jobs, stages, variant, seed, sub nodes) ->
# (status, zeta, lower_bound, nodes, ub_history) of solve_sub.
SUB = {
    (20, 3, 2, 0, 25): ("feasible", 329, 53, 25, [(0, 329)]),
    (20, 3, 2, 0, 200): ("feasible", 329, 53, 200, [(0, 329)]),
    (20, 3, 2, 1, 25): ("feasible", 352, 57, 25, [(0, 352)]),
    (20, 3, 2, 1, 200): ("feasible", 352, 57, 200, [(0, 352)]),
    (20, 3, 2, 2, 25): ("feasible", 336, 57, 25, [(0, 336)]),
    (20, 3, 2, 2, 200): ("feasible", 336, 57, 200, [(0, 336)]),
    (20, 3, 2, 3, 25): ("feasible", 448, 66, 25, [(0, 448)]),
    (20, 3, 2, 3, 200): ("feasible", 448, 66, 200, [(0, 448)]),
    (3, 2, 1, 0, 25): ("feasible", 14, 9, 25, [(0, 15), (12, 14)]),
    (3, 2, 1, 0, 200): ("optimal", 9, 9, 95, [
        (0, 15), (12, 14), (26, 13), (43, 12), (53, 11), (71, 10), (88, 9)]),
    (3, 3, 1, 1, 25): ("feasible", 13, 9, 25, [(0, 15), (17, 13)]),
    (3, 3, 1, 1, 200): ("optimal", 9, 9, 110, [
        (0, 15), (17, 13), (40, 12), (61, 11), (84, 10), (103, 9)]),
    (4, 2, 1, 2, 25): ("feasible", 39, 16, 25, [(0, 39)]),
    (4, 2, 1, 2, 200): ("feasible", 23, 16, 200, [
        (0, 39), (26, 33), (62, 30), (94, 29), (127, 28), (159, 26), (195, 23)]),
    (4, 3, 1, 3, 25): ("feasible", 64, 27, 25, [(0, 64)]),
    (4, 3, 1, 3, 200): ("feasible", 62, 27, 200, [(0, 64), (54, 62)]),
    (5, 2, 1, 4, 25): ("feasible", 56, 13, 25, [(0, 56)]),
    (5, 2, 1, 4, 200): ("feasible", 43, 13, 200, [(0, 56), (36, 53), (58, 43)]),
    (5, 3, 1, 5, 25): ("feasible", 98, 27, 25, [(0, 98)]),
    (5, 3, 1, 5, 200): ("feasible", 63, 27, 200, [
        (0, 98), (56, 74), (87, 71), (108, 64), (136, 63)]),
}


@pytest.mark.parametrize("key", sorted(SUB), ids=str)
def test_solve_sub_node_budget_results_are_pinned(key, monkeypatch):
    jobs, stages, variant, seed, nodes = key
    inst = generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=variant, seed=seed))
    floor = best_lb(inst).best
    msol = solve_master(inst, [], floor, node_budget=25)

    searches = []

    def recording_solve(*args, **kwargs):
        searches.append(engine_solve(*args, **kwargs))
        return searches[-1]

    engine_solve = subproblem.solve
    monkeypatch.setattr(subproblem, "solve", recording_solve)
    res = subproblem.solve_sub(
        inst, msol, node_budget=nodes, lb_floor=max(floor, msol.lower_bound))
    assert len(searches) == 1
    got = (res.status, res.zeta, res.lower_bound, res.nodes, searches[0].ub_history)
    assert got == SUB[key]

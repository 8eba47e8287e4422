"""Pinned node-budget results of the decomposition's subproblem.

Each subproblem runs under the machine map of a 25-node master solve, with
the floor the decomposition loop would pass it.  Statuses, bounds, node
counts and incumbent histories must not move when the subproblem's encoding
is only restated; a change here means search or propagation strength
changed and must be reported as such.  The values were re-recorded when the
encoding dropped each job's first and last waits and the search stopped
branching on elastic ends; every objective and bound held or improved.
They were re-recorded again when each choice began to take the incumbent's
value first; every objective and bound held or improved.  They were
re-recorded again when a node became a leaf once its earliest-start schedule
fits every group.  The 25-node master moved on (3, 3, 1, 1) and (4, 2, 1, 2),
which proves the masters optimal with other machine maps, so those rows
search other subproblems, and prove 4 and 13 where they held 9 and 17.  Every
other row found the same incumbents at lower node indices, and its objective
and bound held or improved.
"""

import pytest

import hffs.subproblem as subproblem
from hffs.bounds import best_lb
from hffs.instance_gen import GenSpec, generate
from hffs.master import solve_master
from hffs.model import serial_schedule

# (jobs, stages, variant, seed, sub nodes) ->
# (status, zeta, lower_bound, nodes, ub_history) of solve_sub.
SUB = {
    (20, 3, 2, 0, 25): ("feasible", 329, 53, 25, [(0, 329)]),
    (20, 3, 2, 0, 200): ("feasible", 78, 53, 200, [
        (0, 329), (97, 82), (112, 81), (124, 80), (142, 79), (156, 78)]),
    (20, 3, 2, 1, 25): ("feasible", 352, 57, 25, [(0, 352)]),
    (20, 3, 2, 1, 200): ("feasible", 76, 57, 200, [
        (0, 352), (111, 78), (125, 77), (142, 76)]),
    (20, 3, 2, 2, 25): ("feasible", 336, 57, 25, [(0, 336)]),
    (20, 3, 2, 2, 200): ("feasible", 88, 57, 200, [
        (0, 336), (121, 97), (122, 94), (124, 92), (129, 91), (131, 90), (137, 89),
        (173, 88)]),
    (20, 3, 2, 3, 25): ("feasible", 448, 66, 25, [(0, 448)]),
    (20, 3, 2, 3, 200): ("feasible", 100, 66, 200, [
        (0, 448), (113, 105), (120, 102), (145, 101), (159, 100)]),
    (3, 2, 1, 0, 25): ("optimal", 9, 9, 15, [(0, 15), (6, 9)]),
    (3, 2, 1, 0, 200): ("optimal", 9, 9, 15, [(0, 15), (6, 9)]),
    (3, 3, 1, 1, 25): ("optimal", 4, 4, 23, [(0, 10), (6, 6), (10, 5), (23, 4)]),
    (3, 3, 1, 1, 200): ("optimal", 4, 4, 23, [(0, 10), (6, 6), (10, 5), (23, 4)]),
    (4, 2, 1, 2, 25): ("optimal", 13, 13, 25, [(0, 34), (10, 14), (14, 13)]),
    (4, 2, 1, 2, 200): ("optimal", 13, 13, 27, [(0, 34), (10, 14), (14, 13)]),
    (4, 3, 1, 3, 25): ("feasible", 28, 27, 25, [(0, 64), (18, 28)]),
    (4, 3, 1, 3, 200): ("feasible", 28, 27, 200, [(0, 64), (18, 28)]),
    (5, 2, 1, 4, 25): ("feasible", 20, 13, 25, [
        (0, 56), (15, 26), (16, 25), (19, 21), (20, 20)]),
    (5, 2, 1, 4, 200): ("feasible", 20, 13, 200, [
        (0, 56), (15, 26), (16, 25), (19, 21), (20, 20)]),
    (5, 3, 1, 5, 25): ("feasible", 34, 27, 25, [(0, 98), (19, 37), (25, 34)]),
    (5, 3, 1, 5, 200): ("feasible", 33, 27, 200, [
        (0, 98), (19, 37), (25, 34), (44, 33)]),
}


@pytest.mark.parametrize("key", sorted(SUB), ids=str)
def test_solve_sub_node_budget_results_are_pinned(key, monkeypatch):
    jobs, stages, variant, seed, nodes = key
    inst = generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=variant, seed=seed))
    floor = best_lb(inst).best
    msol = solve_master(inst, [], floor, node_budget=25, start=serial_schedule(inst))

    searches = []

    def recording_solve(*args, **kwargs):
        searches.append(engine_solve(*args, **kwargs))
        return searches[-1]

    engine_solve = subproblem.solve
    monkeypatch.setattr(subproblem, "solve", recording_solve)
    res = subproblem.solve_sub(
        inst, msol, start=serial_schedule(inst, msol.machine_of), node_budget=nodes,
        lb_floor=max(floor, msol.lower_bound))
    assert len(searches) == 1
    got = (res.status, res.zeta, res.lower_bound, res.nodes, searches[0].ub_history)
    assert got == SUB[key]


@pytest.mark.parametrize("key", sorted(k for k in SUB if k[-1] == 25), ids=str)
def test_a_continued_subproblem_search_matches_the_pinned_larger_budget(key, monkeypatch):
    """Continued from 5 to 200 nodes, the paused search gives the pinned
    200-node results, without a second build or search.  It starts at 5
    nodes because two of these searches already end optimal at 25, and a
    proven search is not kept."""
    jobs, stages, variant, seed, _ = key
    inst = generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=variant, seed=seed))
    floor = best_lb(inst).best
    msol = solve_master(inst, [], floor, node_budget=25, start=serial_schedule(inst))
    lb_floor = max(floor, msol.lower_bound)

    searches, continued = [], []

    def recording_solve(*args, **kwargs):
        searches.append(engine_solve(*args, **kwargs))
        return searches[-1]

    def recording_resume(*args, **kwargs):
        continued.append(engine_resume(*args, **kwargs))
        return continued[-1]

    engine_solve, engine_resume = subproblem.solve, subproblem.resume
    monkeypatch.setattr(subproblem, "solve", recording_solve)
    monkeypatch.setattr(subproblem, "resume", recording_resume)
    first = subproblem.solve_sub(inst, msol, start=serial_schedule(inst, msol.machine_of),
                                 node_budget=5, lb_floor=lb_floor)
    assert first.paused is not None
    res = subproblem.solve_sub(
        inst, msol, start=None, node_budget=200, lb_floor=lb_floor, paused=first)
    assert len(searches) == len(continued) == 1
    got = (res.status, res.zeta, res.lower_bound, first.nodes + res.nodes,
           continued[0].ub_history)
    assert got == SUB[key[:-1] + (200,)]
    assert (res.paused is None) == (res.status == "optimal")
    assert res.schedule.makespan == res.zeta

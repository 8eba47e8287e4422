"""Pinned node-budget results of the decomposition's master.

Each master runs with the floor the decomposition loop would pass it first
(the bound module's best value).  Statuses, bounds, node counts, incumbent
histories and the hash of the returned machine fingerprint must not move
when the master's encoding is only restated; a change here means search or
propagation strength changed and must be reported as such.  Four rows were
re-recorded when each choice began to take the incumbent's value first:
their objectives and bounds held, and their histories and two fingerprints
moved.  Two rows were re-recorded when each choice frame began to drop the
values its forward check refutes: their objectives, bounds and fingerprints
held, and their proofs took 49 -> 46 and 57 -> 56 nodes.  Every small row
and the 200-node 20-job rows were re-recorded when a node became a leaf once
its earliest-start schedule fits every group: each 20-job row found the same
incumbents at lower node indices, and each small row's objective and bound
held or improved (three more proofs end within 25 nodes, and (5, 2, 1, 4)
proves 12 at 200 nodes where it held 13 over a bound of 9).  The cut cases
install a cut on the instance's own cut-free 25-node fingerprint, so the
fingerprint-to-choice translation is exercised on a real model.

The group 1 cases share 20 workers over 80 machines, so they are where a
constraint over the worker pool would bind.  Each runs under the best bound
and under floor 0; floor 0 takes ``lb8`` (the worker-pool bound) out of the
master, so only the master's own constraints can read the pool.

One tiny group 2 instance is where the per-stage cumulative binds: it lifts
the master's proven bound above the best bound while its machine choices
are still open, which the per-machine groups cannot do.  Its proof took
47 -> 23 nodes when a node became a leaf once its earliest-start schedule
fits.
"""

import pytest

import hffs.master as master
from hffs.bounds import best_lb
from hffs.instance_gen import GenSpec, generate
from hffs.lbbd import BendersCut, Budgets, _hash_fingerprint, fingerprint_of, run
from hffs.model import serial_schedule

# (jobs, stages, variant, seed, master nodes, cut) ->
# (status, objective, lower_bound, nodes, ub_history, fingerprint hash).
MASTER = {
    (20, 3, 2, 0, 25, False): ("feasible", 329, 53, 25, [(0, 329)], "63fddc41b4ae15f5"),
    (20, 3, 2, 0, 200, False): ("feasible", 70, 53, 200, [
        (0, 329), (73, 74), (87, 73), (99, 72), (141, 71),
        (157, 70)], "63fddc41b4ae15f5"),
    (20, 3, 2, 1, 25, False): ("feasible", 352, 57, 25, [(0, 352)], "cc5ff2b8c60ed942"),
    (20, 3, 2, 1, 200, False): ("feasible", 70, 57, 200, [
        (0, 352), (80, 71), (98, 70)], "cc5ff2b8c60ed942"),
    (20, 3, 2, 2, 25, False): ("feasible", 336, 57, 25, [(0, 336)], "4835f97b631f3375"),
    (20, 3, 2, 2, 200, False): ("feasible", 74, 57, 200, [
        (0, 336), (82, 80), (87, 76), (102, 75), (123, 74)], "4835f97b631f3375"),
    (20, 3, 2, 3, 25, False): ("feasible", 448, 66, 25, [(0, 448)], "f3c654cee69459b4"),
    (20, 3, 2, 3, 200, False): ("feasible", 92, 66, 200, [
        (0, 448), (51, 92)], "f3c654cee69459b4"),
    (3, 2, 1, 0, 25, False): ("optimal", 9, 9, 15, [
        (0, 19), (6, 13), (11, 9)], "fdfdedb11eec459c"),
    (3, 2, 1, 0, 200, False): ("optimal", 9, 9, 15, [
        (0, 19), (6, 13), (11, 9)], "fdfdedb11eec459c"),
    (3, 3, 1, 1, 25, False): ("optimal", 4, 4, 24, [
        (0, 15), (6, 11), (9, 9), (17, 6), (19, 5), (24, 4)], "6b94b36593f28191"),
    (3, 3, 1, 1, 200, False): ("optimal", 4, 4, 24, [
        (0, 15), (6, 11), (9, 9), (17, 6), (19, 5), (24, 4)], "6b94b36593f28191"),
    (4, 2, 1, 2, 25, False): ("optimal", 13, 13, 25, [
        (0, 39), (10, 17), (16, 15), (23, 13)], "0f343140f497c8ec"),
    (4, 2, 1, 2, 200, False): ("optimal", 13, 13, 26, [
        (0, 39), (10, 17), (16, 15), (23, 13)], "0f343140f497c8ec"),
    (4, 3, 1, 3, 25, False): ("feasible", 28, 22, 25, [
        (0, 64), (18, 28)], "bc9c12a7a13180e0"),
    (4, 3, 1, 3, 200, False): ("optimal", 22, 22, 101, [
        (0, 64), (18, 28), (41, 27), (78, 24), (86, 23), (94, 22)], "9629852dffe38144"),
    (5, 2, 1, 4, 25, False): ("feasible", 20, 9, 25, [
        (0, 56), (15, 26), (16, 25), (19, 21), (20, 20)], "bd1406cfb1e443da"),
    (5, 2, 1, 4, 200, False): ("optimal", 12, 12, 178, [
        (0, 56), (15, 26), (16, 25), (19, 21), (20, 20), (57, 18), (83, 17), (95, 15),
        (106, 14), (111, 13), (125, 12)], "8001d9bea0afc8fc"),
    (5, 3, 1, 5, 25, False): ("feasible", 34, 14, 25, [
        (0, 98), (19, 37), (25, 34)], "01544a837b7f0b15"),
    (5, 3, 1, 5, 200, False): ("feasible", 20, 14, 200, [
        (0, 98), (19, 37), (25, 34), (44, 33), (53, 30), (61, 29), (79, 27), (100, 26),
        (105, 25), (120, 23), (141, 22), (142, 20)], "15a020bc5b9901c0"),
    (20, 3, 2, 0, 25, True): ("feasible", 658, 53, 25, [(0, 658)], "63fddc41b4ae15f5"),
    (20, 3, 2, 0, 200, True): ("feasible", 70, 53, 200, [
        (0, 658), (74, 80), (75, 77), (89, 73), (98, 72), (110, 71),
        (128, 70)], "6ae91dd24c86d81c"),
    (3, 2, 1, 0, 25, True): ("optimal", 9, 9, 13, [
        (0, 19), (6, 13), (11, 9)], "b9108826dbcd1d78"),
}


@pytest.mark.parametrize("key", sorted(MASTER), ids=str)
def test_solve_master_node_budget_results_are_pinned(key, monkeypatch):
    jobs, stages, variant, seed, nodes, cut = key
    inst = generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=variant, seed=seed))
    floor = best_lb(inst).best
    cuts = []
    if cut:
        first = master.solve_master(inst, [], floor, node_budget=25, start=serial_schedule(inst))
        cuts = [BendersCut(fingerprint_of(inst, first), 2 * first.objective)]

    searches = []

    def recording_solve(*args, **kwargs):
        searches.append(engine_solve(*args, **kwargs))
        return searches[-1]

    engine_solve = master.solve
    monkeypatch.setattr(master, "solve", recording_solve)
    sol = master.solve_master(inst, cuts, floor, node_budget=nodes, start=serial_schedule(inst))
    assert len(searches) == 1
    got = (sol.status, sol.objective, sol.lower_bound, sol.nodes,
           searches[0].ub_history, _hash_fingerprint(fingerprint_of(inst, sol)))
    assert got == MASTER[key]


# (seed, floor) -> (status, objective, lower_bound, nodes, fingerprint hash)
# of group 1, 20 jobs, at 1,000 master nodes; "best" is the bound module's
# best value.
GROUP1_MASTER = {
    (0, "best"): ("feasible", 143, 65, 1000, "80f86db7f508cf1a"),
    (0, 0): ("feasible", 143, 36, 1000, "80f86db7f508cf1a"),
    (1, "best"): ("feasible", 151, 62, 1000, "518272b8ed3eb926"),
    (1, 0): ("feasible", 151, 37, 1000, "518272b8ed3eb926"),
    (2, "best"): ("feasible", 118, 62, 1000, "b149525047addb41"),
    (2, 0): ("feasible", 118, 40, 1000, "b149525047addb41"),
}


@pytest.mark.parametrize("key", sorted(GROUP1_MASTER, key=str), ids=str)
def test_group1_master_node_budget_results_are_pinned(key):
    seed, floor = key
    inst = generate(GenSpec(group=1, jobs=20, seed=seed))
    sol = master.solve_master(
        inst, [], best_lb(inst).best if floor == "best" else 0, start=serial_schedule(inst),
        node_budget=1000)
    got = (sol.status, sol.objective, sol.lower_bound, sol.nodes,
           _hash_fingerprint(fingerprint_of(inst, sol)))
    assert got == GROUP1_MASTER[key]


def test_stage_cumulative_lifts_the_tiny_master_above_the_best_bound():
    inst = generate(GenSpec(group=2, jobs=4, stages=2, variant=1, seed=26048))
    assert best_lb(inst).best == 8
    sol = master.solve_master(inst, [], 8, node_budget=60, start=serial_schedule(inst))
    assert (sol.status, sol.objective, sol.lower_bound, sol.nodes) == ("optimal", 10, 10, 23)
    log = run(inst, Budgets(master_nodes=60, sub_nodes=60, max_iterations=2))
    assert (log.status, log.lb, log.ub) == ("optimal", 10, 10)
    # the run's insertion start (makespan 10) is its first upper bound, so
    # the master's bound of 10 ends the run with no subproblem; a run that
    # keeps a master and continues its subproblem is pinned in
    # test_node_budget_golden
    assert [(r.master_lb, r.master_nodes, r.sub_nodes, r.lb, r.ub)
            for r in log.iterations] == [(10, 1, 0, 10, 10)]

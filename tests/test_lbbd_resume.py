"""The decomposition loop continues a subproblem search that stopped at its
node budget and reuses that iteration's master solution; the restarting
loop in ``oracles`` solves both again.  Everything but node counts agrees."""

import weakref

import pytest

import hffs.subproblem as subproblem
from hffs.instance_gen import GenSpec, generate
from hffs.lbbd import Budgets, run
from oracles import restarting_lbbd


def outcome(log):
    """A run log without its node counts."""
    return (
        [(it.k, it.master_lb, it.jstar_hash, it.zeta, it.lb, it.ub) for it in log.iterations],
        log.status, log.best_lb, log.lb, log.ub, log.schedule,
    )


def assert_matches_the_restarting_loop(inst, iterations):
    budgets = Budgets(master_nodes=25, sub_nodes=25, max_iterations=iterations)
    log = run(inst, budgets)
    assert outcome(log) == outcome(restarting_lbbd(inst, budgets))
    assert log.nodes == sum(it.master_nodes + it.sub_nodes for it in log.iterations)
    return log


@pytest.mark.parametrize("iterations", [2, 3, 4])
def test_the_tiny_suite_matches_the_restarting_loop(suite50, iterations):
    resumed = 0
    for inst in suite50:
        log = assert_matches_the_restarting_loop(inst, iterations)
        resumed += sum(it.master_nodes == 0 and it.sub_nodes > 0 for it in log.iterations)
    assert resumed > 0  # some iterations continue a paused search


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("iterations", [2, 3, 4])
def test_group2_matches_the_restarting_loop(seed, iterations):
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=seed))
    log = assert_matches_the_restarting_loop(inst, iterations)
    # every subproblem there stops at its budget: one master, one search
    # continued to 25 * 2**(k-1) nodes in total
    assert [(it.master_nodes > 0, it.sub_nodes) for it in log.iterations] == [
        (k == 1, 25 * 2 ** max(k - 2, 0)) for k in range(1, iterations + 1)]



@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_the_loop_keeps_no_paused_search_once_it_ends(monkeypatch, suite50, iterations):
    """Every subproblem search is freed by the end of the loop: a proven one
    when it returns, a paused one once the loop ends.  The recording keeps
    weak references to the paused searches, not the results that hold them."""
    statuses, paused = set(), []

    def recording_solve(*args, **kwargs):
        result = engine_solve(*args, **kwargs)
        statuses.add(result.status)
        if result.paused is not None:
            paused.append(weakref.ref(result.paused))
        return result

    engine_solve = subproblem.solve
    monkeypatch.setattr(subproblem, "solve", recording_solve)
    budgets = Budgets(master_nodes=25, sub_nodes=25, max_iterations=iterations)
    for inst in suite50[:20] + [generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))]:
        run(inst, budgets)
        assert [ref for ref in paused if ref() is not None] == []
    assert statuses == {"optimal", "feasible"} and paused

"""Decomposition loop: cuts, bound evolution, budgets, gap arithmetic."""

import json
import random
import time

import pytest

from conftest import make_instance, sample_tiny
import hffs.lbbd as lbbd
from hffs.instance_gen import GenSpec, generate
from hffs.lbbd import BendersCut, Budgets, fingerprint_of, gaps, run
from hffs.master import solve_master
from hffs.model import insertion_schedule, schedule_to_json, serial_schedule, validate_schedule
from oracles import brute_force_optimum


def test_single_machine_per_stage_closes_within_two_iterations():
    inst = make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s1", "s2"]},
        stage_machines={"s1": ("m1",), "s2": ("m2",)},
        proc={("a", "s1", 1): 2, ("a", "s2", 1): 3,
              ("b", "s1", 1): 3, ("b", "s2", 1): 2},
        transport={("m1", "m2"): 1},
        workers_total=2,
    )
    log = run(inst)
    # the only machine map makes the first cut close the bound immediately
    assert log.status == "optimal"
    assert len(log.iterations) <= 2
    assert log.lb == log.ub == brute_force_optimum(inst)


def test_reaches_the_brute_force_optimum_on_samples():
    rng = random.Random(4301)
    for _ in range(8):
        inst = sample_tiny(rng)
        log = run(inst)
        assert log.status == "optimal"
        assert log.lb == log.ub == brute_force_optimum(inst)
        assert validate_schedule(inst, log.schedule) == []
        assert log.schedule.makespan == log.ub


def test_gap_values():
    original, real = gaps(41, 36, 42)
    assert original == pytest.approx(100.0 * 6 / 42)
    assert real == pytest.approx(100.0 * 1 / 42)
    assert gaps(10, 10, 10) == (0.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        gaps(5, 5, 0)


def test_real_gap_never_exceeds_the_original_gap():
    rng = random.Random(4304)
    for _ in range(200):
        ub = rng.randint(1, 60)
        lb = rng.randint(0, ub)
        best = rng.randint(lb, ub)  # seed bound at least as strong as lb
        original, real = gaps(best, lb, ub)
        assert 0.0 <= real <= original <= 100.0


def test_bounds_evolve_monotonically_over_iterations():
    inst = sample_tiny(random.Random(4305))
    log = run(inst)
    assert len(log.iterations) >= 3
    assert [it.k for it in log.iterations] == list(range(1, len(log.iterations) + 1))
    lbs = [it.lb for it in log.iterations]
    assert all(a <= b for a, b in zip(lbs, lbs[1:]))
    ubs = [it.ub for it in log.iterations if it.ub is not None]
    assert all(a >= b for a, b in zip(ubs, ubs[1:]))
    assert log.nodes == sum(it.master_nodes + it.sub_nodes for it in log.iterations)
    assert log.lb >= log.best_lb


def test_iteration_budget_exits_with_a_feasible_log():
    inst = sample_tiny(random.Random(4305))
    log = run(inst, budgets=Budgets(max_iterations=1))
    assert log.status == "feasible"
    assert len(log.iterations) == 1
    assert log.ub is not None
    assert validate_schedule(inst, log.schedule) == []
    assert log.lb <= log.ub
    with pytest.raises(ValueError, match="at least 1"):
        Budgets(max_iterations=0)


def test_deterministic_budgets_serialize_identically():
    inst = sample_tiny(random.Random(4306))
    a = run(inst)
    b = run(inst)
    assert a.to_json() == b.to_json()
    assert a.wall_time is None
    assert all(it.wall_time is None for it in a.iterations)


def test_runlog_carries_the_schedule_document_byte_for_byte():
    inst = sample_tiny(random.Random(4306))
    log = run(inst)
    doc = json.loads(log.to_json())
    assert doc["schedule"] == json.loads(schedule_to_json(log.schedule))
    doc["schedule"] = json.loads(schedule_to_json(log.schedule))
    assert log.to_json() == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_timed_budgets_record_wall_clock():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ("m1",)},
        proc={("a", "s1", 1): 3},
        transport={},
    )
    log = run(inst, budgets=Budgets(deadline=time.perf_counter() + 60.0))
    assert log.status == "optimal"
    assert log.wall_time is not None
    assert all(it.wall_time is not None for it in log.iterations)


def test_a_passed_deadline_still_runs_the_first_iteration():
    """Like the engine, which always propagates its root, the loop checks the
    deadline only from the second iteration on, so it returns a schedule."""
    inst = generate(GenSpec(group=1, jobs=20, seed=1))
    log = run(inst, Budgets(deadline=time.perf_counter()))
    assert len(log.iterations) == 1
    assert log.status in ("feasible", "optimal")
    assert log.ub is not None and log.schedule.makespan == log.ub
    assert validate_schedule(inst, log.schedule) == []


def test_cut_construction_is_validated():
    fp = ((("a", "s1"), "m1"),)
    with pytest.raises(ValueError, match="at least 1"):
        BendersCut(fp, 0)
    with pytest.raises(ValueError, match="cover"):
        BendersCut((), 3)


def test_fingerprint_follows_instance_operation_order():
    inst = make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s2"]},
        stage_machines={"s1": ("m1",), "s2": ("m2", "m3")},
        proc={("a", "s1", 1): 2, ("a", "s2", 1): 3, ("b", "s2", 1): 4},
        transport={("m1", "m2"): 1, ("m1", "m3"): 1},
    )
    msol = solve_master(inst, [], 0, start=serial_schedule(inst))
    fp = fingerprint_of(inst, msol)
    assert [op for op, _ in fp] == [("a", "s1"), ("a", "s2"), ("b", "s2")]
    assert all(inst.machines[m] == s for (_, s), m in fp)


def test_budgets_that_cannot_double_are_rejected():
    for budgets in (
        {"master_nodes": 0}, {"sub_nodes": 0}, {"master_nodes": -1},
        {"max_iterations": 0}, {"max_iterations": -1},
    ):
        with pytest.raises(ValueError, match="at least 1"):
            Budgets(**budgets)


@pytest.mark.parametrize("nodes", [1, 10])
def test_node_budgets_alone_end_optimal(suite50, suite_optima, nodes):
    """With node budgets and no iteration or time limit the loop ends proven
    optimal: a master that proposes an assignment it already has a cut for
    skips its subproblem and doubles its own budget.  On the CLI demo
    instance (seed 3) the loop once ran forever; since the forward check,
    its 10-node master no longer comes back to a fingerprint, so the
    instance here is the one at seed 6, whose masters do at both budgets."""
    repeating = generate(GenSpec(group=2, jobs=3, stages=2, variant=1, seed=6))
    budgets = Budgets(master_nodes=nodes, sub_nodes=nodes)
    log = run(repeating, budgets)
    assert (log.status, log.lb, log.ub) == ("optimal", 10, 10)
    repeats = [it for it in log.iterations if it.zeta is not None and it.sub_nodes == 0]
    assert repeats and all(it.master_nodes > 0 for it in repeats)
    for inst, optimum in zip(suite50, suite_optima):
        log = run(inst, budgets)
        assert (log.status, log.lb, log.ub) == ("optimal", optimum, optimum)


def test_the_master_stops_halfway_to_the_deadline(monkeypatch):
    """Each master's deadline is the midpoint between its call and the run's
    deadline."""
    calls = []

    def spy(*args, deadline=None, **kwargs):
        calls.append((time.perf_counter(), deadline))
        return solve_master(*args, deadline=deadline, **kwargs)

    monkeypatch.setattr(lbbd, "solve_master", spy)
    demo = generate(GenSpec(group=2, jobs=3, stages=2, variant=1, seed=3))
    deadline = time.perf_counter() + 60.0
    run(demo, Budgets(deadline=deadline, max_iterations=2))
    assert calls
    for called, stop in calls:
        assert called < stop <= (called + deadline) / 2


def test_the_runs_start_is_its_first_upper_bound():
    """The master moves machines, and the 1-node subproblem keeps its own
    start on them (makespan 25); the run reports its own start (18), whose
    schedule it returns validated."""
    inst = generate(GenSpec(group=2, jobs=4, stages=3, variant=1, seed=4242095))
    start = insertion_schedule(inst)
    log = run(inst, Budgets(master_nodes=60, sub_nodes=1, max_iterations=1))
    assert [(it.zeta, it.ub) for it in log.iterations] == [(25, 18)]
    assert (log.status, log.ub, log.schedule) == ("feasible", 18, start)
    assert validate_schedule(inst, log.schedule) == []

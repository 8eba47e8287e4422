"""Decomposition loop: cuts, bound evolution, budgets, gap arithmetic."""

import random

import pytest

from conftest import make_instance, sample_tiny
from hffs.lbbd import BendersCut, Budgets, fingerprint_of, gaps, run
from hffs.master import solve_master
from hffs.model import validate_schedule
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
    empty = run(inst, budgets=Budgets(max_iterations=0))
    assert empty.status == "unknown"
    assert empty.ub is None
    assert empty.iterations == []
    assert empty.lb == empty.best_lb


def test_deterministic_budgets_serialize_identically():
    inst = sample_tiny(random.Random(4306))
    a = run(inst)
    b = run(inst)
    assert a.to_json() == b.to_json()
    assert a.wall_time is None
    assert all(it.wall_time is None for it in a.iterations)


def test_timed_budgets_record_wall_clock():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ("m1",)},
        proc={("a", "s1", 1): 3},
        transport={},
    )
    log = run(inst, budgets=Budgets(total_time=60.0))
    assert log.status == "optimal"
    assert log.wall_time is not None
    assert all(it.wall_time is not None for it in log.iterations)


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
    msol = solve_master(inst, [], 0)
    fp = fingerprint_of(inst, msol)
    assert [op for op, _ in fp] == [("a", "s1"), ("a", "s2"), ("b", "s2")]
    assert all(inst.machines[m] == s for (_, s), m in fp)

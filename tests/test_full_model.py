"""Monolithic model: encoding shape, exact optima, budget behaviour."""

import random

import pytest

from conftest import make_instance, sample_tiny

from hffs.full_model import build_full, solve_full
from hffs.model import validate_schedule

from oracles import brute_force_optimum


def chain_instance():
    return make_instance(
        jobs={"a": ["s1", "s2"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"]},
        proc={("a", "s1", 1): 4, ("a", "s2", 1): 3},
        transport={("m1", "m2"): 5},
    )


def test_encoding_counts():
    inst = make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s2"]},
        stage_machines={"s1": ["m1"], "s2": ["m2", "m3"]},
        proc={
            ("a", "s1", 1): 2,
            ("a", "s2", 1): 2,
            ("b", "s2", 1): 2,
        },
        transport={("m1", "m2"): 1, ("m1", "m3"): 1},
        workers_total=2,
    )
    enc = build_full(inst)
    assert len(enc.ops) == 3
    assert len(enc.model.tasks) == 9  # wait/process/wait per operation
    assert len(enc.model.choices) == 6  # machine + workers per operation
    # machine domains follow the per-stage machine counts
    assert enc.model.choices["m0"].values == (0,)
    assert enc.model.choices["m1"].values == (0, 1)


def test_single_chain_optimum_is_path_length():
    res, sched = solve_full(chain_instance())
    assert res.status == "optimal"
    assert res.objective == 12
    assert sched is not None
    assert sched.makespan == 12


def test_workers_menu_uses_faster_crew():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={
            ("a", "s1", 1): 6,
            ("a", "s1", 2): 3,
            ("b", "s1", 1): 6,
            ("b", "s1", 2): 3,
        },
        transport={},
        workers_total=2,
    )
    res, sched = solve_full(inst)
    # one machine: both run with the full crew back to back
    assert res.objective == 6
    assert set(sched.workers_of.values()) == {2}


def test_worker_pool_blocks_double_crewing():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"]},
        stage_machines={"s1": ["m1", "m2"]},
        proc={
            ("a", "s1", 1): 6,
            ("a", "s1", 2): 3,
            ("b", "s1", 1): 6,
            ("b", "s1", 2): 3,
        },
        transport={},
        workers_total=2,
    )
    res, _ = solve_full(inst)
    # two machines but only two workers: either both single-crewed in
    # parallel (6) or crewed-up serially (6); never 3+3 in parallel
    assert res.objective == 6


def test_returned_schedule_validates():
    rng = random.Random(321)
    for _ in range(8):
        inst = sample_tiny(rng)
        res, sched = solve_full(inst)
        assert res.status == "optimal"
        assert sched is not None
        assert validate_schedule(inst, sched) == []
        assert sched.makespan == res.objective


def test_matches_brute_force_on_samples():
    rng = random.Random(654)
    for _ in range(6):
        inst = sample_tiny(rng)
        res, _ = solve_full(inst)
        assert res.objective == brute_force_optimum(inst)


def test_node_budget_still_returns_incumbent():
    rng = random.Random(955)
    inst = sample_tiny(rng)
    res, sched = solve_full(inst, node_budget=1)
    assert sched is not None  # warm start guarantees an incumbent
    assert res.objective is not None
    assert validate_schedule(inst, sched) == []


def test_lb_floor_respected_in_result():
    res, _ = solve_full(chain_instance(), lb_floor=12)
    assert res.status == "optimal"
    assert res.lower_bound >= 12


def test_invalid_instance_rejected():
    inst = make_instance(
        jobs={"a": ["s1", "s2"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"]},
        proc={("a", "s1", 1): 4, ("a", "s2", 1): 3},
        transport={},  # missing required transport entry
    )
    with pytest.raises(ValueError):
        solve_full(inst)


def test_determinism_across_runs():
    rng = random.Random(4321)
    inst = sample_tiny(rng)
    a, _ = solve_full(inst, node_budget=5_000)
    b, _ = solve_full(inst, node_budget=5_000)
    assert (a.status, a.objective, a.lower_bound, a.nodes) == (
        b.status,
        b.objective,
        b.lower_bound,
        b.nodes,
    )

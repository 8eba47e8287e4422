"""Monolithic model: encoding shape, exact optima, budget behaviour."""

import random
from dataclasses import replace

import pytest

from conftest import make_instance, sample_tiny

from hffs.bounds import best_lb
from hffs.engine import Assignment, check_assignment
from hffs.full_model import build_full, solve_full
from hffs.model import serial_schedule, validate_schedule

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
    enc = build_full(inst, horizon=20)
    assert len(enc.ops) == 3
    # a process per operation, and a wait on each side of a's stage change
    assert sorted(enc.model.tasks) == ["pr0", "pr1", "pr2", "wa0", "wb1"]
    assert enc.model.objective_tasks == ["pr1", "pr2"]  # each job's last process
    assert len(enc.model.choices) == 6  # machine + workers per operation
    # machine domains follow the per-stage machine counts
    assert enc.model.choices["m0"].values == (0,)
    assert enc.model.choices["m1"].values == (0, 1)


def two_machine_assignment(machines, spans):
    """Encoding of two jobs that visit s0 (each on its own machine, over
    [0, 1)) and then s1 (machines m1/m2, entry buffer 1 on m1, 2 on m2), and
    an assignment putting job k's second operation on ``machines[k]`` with
    (wait-before, process) intervals ``spans[k]``; transport takes 0."""
    inst = make_instance(
        jobs={"a": ["s0", "s1"], "b": ["s0", "s1"]},
        stage_machines={"s0": ["n1", "n2"], "s1": ["m1", "m2"]},
        proc={(j, s, 1): p for j in "ab" for s, p in (("s0", 1), ("s1", 3))},
        transport={(n, m): 0 for n in ("n1", "n2") for m in ("m1", "m2")},
        workers_total=2,
        buffer_in={"m1": 1},
    )
    enc = build_full(inst, horizon=20)
    starts, ends, choices = {}, {}, {}
    for job, (machine, (wait, process)) in enumerate(zip(machines, spans)):
        first, second = 2 * job, 2 * job + 1  # positions of the job's operations
        choices.update({f"m{first}": job, f"w{first}": 1,
                        f"m{second}": ("m1", "m2").index(machine), f"w{second}": 1})
        for tid, (lo, hi) in ((f"pr{first}", (0, 1)), (f"wa{first}", (1, 1)),
                              (f"wb{second}", wait), (f"pr{second}", process)):
            starts[tid], ends[tid] = lo, hi
    return enc.model, Assignment(choices, starts, ends)


def test_referee_reports_an_overlap_only_on_the_shared_machine():
    overlapping = [((1, 1), (1, 4)), ((1, 2), (2, 5))]
    model, asg = two_machine_assignment(("m2", "m2"), overlapping)
    assert check_assignment(model, asg) == ["disjunctive mach:m2: pr1 overlaps pr3"]
    model, asg = two_machine_assignment(("m1", "m2"), overlapping)
    assert check_assignment(model, asg) == []


def test_referee_reports_a_buffer_overflow_against_its_machine():
    waiting = [((1, 2), (2, 5)), ((1, 5), (5, 8))]
    model, asg = two_machine_assignment(("m1", "m1"), waiting)
    assert check_assignment(model, asg) == ["cumulative in:m1: capacity 1 exceeded"]
    model, asg = two_machine_assignment(("m2", "m2"), waiting)
    assert check_assignment(model, asg) == []


def solve_floored(inst, **budgets):
    """``solve_full`` from the serial schedule above the bound module's best
    value."""
    return solve_full(inst, start=serial_schedule(inst), lb_floor=best_lb(inst).best, **budgets)


def test_single_chain_optimum_is_path_length():
    res, sched = solve_floored(chain_instance())
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
    res, sched = solve_floored(inst)
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
    res, _ = solve_floored(inst)
    # two machines but only two workers: either both single-crewed in
    # parallel (6) or crewed-up serially (6); never 3+3 in parallel
    assert res.objective == 6


def test_returned_schedule_validates():
    rng = random.Random(321)
    for _ in range(8):
        inst = sample_tiny(rng)
        res, sched = solve_floored(inst)
        assert res.status == "optimal"
        assert sched is not None
        assert validate_schedule(inst, sched) == []
        assert sched.makespan == res.objective


def test_matches_brute_force_on_samples():
    rng = random.Random(654)
    for _ in range(6):
        inst = sample_tiny(rng)
        res, _ = solve_floored(inst)
        assert res.objective == brute_force_optimum(inst)


def test_node_budget_still_returns_incumbent():
    rng = random.Random(955)
    inst = sample_tiny(rng)
    res, sched = solve_floored(inst, node_budget=1)
    assert sched is not None  # warm start guarantees an incumbent
    assert res.objective is not None
    assert validate_schedule(inst, sched) == []


def test_lb_floor_respected_in_result():
    inst = chain_instance()
    res, _ = solve_full(inst, start=serial_schedule(inst), lb_floor=12)
    assert res.status == "optimal"
    assert res.lower_bound >= 12


def test_invalid_instance_rejected():
    inst = make_instance(
        jobs={"a": ["s1", "s2"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"]},
        proc={("a", "s1", 1): 4, ("a", "s2", 1): 3},
        transport={},  # missing required transport entry
    )
    start = serial_schedule(replace(inst, transport={("m1", "m2"): 1}))
    with pytest.raises(ValueError, match="invalid instance"):
        solve_full(inst, start=start, lb_floor=0)


def test_determinism_across_runs():
    rng = random.Random(4321)
    inst = sample_tiny(rng)
    a, _ = solve_floored(inst, node_budget=5_000)
    b, _ = solve_floored(inst, node_budget=5_000)
    assert (a.status, a.objective, a.lower_bound, a.nodes) == (
        b.status,
        b.objective,
        b.lower_bound,
        b.nodes,
    )

"""Restricted subproblem: timing and worker counts under fixed machines."""

import itertools
import random
from dataclasses import replace

import pytest

from conftest import make_instance, sample_tiny
from hffs.bounds import best_lb
from hffs.instance_gen import GenSpec, generate
from hffs.master import MasterSolution, solve_master
from hffs.model import serial_schedule, validate_schedule
from hffs.subproblem import build_sub, solve_sub
from oracles import brute_force_optimum


def fixed(machine_of):
    """Wrap a machine map in the solution shape the subproblem expects."""
    return MasterSolution(machine_of=machine_of, lower_bound=0,
                          status="optimal", objective=0, nodes=0, wall_time=0.0)


def solve_fresh(inst, msol, **budgets):
    """A fresh subproblem solve from the serial schedule on the master's
    machines."""
    return solve_sub(inst, msol, start=serial_schedule(inst, msol.machine_of), **budgets)


def two_stage_instance():
    return make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s1", "s2"]},
        stage_machines={"s1": ("m1",), "s2": ("m2",)},
        proc={("a", "s1", 1): 2, ("a", "s2", 1): 3,
              ("b", "s1", 1): 3, ("b", "s2", 1): 2},
        transport={("m1", "m2"): 1},
        workers_total=2,
    )


# Both jobs of two_stage_instance on its only machines.
STRAIGHT = {("a", "s1"): "m1", ("a", "s2"): "m2", ("b", "s1"): "m1", ("b", "s2"): "m2"}


def test_encoding_pins_each_machine_choice_to_one_value():
    inst = make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s1", "s2"]},
        stage_machines={"s1": ("m11", "m12"), "s2": ("m21",)},
        proc={("a", "s1", 1): 2, ("a", "s2", 1): 3,
              ("b", "s1", 1): 3, ("b", "s2", 1): 2},
        transport={("m11", "m21"): 1, ("m12", "m21"): 2},
    )
    enc = build_sub(inst, fixed({("a", "s1"): "m12", ("a", "s2"): "m21",
                               ("b", "s1"): "m11", ("b", "s2"): "m21"}), horizon=20)
    assert enc.ops == (("a", "s1"), ("a", "s2"), ("b", "s1"), ("b", "s2"))
    # a process per operation, and one wait on each side of a stage change
    assert sorted(enc.model.tasks) == [
        "pr0", "pr1", "pr2", "pr3", "wa0", "wa2", "wb1", "wb3"]
    # one worker choice and one machine choice per operation; the machine
    # choice has the pinned machine's index as its only value
    assert {cid: c.values for cid, c in enc.model.choices.items() if cid[0] == "m"} == {
        "m0": (1,), "m1": (0,), "m2": (0,), "m3": (0,)}
    assert sum(cid[0] == "w" for cid in enc.model.choices) == 4
    # each machine's group holds only the operations routed to it
    choices = enc.model.choices
    groups = {
        d.id: [m.task for m in d.members if choices[m.on].values == (d.value,)]
        for d in enc.model.constraints.disjunctives
    }
    assert groups == {"mach:m11": ["pr2"], "mach:m12": ["pr0"], "mach:m21": ["pr1", "pr3"]}
    # each transport table has the one pair of pinned machines
    tables = [l.table[2] for l in enc.model.constraints.offsets if l.table is not None]
    assert tables == [{(1, 0): 2}, {(0, 0): 1}]


def test_single_job_chain_completes_at_speedup_plus_transport():
    inst = make_instance(
        jobs={"j": ["s1", "s2"]},
        stage_machines={"s1": ("m1",), "s2": ("m2",)},
        proc={("j", "s1", 1): 9, ("j", "s1", 2): 5, ("j", "s1", 3): 3,
              ("j", "s2", 1): 4, ("j", "s2", 2): 2},
        transport={("m1", "m2"): 2},
        workers_total=3,
    )
    res = solve_fresh(inst, fixed({("j", "s1"): "m1", ("j", "s2"): "m2"}))
    assert res.status == "optimal"
    assert res.zeta == 3 + 2 + 2
    assert res.schedule is not None
    assert res.schedule.workers_of[("j", "s1")] == 3
    assert res.schedule.workers_of[("j", "s2")] == 2


def test_zero_entry_buffer_forces_zero_length_waits():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"]},
        stage_machines={"s1": ("m1",)},
        proc={("a", "s1", 1): 3, ("b", "s1", 1): 4},
        transport={},
        buffer_in=0,
        buffer_out=0,
    )
    res = solve_fresh(inst, fixed({("a", "s1"): "m1", ("b", "s1"): "m1"}))
    assert res.zeta == 7
    for op in inst.ops():
        lo, hi = res.schedule.wait_before[op]
        assert lo == hi
        lo, hi = res.schedule.wait_after[op]
        assert lo == hi


def test_two_job_two_stage_optimum_with_overlap():
    inst = two_stage_instance()
    res = solve_fresh(inst, fixed(STRAIGHT))
    # a: s1 [0,2) -> s2 [3,6); b: s1 [2,5) -> s2 [6,8)
    assert res.zeta == 8
    assert res.status == "optimal"
    assert validate_schedule(inst, res.schedule) == []


def test_worker_pool_blocks_double_crewing():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"]},
        stage_machines={"s1": ("m1", "m2")},
        proc={("a", "s1", 1): 6, ("a", "s1", 2): 3,
              ("b", "s1", 1): 6, ("b", "s1", 2): 3},
        transport={},
        workers_total=2,
    )
    res = solve_fresh(inst, fixed({("a", "s1"): "m1", ("b", "s1"): "m2"}))
    # two crews of two would need four workers; best is 6 either way
    assert res.zeta == 6


def test_minimum_over_all_machine_maps_is_the_true_optimum():
    rng = random.Random(4201)
    insts = [make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s1", "s2"]},
        stage_machines={"s1": ("m11", "m12"), "s2": ("m21",)},
        proc={("a", "s1", 1): 4, ("a", "s2", 1): 2,
              ("b", "s1", 1): 3, ("b", "s2", 1): 5},
        transport={("m11", "m21"): 1, ("m12", "m21"): 4},
        buffer_in=1,
        buffer_out=1,
    )]
    while len(insts) < 3:
        cand = sample_tiny(rng)
        if len(cand.ops()) <= 5:
            insts.append(cand)
    for inst in insts:
        ops = inst.ops()
        best = None
        for combo in itertools.product(*(inst.machines_of(s) for _, s in ops)):
            res = solve_fresh(inst, fixed(dict(zip(ops, combo))))
            assert res.status == "optimal"
            best = res.zeta if best is None else min(best, res.zeta)
        assert best == brute_force_optimum(inst)


def test_schedule_repeats_the_fixed_machines():
    inst = two_stage_instance()
    res = solve_fresh(inst, fixed(STRAIGHT))
    assert res.schedule.machine_of[("a", "s1")] == "m1"
    assert res.schedule.machine_of[("b", "s2")] == "m2"


def test_malformed_machine_sequences_are_rejected():
    inst = two_stage_instance()
    missing_op = {op: m for op, m in STRAIGHT.items() if op != ("a", "s2")}
    missing_job = {op: m for op, m in STRAIGHT.items() if op[0] != "b"}
    def build_sub_at_horizon(inst, msol):
        return build_sub(inst, msol, horizon=50)

    def solve_from_a_start_on_the_map(inst, msol):
        # a valid schedule relabelled with the malformed map passes the
        # start check, so the error comes from the subproblem's own check
        start = replace(serial_schedule(inst, STRAIGHT), machine_of=msol.machine_of)
        return solve_sub(inst, msol, start=start)

    for entry in (build_sub_at_horizon, solve_from_a_start_on_the_map):
        with pytest.raises(ValueError, match="does not cover"):
            entry(inst, fixed(missing_op))
        with pytest.raises(ValueError, match="not in stage"):
            entry(inst, fixed({**STRAIGHT, ("a", "s1"): "m2"}))
        with pytest.raises(ValueError, match="does not cover"):
            entry(inst, fixed(missing_job))
        with pytest.raises(ValueError, match="does not cover"):
            entry(inst, fixed({**STRAIGHT, ("c", "s1"): "m1"}))


def test_a_fresh_subproblem_needs_a_start_on_the_masters_machines():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"]},
        stage_machines={"s1": ("m1", "m2")},
        proc={("a", "s1", 1): 3, ("b", "s1", 1): 4},
        transport={},
        workers_total=2,
    )
    apart = {("a", "s1"): "m1", ("b", "s1"): "m2"}
    together = {("a", "s1"): "m1", ("b", "s1"): "m1"}
    for start in (serial_schedule(inst, together), None):
        with pytest.raises(ValueError, match="on the master's machines"):
            solve_sub(inst, fixed(apart), start=start)
    assert solve_sub(inst, fixed(apart), start=serial_schedule(inst, apart)).zeta == 4


def test_floor_below_the_optimum_changes_nothing():
    inst = two_stage_instance()
    plain = solve_fresh(inst, fixed(STRAIGHT))
    floored = solve_fresh(inst, fixed(STRAIGHT), lb_floor=5)
    assert floored.zeta == plain.zeta == 8
    assert floored.lower_bound >= 5
    assert validate_schedule(inst, floored.schedule) == []


def test_subproblem_is_deterministic_across_seeds():
    rng = random.Random(4202)
    inst = sample_tiny(rng)
    machine_of = {op: inst.machines_of(op[1])[0] for op in inst.ops()}
    a = solve_fresh(inst, fixed(machine_of))
    b = solve_fresh(inst, fixed(machine_of))
    assert (a.zeta, a.nodes, a.status) == (b.zeta, b.nodes, b.status)
    assert a.schedule.process == b.schedule.process


def test_a_continued_search_at_a_raised_floor_equals_a_fresh_one():
    """A floor raised between the stop and the continuation changes only the
    reported bound: the result is a fresh search's at the raised floor."""
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))
    msol = solve_master(inst, [], 0, node_budget=25, start=serial_schedule(inst))
    first = solve_fresh(inst, msol, node_budget=25, lb_floor=53)
    raised = solve_sub(inst, msol, start=None, node_budget=200, lb_floor=70, paused=first)
    fresh = solve_fresh(inst, msol, node_budget=200, lb_floor=70)
    assert raised.lower_bound == 70 > 53
    assert first.nodes + raised.nodes == fresh.nodes == 200
    assert (raised.status, raised.zeta, raised.lower_bound, raised.schedule) == (
        fresh.status, fresh.zeta, fresh.lower_bound, fresh.schedule)
    with pytest.raises(ValueError, match="below its incumbent"):
        solve_sub(inst, msol, start=None, node_budget=400, lb_floor=raised.zeta, paused=raised)


def test_a_search_proven_optimal_at_its_budget_is_not_kept():
    """A budget stop whose open nodes all lie at or above the incumbent is
    a proof: the result is optimal and keeps no search to continue."""
    rng = random.Random(4301)
    proven_at_stop = 0
    for _ in range(6):
        inst = sample_tiny(rng)
        floor = best_lb(inst).best
        msol = solve_master(inst, [], floor, node_budget=25, start=serial_schedule(inst))
        floor = max(floor, msol.lower_bound)
        for budget in range(1, 30):
            res = solve_fresh(inst, msol, node_budget=budget, lb_floor=floor)
            assert (res.paused is None) == (res.status == "optimal")
            if res.status == "optimal":
                unbounded = solve_fresh(inst, msol, lb_floor=floor)
                proven_at_stop += res.nodes == budget < unbounded.nodes
                break
    assert proven_at_stop > 0


def test_a_continued_search_decodes_only_an_improved_incumbent():
    """Continued from 25 nodes, a search that keeps its incumbent returns the
    paused result's schedule itself; one that improves it returns a newly
    decoded schedule that passes the validator."""
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))
    msol = solve_master(inst, [], 0, node_budget=25, start=serial_schedule(inst))
    for budget, improves in ((50, False), (200, True)):
        first = solve_fresh(inst, msol, node_budget=25, lb_floor=53)
        res = solve_sub(inst, msol, start=None, node_budget=budget, lb_floor=53, paused=first)
        assert (res.zeta < first.zeta) == improves
        assert (res.schedule is first.schedule) == (not improves)
        assert res.schedule.makespan == res.zeta
        assert validate_schedule(inst, res.schedule) == []

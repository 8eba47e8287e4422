"""Restricted subproblem: timing and worker counts under fixed machines."""

import itertools
import random

import pytest

from conftest import make_instance, sample_tiny
from hffs.master import MasterSolution
from hffs.model import validate_schedule
from hffs.subproblem import build_sub, solve_sub
from oracles import brute_force_optimum


def fixed(machine_seq):
    """Wrap a machine map in the solution shape the subproblem expects."""
    return MasterSolution(machine_seq=machine_seq, lower_bound=0,
                          status="optimal", objective=0, nodes=0, wall_time=0.0)


def two_stage_instance():
    return make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s1", "s2"]},
        stage_machines={"s1": ("m1",), "s2": ("m2",)},
        proc={("a", "s1", 1): 2, ("a", "s2", 1): 3,
              ("b", "s1", 1): 3, ("b", "s2", 1): 2},
        transport={("m1", "m2"): 1},
        workers_total=2,
    )


def test_encoding_pins_each_machine_choice_to_one_value():
    inst = make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s1", "s2"]},
        stage_machines={"s1": ("m11", "m12"), "s2": ("m21",)},
        proc={("a", "s1", 1): 2, ("a", "s2", 1): 3,
              ("b", "s1", 1): 3, ("b", "s2", 1): 2},
        transport={("m11", "m21"): 1, ("m12", "m21"): 2},
    )
    enc = build_sub(inst, fixed({"a": ("m12", "m21"), "b": ("m11", "m21")}))
    assert enc.ops == (("a", "s1"), ("a", "s2"), ("b", "s1"), ("b", "s2"))
    assert len(enc.model.tasks) == 12
    # one worker choice and one machine choice per operation; the machine
    # choice has the pinned machine's index as its only value
    assert {cid: c.values for cid, c in enc.model.choices.items() if c.kind == "machine"} == {
        "m0": (1,), "m1": (0,), "m2": (0,), "m3": (0,)}
    assert sum(c.kind == "worker" for c in enc.model.choices.values()) == 4
    # each machine's group holds only the operations pinned to it
    groups = {d.id: [m.task for m in d.members] for d in enc.model.constraints.disjunctives}
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
    res = solve_sub(inst, fixed({"j": ("m1", "m2")}))
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
    res = solve_sub(inst, fixed({"a": ("m1",), "b": ("m1",)}))
    assert res.zeta == 7
    for op in inst.ops():
        lo, hi = res.schedule.wait_before[op]
        assert lo == hi
        lo, hi = res.schedule.wait_after[op]
        assert lo == hi


def test_two_job_two_stage_optimum_with_overlap():
    inst = two_stage_instance()
    res = solve_sub(inst, fixed({"a": ("m1", "m2"), "b": ("m1", "m2")}))
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
    res = solve_sub(inst, fixed({"a": ("m1",), "b": ("m2",)}))
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
            seq: dict[str, tuple[str, ...]] = {}
            for (j, _), m in zip(ops, combo):
                seq[j] = seq.get(j, ()) + (m,)
            res = solve_sub(inst, fixed(seq))
            assert res.status == "optimal"
            best = res.zeta if best is None else min(best, res.zeta)
        assert best == brute_force_optimum(inst)


def test_schedule_repeats_the_fixed_machines():
    inst = two_stage_instance()
    res = solve_sub(inst, fixed({"a": ("m1", "m2"), "b": ("m1", "m2")}))
    assert res.schedule.machine_of[("a", "s1")] == "m1"
    assert res.schedule.machine_of[("b", "s2")] == "m2"


def test_malformed_machine_sequences_are_rejected():
    inst = two_stage_instance()
    with pytest.raises(ValueError, match="does not cover"):
        solve_sub(inst, fixed({"a": ("m1",), "b": ("m1", "m2")}))
    with pytest.raises(ValueError, match="not in stage"):
        solve_sub(inst, fixed({"a": ("m2", "m2"), "b": ("m1", "m2")}))
    with pytest.raises(ValueError, match="does not cover"):
        solve_sub(inst, fixed({"a": ("m1", "m2")}))


def test_floor_below_the_optimum_changes_nothing():
    inst = two_stage_instance()
    seq = {"a": ("m1", "m2"), "b": ("m1", "m2")}
    plain = solve_sub(inst, fixed(seq))
    floored = solve_sub(inst, fixed(seq), lb_floor=5)
    assert floored.zeta == plain.zeta == 8
    assert floored.lower_bound >= 5
    assert validate_schedule(inst, floored.schedule) == []


def test_subproblem_is_deterministic_across_seeds():
    rng = random.Random(4202)
    inst = sample_tiny(rng)
    seq = {j: tuple(inst.machines_of(s)[0] for s in inst.eligible_stages[j])
           for j in inst.jobs}
    a = solve_sub(inst, fixed(seq))
    b = solve_sub(inst, fixed(seq))
    assert (a.zeta, a.nodes, a.status) == (b.zeta, b.nodes, b.status)
    assert a.schedule.process == b.schedule.process

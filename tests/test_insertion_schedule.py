"""The constructive warm start: feasible, never longer than the serial
schedule on the same machines, repeatable, and pinned on a few rows."""

from dataclasses import replace

import pytest

from conftest import make_instance
from hffs.bounds import relaxed_times
from hffs.engine import check_assignment
from hffs.full_model import schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.master import build_master
from hffs.model import insertion_schedule, serial_schedule, validate_schedule

SIZES = (2, 3, 5, 8, 13, 20, 35, 50)


def family(group, variant):
    for jobs in SIZES:
        for seed in range(2):
            if group == 1:
                yield generate(GenSpec(group=1, jobs=jobs, seed=seed))
            else:
                stages = 2 + (jobs + seed) % 3
                yield generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=variant,
                                       seed=seed))


def spread(inst):
    """A valid machine map other than the serial one: a stage's k-th
    operation on its (k mod machines)-th machine."""
    seen = {s: 0 for s in inst.stages}
    machine_of = {}
    for j, s in inst.ops():
        ms = inst.machines_of(s)
        machine_of[(j, s)] = ms[seen[s] % len(ms)]
        seen[s] += 1
    return machine_of


def buffers_at_one(inst):
    return replace(inst, buffer_in=dict.fromkeys(inst.machines, 1),
                   buffer_out=dict.fromkeys(inst.machines, 1))


def assert_sound(inst, machine_of=None):
    sched = insertion_schedule(inst, machine_of)
    assert validate_schedule(inst, sched) == []
    assert sched.makespan <= serial_schedule(inst, machine_of).makespan
    assert insertion_schedule(inst, machine_of) == sched
    if machine_of is not None:
        assert sched.machine_of == machine_of
    return sched


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("tight", [False, True], ids=["buffers", "buffers-at-1"])
@pytest.mark.parametrize("group, variant", [(1, None), (2, 1), (2, 2)])
def test_the_insertion_schedule_is_feasible_and_never_longer_than_the_serial_one(
        group, variant, tight, pinned):
    for inst in family(group, variant):
        if tight:
            inst = buffers_at_one(inst)
        assert_sound(inst, spread(inst) if pinned else None)


# (spec, buffers at 1) -> makespan; the serial makespans are 329, 1356, 1689,
# 5858 and 329.
PINNED = {
    ("g2_20_3_2_0", False): 66,
    ("g1_20_1", False): 94,
    ("g2_100_3_2_0", False): 294,
    ("g1_100_0", False): 390,
    ("g2_20_3_2_0", True): 64,
}
SPECS = {
    "g2_20_3_2_0": GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0),
    "g1_20_1": GenSpec(group=1, jobs=20, seed=1),
    "g2_100_3_2_0": GenSpec(group=2, jobs=100, stages=3, variant=2, seed=0),
    "g1_100_0": GenSpec(group=1, jobs=100, seed=0),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=str)
def test_insertion_makespans_are_pinned(key):
    name, tight = key
    inst = generate(SPECS[name])
    if tight:
        inst = buffers_at_one(inst)
    assert assert_sound(inst).makespan == PINNED[key]


def test_a_job_that_would_end_past_its_serial_step_takes_it():
    """j2's fastest first machine is mB, 50 time units from s2's machine:
    its placement would end at 53, past the makespan 12 plus its serial
    chain of 4, so it runs its chain on the first machines from 12."""
    inst = make_instance(
        jobs={"j1": ["s1", "s2"], "j2": ["s1", "s2"]},
        stage_machines={"s1": ("mA", "mB"), "s2": ("mC",)},
        proc={("j1", "s1", 1): 10, ("j1", "s2", 1): 1,
              ("j2", "s1", 1): 2, ("j2", "s2", 1): 1},
        transport={("mA", "mC"): 1, ("mB", "mC"): 50},
        workers_total=2,
    )
    sched = assert_sound(inst)
    assert sched.process == {("j1", "s1"): (0, 10), ("j1", "s2"): (11, 12),
                             ("j2", "s1"): (12, 14), ("j2", "s2"): (15, 16)}
    assert sched.machine_of[("j2", "s1")] == "mA"
    assert sched.makespan == 16


@pytest.mark.parametrize("entry, exit_, wait_before, wait_after, first", [
    (1, 0, (12, 22), (11, 11), (1, 11)),  # the wait sits in mC's entry buffer
    (0, 1, (22, 22), (11, 21), (1, 11)),  # no entry room: in mA's exit buffer
    (0, 0, (22, 22), (21, 21), (11, 21)),  # no room: j2 arrives 10 later
])
def test_a_wait_goes_to_the_entry_buffer_then_the_exit_buffer_then_a_later_arrival(
        entry, exit_, wait_before, wait_after, first):
    """j1 holds mC on [2, 22); j2 reaches mC at 12 and waits 10."""
    inst = make_instance(
        jobs={"j1": ["s1", "s2"], "j2": ["s1", "s2"]},
        stage_machines={"s1": ("mA",), "s2": ("mC",)},
        proc={("j1", "s1", 1): 1, ("j1", "s2", 1): 20,
              ("j2", "s1", 1): 10, ("j2", "s2", 1): 1},
        transport={("mA", "mC"): 1},
        workers_total=2,
        buffer_in={"mC": entry},
        buffer_out={"mA": exit_},
    )
    sched = assert_sound(inst)
    assert sched.process[("j1", "s2")] == (2, 22)
    assert sched.process[("j2", "s1")] == first
    assert sched.wait_after[("j2", "s1")] == wait_after
    assert sched.wait_before[("j2", "s2")] == wait_before
    assert sched.process[("j2", "s2")] == (22, 23)
    assert sched.makespan == 23


def test_the_masters_hint_keeps_its_relaxed_durations():
    """The insertion start gives some operations more than the fastest
    duration; the master's task starts there and keeps its own."""
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))
    start = insertion_schedule(inst)
    relaxed = relaxed_times(inst)
    slower = [op for op, (lo, hi) in start.process.items() if hi - lo > relaxed[op]]
    assert slower
    enc = build_master(inst, [], 0, horizon=start.makespan)
    asg = schedule_to_assignment(enc, start)
    assert check_assignment(enc.model, asg) == []
    for k, op in enumerate(enc.ops):
        assert asg.starts[f"pr{k}"] == start.process[op][0]
        assert asg.ends[f"pr{k}"] - asg.starts[f"pr{k}"] == relaxed[op]

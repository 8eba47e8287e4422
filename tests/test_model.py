"""Instance and schedule data model: validation, baseline schedule, JSON."""

import random
import re
from dataclasses import replace

import pytest

from conftest import make_instance, sample_tiny

from hffs.instance_gen import GenSpec, generate
from hffs.model import (
    Schedule,
    instance_from_json,
    instance_to_json,
    makespan_of,
    schedule_from_json,
    schedule_to_json,
    serial_schedule,
    validate_instance,
    validate_schedule,
)


def two_stage_instance():
    return make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s1", "s2"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"]},
        proc={
            ("a", "s1", 1): 2,
            ("a", "s2", 1): 3,
            ("b", "s1", 1): 2,
            ("b", "s2", 1): 2,
        },
        transport={("m1", "m2"): 1},
        workers_total=2,
    )


def test_valid_instance_has_no_violations():
    assert validate_instance(two_stage_instance()) == []


def test_missing_transport_is_flagged():
    inst = make_instance(
        jobs={"a": ["s1", "s2"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"]},
        proc={("a", "s1", 1): 2, ("a", "s2", 1): 3},
        transport={},
    )
    assert any("transport" in v for v in validate_instance(inst))


def test_missing_transport_entries_are_listed_in_order():
    # two machines per stage; job b skips s2, so s1 -> s3 pairs are needed too
    inst = make_instance(
        jobs={"a": ["s1", "s2", "s3"], "b": ["s1", "s3"]},
        stage_machines={"s1": ["m1", "m2"], "s2": ["m3", "m4"], "s3": ["m5", "m6"]},
        proc={
            ("a", "s1", 1): 2,
            ("a", "s2", 1): 3,
            ("a", "s3", 1): 1,
            ("b", "s1", 1): 2,
            ("b", "s3", 1): 2,
        },
        transport={("m1", "m3"): 1, ("m2", "m5"): 2, ("m5", "m1"): 1},
    )
    missing = [v for v in validate_instance(inst) if v.startswith("missing transport")]
    assert missing == [
        f"missing transport entry for machine pair {m} -> {n}"
        for m, n in (
            ("m1", "m4"), ("m1", "m5"), ("m1", "m6"), ("m2", "m3"), ("m2", "m4"),
            ("m2", "m6"), ("m3", "m5"), ("m3", "m6"), ("m4", "m5"), ("m4", "m6"),
        )
    ]


def test_missing_processing_entry_is_flagged():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", 1): 2},
        transport={},
        workers_total=2,
        workers_max={"s1": 2},
    )
    assert any("proc" in v.lower() or "worker" in v.lower() for v in validate_instance(inst))


@pytest.mark.parametrize(
    "table, key, value, message",
    [
        ("eligible_stages", "ghost", ("s1",), "eligible stages listed for unknown job ghost"),
        ("buffer_in", "ghost_m", 1, "entry buffer capacity listed for unknown machine ghost_m"),
        ("buffer_out", "ghost_m", 1, "exit buffer capacity listed for unknown machine ghost_m"),
        ("transport", ("ghost_m", "m2"), 1,
         "transport time listed for unknown machine pair ghost_m -> m2"),
        ("workers_min", "ghost_s", 1, "minimum worker count listed for unknown stage ghost_s"),
        ("workers_max", "ghost_s", 1, "maximum worker count listed for unknown stage ghost_s"),
    ],
    ids=["eligible_stages", "buffer_in", "buffer_out", "transport", "workers_min", "workers_max"],
)
def test_an_entry_keyed_by_an_unknown_id_is_flagged(table, key, value, message):
    inst = two_stage_instance()
    ghost = replace(inst, **{table: {**getattr(inst, table), key: value}})
    assert validate_instance(ghost) == [message]


def test_each_row_of_a_non_eligible_pair_is_named():
    inst = two_stage_instance()
    lost = replace(inst, eligible_stages={**inst.eligible_stages, "b": ("s1",)},
                   proc_time={**inst.proc_time, ("b", "s2", 2): 1})
    assert validate_instance(lost) == [
        "processing time listed for non-eligible pair (b,s2,1)",
        "processing time listed for non-eligible pair (b,s2,2)",
    ]


def test_machines_of_lists_a_stage_in_machine_order():
    inst = replace(two_stage_instance(), machines={"m3": "s1", "m2": "s2", "m1": "s1"})
    assert inst.machines_of("s1") == ("m3", "m1")
    assert inst.machines_of("s2") == ("m2",)
    assert inst.machines_of("ghost") == ()


def test_validate_instance_returns_a_fresh_list_each_call():
    inst = replace(two_stage_instance(), workers_total=0)
    first, second = validate_instance(inst), validate_instance(inst)
    assert first == second and first is not second
    first.clear()
    assert validate_instance(inst) == second != []


def test_a_replaced_instance_is_validated_afresh():
    inst = two_stage_instance()
    assert validate_instance(inst) == []
    assert "workers_total must be positive" in validate_instance(replace(inst, workers_total=0))
    assert validate_instance(inst) == []


def test_serial_schedule_is_feasible_and_sums_chain():
    inst = two_stage_instance()
    sched = serial_schedule(inst)
    assert validate_schedule(inst, sched) == []
    # a: 2+1+3, then b: 2+1+2 back to back
    assert sched.makespan == 11
    assert makespan_of(sched) == 11


def test_serial_schedule_respects_machine_choice():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ["m1", "m2"]},
        proc={("a", "s1", 1): 4},
        transport={},
    )
    sched = serial_schedule(inst, machine_of={("a", "s1"): "m2"})
    assert sched.machine_of[("a", "s1")] == "m2"
    assert validate_schedule(inst, sched) == []


def test_serial_schedule_feasible_on_sampled_instances():
    rng = random.Random(4242)
    for _ in range(25):
        inst = sample_tiny(rng)
        assert validate_instance(inst) == []
        assert validate_schedule(inst, serial_schedule(inst)) == []


def test_makespan_of_empty_schedule_raises():
    empty = Schedule({}, {}, {}, {}, {}, 0)
    with pytest.raises(ValueError):
        makespan_of(empty)


def test_validator_rejects_machine_overlap():
    inst = two_stage_instance()
    sched = serial_schedule(inst)
    pr = dict(sched.process)
    wb = dict(sched.wait_before)
    wa = dict(sched.wait_after)
    # drag b's first operation onto a's slot on m1
    pr[("b", "s1")] = pr[("a", "s1")]
    wb[("b", "s1")] = (pr[("a", "s1")][0],) * 2
    wa[("b", "s1")] = (pr[("a", "s1")][1],) * 2
    bad = Schedule(sched.machine_of, sched.workers_of, wb, pr, wa, sched.makespan)
    assert validate_schedule(inst, bad)


def test_validator_rejects_broken_transport_gap():
    inst = two_stage_instance()
    sched = serial_schedule(inst)
    wb = dict(sched.wait_before)
    lo, hi = wb[("a", "s2")]
    wb[("a", "s2")] = (lo - 1, hi)  # arrive one tick too early
    bad = Schedule(
        sched.machine_of, sched.workers_of, wb, sched.process, sched.wait_after, sched.makespan
    )
    assert validate_schedule(inst, bad)


def test_validator_rejects_wrong_makespan():
    inst = two_stage_instance()
    sched = serial_schedule(inst)
    bad = Schedule(
        sched.machine_of,
        sched.workers_of,
        sched.wait_before,
        sched.process,
        sched.wait_after,
        sched.makespan + 1,
    )
    assert validate_schedule(inst, bad)


def test_validator_rejects_buffer_overflow():
    # single entry-buffer slot at m2 cannot hold two waiting jobs at once
    inst = make_instance(
        jobs={"a": ["s1", "s2"], "b": ["s1", "s2"]},
        stage_machines={"s1": ["m1", "m1b"], "s2": ["m2"]},
        proc={
            ("a", "s1", 1): 2,
            ("a", "s2", 1): 6,
            ("b", "s1", 1): 2,
            ("b", "s2", 1): 2,
        },
        transport={("m1", "m2"): 1, ("m1b", "m2"): 1},
        workers_total=3,
        buffer_in={"m2": 1},
    )
    machine_of = {("a", "s1"): "m1", ("a", "s2"): "m2", ("b", "s1"): "m1b", ("b", "s2"): "m2"}
    workers_of = {op: 1 for op in machine_of}
    wb = {
        ("a", "s1"): (0, 0),
        ("a", "s2"): (3, 3),
        ("b", "s1"): (0, 0),
        ("b", "s2"): (3, 9),  # waits in m2's only slot while a processes
    }
    pr = {
        ("a", "s1"): (0, 2),
        ("a", "s2"): (3, 9),
        ("b", "s1"): (0, 2),
        ("b", "s2"): (9, 11),
    }
    wa = {
        ("a", "s1"): (2, 2),
        ("a", "s2"): (9, 9),
        ("b", "s1"): (2, 2),
        ("b", "s2"): (11, 11),
    }
    ok = Schedule(machine_of, workers_of, wb, pr, wa, 11)
    assert validate_schedule(inst, ok) == []
    # second waiting job in the same slot overflows capacity 1
    wb2 = dict(wb)
    pr2 = dict(pr)
    wa2 = dict(wa)
    # push a's processing later so a also waits in the entry buffer
    wb2[("a", "s2")] = (3, 4)
    pr2[("a", "s2")] = (4, 10)
    wa2[("a", "s2")] = (10, 10)
    wb2[("b", "s2")] = (3, 10)
    pr2[("b", "s2")] = (10, 12)
    wa2[("b", "s2")] = (12, 12)
    bad = Schedule(machine_of, workers_of, wb2, pr2, wa2, 12)
    assert any("buffer" in v for v in validate_schedule(inst, bad))


def test_instance_json_round_trip():
    inst = two_stage_instance()
    again = instance_from_json(instance_to_json(inst))
    assert again == inst


def test_instance_json_round_trip_sampled():
    rng = random.Random(99)
    for _ in range(10):
        inst = sample_tiny(rng)
        assert instance_from_json(instance_to_json(inst)) == inst


@pytest.mark.parametrize(
    "spec",
    [GenSpec(group=1, jobs=20, seed=0), GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0)],
    ids=["group1-20", "group2-20"],
)
def test_generated_instance_json_round_trip(spec):
    inst = generate(spec)
    assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_json_rejects_unknown_field():
    import json

    blob = json.loads(instance_to_json(two_stage_instance()))
    blob["surprise"] = 1
    with pytest.raises(ValueError):
        instance_from_json(json.dumps(blob))


def test_schedule_json_round_trip():
    inst = two_stage_instance()
    sched = serial_schedule(inst)
    again = schedule_from_json(schedule_to_json(sched))
    assert again == sched


def test_schedule_json_rejects_unknown_field():
    import json

    blob = json.loads(schedule_to_json(serial_schedule(two_stage_instance())))
    blob["oops"] = []
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps(blob))


def _instance_blob():
    import json

    return json.loads(instance_to_json(two_stage_instance()))


@pytest.mark.parametrize(
    "field, row, key",
    [("transport", 0, "t"), ("machines", 0, "stage"), ("proc_time", 0, "p")],
)
def test_instance_json_names_a_missing_row_field(field, row, key):
    import json

    blob = _instance_blob()
    del blob[field][row][key]
    with pytest.raises(ValueError, match=rf"misses fields: \['{key}'\]"):
        instance_from_json(json.dumps(blob))


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("jobs", "abc", "jobs"),
        ("stages", {"s1": 1}, "stages"),
        ("machines", "m1", "machine"),
        ("transport", [1], "transport row"),
        ("eligible_stages", ["s1"], "eligible_stages"),
        ("buffer_in", [1], "buffer_in"),
        ("buffer_out", 3, "buffer_out"),
        ("workers_min", "1", "workers_min"),
        ("workers_max", None, "workers_max"),
    ],
)
def test_instance_json_rejects_ill_shaped_fields(field, value, where):
    import json

    blob = _instance_blob()
    blob[field] = value
    with pytest.raises(ValueError, match=f"^{where}: expected a JSON"):
        instance_from_json(json.dumps(blob))


def test_instance_json_rejects_a_non_array_stage_chain():
    import json

    blob = _instance_blob()
    blob["eligible_stages"]["a"] = "s1"
    with pytest.raises(ValueError, match="eligible_stages.a"):
        instance_from_json(json.dumps(blob))


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda b: b.__setitem__("machine_of", []), "machine_of"),
        (lambda b: b.__setitem__("workers_of", 2), "workers_of"),
        (lambda b: b.__setitem__("intervals", "x"), "intervals"),
        (lambda b: b["intervals"].__setitem__("a|s1", [0, 1]), "intervals.a|s1"),
        (lambda b: b["intervals"]["a|s1"].pop("pr"), "interval fields for a|s1"),
    ],
)
def test_schedule_json_rejects_ill_shaped_fields(mutate, where):
    import json

    blob = json.loads(schedule_to_json(serial_schedule(two_stage_instance())))
    mutate(blob)
    with pytest.raises(ValueError, match=f"^{re.escape(where)}"):
        schedule_from_json(json.dumps(blob))

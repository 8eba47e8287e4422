"""Relaxed master: machine choice + sequencing under relaxed durations."""

import random

import pytest

from conftest import make_instance, sample_tiny
from hffs.bounds import best_lb
from hffs.lbbd import BendersCut
from hffs.master import relaxed_duration, solve_master
from oracles import brute_force_optimum


def test_relaxed_duration_is_the_worker_minimum():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ("m1",)},
        proc={("a", "s1", 1): 9, ("a", "s1", 2): 5, ("a", "s1", 3): 3},
        transport={},
        workers_total=3,
    )
    assert relaxed_duration(inst, "a", "s1") == 3


def test_master_never_exceeds_the_true_optimum():
    # The master drops buffers, worker menus and exact transport offsets, so
    # its proven bound and its incumbent must stay at or below the optimum.
    rng = random.Random(4101)
    for _ in range(8):
        inst = sample_tiny(rng)
        opt = brute_force_optimum(inst)
        sol = solve_master(inst, [], 0)
        assert sol.status == "optimal"
        assert sol.lower_bound <= opt
        assert sol.objective <= opt


def test_single_stage_master_packs_two_machines():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"], "c": ["s1"]},
        stage_machines={"s1": ("m1", "m2")},
        proc={("a", "s1", 1): 2, ("b", "s1", 1): 2, ("c", "s1", 1): 4},
        transport={},
        workers_total=2,
    )
    sol = solve_master(inst, [], 0)
    # loads 2+2+4 over two machines: pair the short jobs against the long one
    assert sol.objective == 4
    assert sol.lower_bound == 4
    assert sol.status == "optimal"
    assert set(sol.machine_seq) == {"a", "b", "c"}
    assert all(len(seq) == 1 and seq[0] in ("m1", "m2")
               for seq in sol.machine_seq.values())


def test_transport_acts_as_a_minimum_delay():
    inst = make_instance(
        jobs={"j": ["s1", "s2"]},
        stage_machines={"s1": ("m1",), "s2": ("m21", "m22")},
        proc={("j", "s1", 1): 3, ("j", "s2", 1): 4},
        transport={("m1", "m21"): 9, ("m1", "m22"): 2},
    )
    sol = solve_master(inst, [], 0)
    assert sol.objective == 3 + 2 + 4
    assert sol.machine_seq["j"] == ("m1", "m22")


def test_objective_floor_lifts_bound_and_incumbent():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ("m1",)},
        proc={("a", "s1", 1): 3},
        transport={},
    )
    sol = solve_master(inst, [], 44)
    assert sol.objective == 44
    assert sol.lower_bound == 44
    assert sol.status == "optimal"


def test_floor_from_bound_module_is_respected():
    rng = random.Random(4102)
    for _ in range(6):
        inst = sample_tiny(rng)
        floor = best_lb(inst).best
        sol = solve_master(inst, [], floor)
        assert sol.lower_bound >= floor


def test_cut_on_forced_fingerprint_raises_the_bound():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"]},
        stage_machines={"s1": ("m1",)},
        proc={("a", "s1", 1): 3, ("b", "s1", 1): 4},
        transport={},
    )
    fp = ((("a", "s1"), "m1"), (("b", "s1"), "m1"))
    sol = solve_master(inst, [BendersCut(fp, 45)], 0)
    # the single machine makes the fingerprint unavoidable
    assert sol.objective == 45
    assert sol.lower_bound == 45
    assert sol.status == "optimal"


def test_master_routes_around_a_cut_fingerprint():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ("m11", "m12")},
        proc={("a", "s1", 1): 3},
        transport={},
    )
    cut = BendersCut(((("a", "s1"), "m11"),), 45)
    sol = solve_master(inst, [cut], 0)
    assert sol.machine_seq["a"] == ("m12",)
    assert sol.objective == 3
    assert sol.lower_bound == 3


def test_master_rejects_invalid_instances():
    inst = make_instance(
        jobs={"j": ["s1", "s2"]},
        stage_machines={"s1": ("m1",), "s2": ("m2",)},
        proc={("j", "s1", 1): 3, ("j", "s2", 1): 4},
        transport={},  # missing the (m1, m2) entry
    )
    with pytest.raises(ValueError, match="invalid instance"):
        solve_master(inst, [], 0)


def test_master_is_deterministic_across_seeds():
    rng = random.Random(4103)
    inst = sample_tiny(rng)
    a = solve_master(inst, [], 0)
    b = solve_master(inst, [], 0)
    assert (a.machine_seq, a.lower_bound, a.objective, a.nodes, a.status) == (
        b.machine_seq, b.lower_bound, b.objective, b.nodes, b.status)

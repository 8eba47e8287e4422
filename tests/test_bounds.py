"""Lower bounds: hand-evaluated formulas plus soundness against brute force."""

import random
from fractions import Fraction

from conftest import make_instance, sample_tiny

from hffs.bounds import BoundReport, best_lb, lb8_malleable, relaxed_times
from hffs.instance_gen import GenSpec, generate

from oracles import brute_force_optimum, lp_lower_bound


def test_relaxed_times_take_min_over_workers():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", 1): 10, ("a", "s1", 2): 5, ("a", "s1", 3): 4},
        transport={},
        workers_total=3,
    )
    assert relaxed_times(inst)[("a", "s1")] == 4


def test_relaxed_times_single_option():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", 1): 7},
        transport={},
    )
    assert relaxed_times(inst)[("a", "s1")] == 7


def test_relaxed_times_ceiling_derived():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", 1): 9, ("a", "s1", 2): 5, ("a", "s1", 3): 3},
        transport={},
        workers_total=3,
    )
    assert relaxed_times(inst)[("a", "s1")] == 3


def test_lb1_even_load():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"], "c": ["s1"]},
        stage_machines={"s1": ["m1", "m2"]},
        proc={("a", "s1", 1): 5, ("b", "s1", 1): 7, ("c", "s1", 1): 6},
        transport={},
        workers_total=2,
    )
    assert best_lb(inst).lb1 == 9


def test_lb1_rounds_up():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"], "c": ["s1"]},
        stage_machines={"s1": ["m1", "m2"]},
        proc={("a", "s1", 1): 5, ("b", "s1", 1): 7, ("c", "s1", 1): 7},
        transport={},
        workers_total=2,
    )
    assert best_lb(inst).lb1 == 10


def test_shortest_transport_single_transition():
    inst = make_instance(
        jobs={"a": ["s1", "s2"]},
        stage_machines={"s1": ["m1", "m2"], "s2": ["m3"]},
        proc={("a", "s1", 1): 1, ("a", "s2", 1): 1},
        transport={("m1", "m3"): 2, ("m2", "m3"): 5},
    )
    assert best_lb(inst).transport_min["a"] == 2


def test_shortest_transport_two_hops():
    inst = make_instance(
        jobs={"a": ["s1", "s2", "s3"]},
        stage_machines={"s1": ["m1", "m2"], "s2": ["m3"], "s3": ["m4", "m5"]},
        proc={("a", "s1", 1): 1, ("a", "s2", 1): 1, ("a", "s3", 1): 1},
        transport={
            ("m1", "m3"): 2,
            ("m2", "m3"): 5,
            ("m3", "m4"): 4,
            ("m3", "m5"): 1,
        },
    )
    assert best_lb(inst).transport_min["a"] == 3


def test_shortest_transport_single_stage_is_zero():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", 1): 4},
        transport={},
    )
    assert best_lb(inst).transport_min["a"] == 0


def test_shortest_transport_beats_greedy_per_hop_choice():
    # the cheap first hop leads to an expensive second hop; the true
    # shortest path pays more upfront (greedy per-transition gives 1+9=10)
    inst = make_instance(
        jobs={"a": ["s1", "s2", "s3"]},
        stage_machines={"s1": ["m1"], "s2": ["m2", "m3"], "s3": ["m4"]},
        proc={("a", "s1", 1): 1, ("a", "s2", 1): 1, ("a", "s3", 1): 1},
        transport={
            ("m1", "m2"): 1,
            ("m1", "m3"): 3,
            ("m2", "m4"): 9,
            ("m3", "m4"): 2,
        },
    )
    assert best_lb(inst).transport_min["a"] == 5


def test_lb2_job_path_sums_chain():
    inst = make_instance(
        jobs={"a": ["s1", "s2", "s3"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"], "s3": ["m3"]},
        proc={("a", "s1", 1): 4, ("a", "s2", 1): 3, ("a", "s3", 1): 5},
        transport={("m1", "m2"): 1, ("m2", "m3"): 2},
    )
    assert best_lb(inst).lb2 == 15


def test_lb2_single_stage_job():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", 1): 7},
        transport={},
    )
    assert best_lb(inst).lb2 == 7


def test_lb3_adds_arrival_head_to_stage_load():
    # last-stage load 9 on one machine; a skips the middle stage, so the
    # arrival heads are 4 work + 2 transport and (3+2) work + (1+0)
    # transport, both 6, and the bound is 9 + 6 = 15
    inst = make_instance(
        jobs={"a": ["s1", "s3"], "b": ["s1", "s2", "s3"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"], "s3": ["m3"]},
        proc={
            ("a", "s1", 1): 4,
            ("a", "s3", 1): 4,
            ("b", "s1", 1): 3,
            ("b", "s2", 1): 2,
            ("b", "s3", 1): 5,
        },
        transport={("m1", "m2"): 1, ("m2", "m3"): 0, ("m1", "m3"): 2},
    )
    assert best_lb(inst).lb3 == 15


def test_lb3_first_stage_reduces_to_lb1():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", 1): 3, ("b", "s1", 1): 4},
        transport={},
    )
    rep = best_lb(inst)
    assert rep.lb3 == rep.lb1 == 7


def test_lb4_two_machine_example():
    inst = make_instance(
        jobs={"j1": ["s1", "s2"], "j2": ["s1", "s2"]},
        stage_machines={"s1": ["m1", "m2"], "s2": ["m3"]},
        proc={
            ("j1", "s1", 1): 3,
            ("j1", "s2", 1): 4,
            ("j2", "s1", 1): 5,
            ("j2", "s2", 1): 6,
        },
        transport={("m1", "m3"): 1, ("m2", "m3"): 1},
    )
    rep = best_lb(inst)
    assert max(v for v in (rep.lb4, rep.lb5, rep.lb6, rep.lb7) if v is not None) == 5


def test_two_stage_bound_absent_without_shared_jobs():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s2"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"]},
        proc={("a", "s1", 1): 3, ("b", "s2", 1): 4},
        transport={("m1", "m2"): 1},
    )
    rep = best_lb(inst)
    assert (rep.lb4, rep.lb5, rep.lb6, rep.lb7) == (None, None, None, None)


def test_two_stage_skips_degenerate_single_shared_job():
    # one shared job equals the stage-s machine count: the three-term bound
    # would double-count it, so only the two-term bound may fire
    inst = make_instance(
        jobs={"j1": ["s1", "s2"], "j2": ["s2"]},
        stage_machines={"s1": ["m1"], "s2": ["m2"]},
        proc={
            ("j1", "s1", 1): 6,
            ("j1", "s2", 1): 5,
            ("j1", "s2", 2): 3,
            ("j2", "s2", 1): 6,
            ("j2", "s2", 2): 3,
        },
        transport={("m1", "m2"): 1},
        workers_total=3,
    )
    assert brute_force_optimum(inst) == 10
    rep = best_lb(inst)
    for name, value in rep.values().items():
        assert value is None or value <= 10, name


def test_lb8_balanced_load():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"], "c": ["s1"]},
        stage_machines={"s1": ["m1", "m2", "m3"]},
        proc={
            (j, "s1", w): {1: 6, 2: 3, 3: 2}[w]
            for j in ("a", "b", "c")
            for w in (1, 2, 3)
        },
        transport={},
        workers_total=3,
    )
    # total single-worker work 18 over 3 workers dominates the fastest
    # fully-crewed time 2
    assert lb8_malleable(inst) == 6


def test_lb8_per_op_floor_dominates():
    inst = make_instance(
        jobs={"a": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", w): {1: 7, 2: 4, 3: 3, 4: 2, 5: 2, 6: 2, 7: 1, 8: 1}[w] for w in range(1, 9)},
        transport={},
        workers_total=8,
    )
    # 7/8 rounds far below the fastest processing time 1... the floor is
    # the time at the full crew: max(7/8, 1) -> 1
    assert lb8_malleable(inst) == 1


def test_lb8_single_worker_serializes():
    inst = make_instance(
        jobs={"a": ["s1"], "b": ["s1"]},
        stage_machines={"s1": ["m1"]},
        proc={("a", "s1", 1): 3, ("b", "s1", 1): 4},
        transport={},
        workers_total=1,
    )
    assert lb8_malleable(inst) == 7


def test_best_lb_is_max_of_parts():
    rng = random.Random(777)
    for _ in range(30):
        inst = sample_tiny(rng)
        rep = best_lb(inst)
        present = [v for v in rep.values().values() if v is not None]
        assert rep.best == max(present)


def test_report_tables_match_module_functions():
    rng = random.Random(778)
    inst = sample_tiny(rng)
    rep = best_lb(inst)
    assert rep.relaxed_times == relaxed_times(inst)


def test_bounds_sound_on_tight_buffer_samples():
    rng = random.Random(515)
    checked = 0
    while checked < 30:
        inst = sample_tiny(rng)
        if all(
            inst.buffer_in[m] >= len(inst.jobs) and inst.buffer_out[m] >= len(inst.jobs)
            for m in inst.machines
        ):
            continue
        opt = brute_force_optimum(inst)
        for name, value in best_lb(inst).values().items():
            assert value is None or value <= opt, (name, value, opt)
        checked += 1


def test_lb8_equals_exact_lp_value_after_ceiling():
    rng = random.Random(516)
    for _ in range(40):
        inst = sample_tiny(rng)
        exact = lp_lower_bound(inst)
        assert lb8_malleable(inst) == -(-exact.numerator // exact.denominator)


def test_bound_report_json_mentions_every_bound():
    rng = random.Random(517)
    rep = best_lb(sample_tiny(rng))
    blob = rep.to_json()
    for key in ("lb1", "lb2", "lb3", "lb8", "best", "relaxed_times"):
        assert key in blob


# (lb1, ..., lb8, best) per generated instance, keyed by (group, jobs, stages,
# variant, seed).  Frozen so that a rewrite of the bound formulas that
# weakens (or wrongly strengthens) any bound fails here, not only against the
# soundness referees.  lb5, lb6 and lb7 fire on 30, 7 and 9 of these.
PINNED_REPORTS = {
    (2, 5, 2, 1, 0): (7, 15, 7, None, None, None, None, 6, 15),
    (2, 5, 2, 1, 1): (4, 4, 4, None, None, None, None, 5, 5),
    (2, 5, 2, 2, 0): (8, 10, 12, 3, None, None, None, 7, 12),
    (2, 5, 2, 2, 1): (4, 5, 4, None, None, None, None, 6, 6),
    (2, 5, 3, 1, 0): (8, 20, 8, 4, None, None, None, 12, 20),
    (2, 5, 3, 1, 1): (10, 17, 12, 5, None, None, None, 11, 17),
    (2, 5, 3, 2, 0): (8, 16, 14, 2, None, None, 3, 12, 16),
    (2, 5, 3, 2, 1): (11, 23, 22, 4, None, None, None, 13, 23),
    (2, 5, 4, 1, 0): (9, 18, 12, 4, 4, None, None, 15, 18),
    (2, 5, 4, 1, 1): (7, 25, 17, 4, None, None, None, 15, 25),
    (2, 5, 4, 2, 0): (8, 21, 14, 4, 5, 6, 2, 16, 21),
    (2, 5, 4, 2, 1): (8, 16, 16, 4, None, None, 3, 14, 16),
    (2, 20, 2, 1, 0): (25, 11, 25, 2, 3, None, None, 30, 30),
    (2, 20, 2, 1, 1): (25, 11, 25, 3, 4, None, None, 32, 32),
    (2, 20, 2, 2, 0): (41, 8, 41, 2, 4, None, None, 30, 41),
    (2, 20, 2, 2, 1): (24, 11, 24, 2, 3, None, None, 33, 33),
    (2, 20, 3, 1, 0): (26, 21, 26, 3, 3, None, None, 45, 45),
    (2, 20, 3, 1, 1): (29, 19, 29, 3, 4, None, None, 53, 53),
    (2, 20, 3, 2, 0): (53, 22, 53, 1, 5, 5, 2, 50, 53),
    (2, 20, 3, 2, 1): (53, 28, 57, 2, 5, None, None, 51, 57),
    (2, 20, 4, 1, 0): (27, 28, 27, 3, 4, None, None, 64, 64),
    (2, 20, 4, 1, 1): (31, 27, 31, 3, 4, None, None, 71, 71),
    (2, 20, 4, 2, 0): (45, 28, 45, 3, 5, 5, 3, 64, 64),
    (2, 20, 4, 2, 1): (52, 33, 52, 2, 6, 6, 2, 70, 70),
    (2, 50, 2, 1, 0): (71, 12, 71, 3, 3, None, None, 84, 84),
    (2, 50, 2, 1, 1): (71, 13, 71, 2, 3, None, None, 87, 87),
    (2, 50, 2, 2, 0): (121, 12, 121, 3, 5, None, None, 86, 121),
    (2, 50, 2, 2, 1): (60, 12, 60, 2, 3, None, None, 86, 86),
    (2, 50, 3, 1, 0): (60, 18, 60, 3, 3, None, None, 116, 116),
    (2, 50, 3, 1, 1): (68, 18, 68, 3, 3, None, None, 131, 131),
    (2, 50, 3, 2, 0): (120, 26, 120, 2, 6, 4, 1, 117, 120),
    (2, 50, 3, 2, 1): (128, 16, 128, 3, 6, None, None, 133, 133),
    (2, 50, 4, 1, 0): (73, 28, 73, 3, 3, None, None, 174, 174),
    (2, 50, 4, 1, 1): (67, 29, 67, 3, 3, None, None, 172, 172),
    (2, 50, 4, 2, 0): (122, 30, 122, 3, 4, 4, 3, 173, 173),
    (2, 50, 4, 2, 1): (120, 30, 120, 3, 4, 5, 1, 178, 178),
    (1, 20, None, None, 0): (8, 36, 30, 1, 1, None, None, 65, 65),
    (1, 20, None, None, 1): (8, 37, 28, 1, 1, None, None, 62, 62),
    (1, 100, None, None, 0): (36, 41, 48, 1, 1, None, None, 331, 331),
    (1, 100, None, None, 1): (34, 39, 47, 1, 1, None, None, 316, 316),
}


def test_generated_reports_are_pinned():
    for (group, jobs, stages, variant, seed), expected in PINNED_REPORTS.items():
        rep = best_lb(generate(GenSpec(group, jobs, stages, variant, seed)))
        got = (*rep.values().values(), rep.best)
        assert got == expected, ((group, jobs, stages, variant, seed), got)

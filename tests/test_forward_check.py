"""A choice frame drops only values whose child fails.

Before it pushes a choice frame, ``_Search.process`` keeps the values that
no direct watcher of the choice refutes on the node's own fixpoint
(``_Compiled.forward_check``).  At every such call of a real search, on tiny
group 2 full models and masters, each refuted value's child, built by
``_apply`` from the node's state and propagated, must fail, and the kept
values must keep the frame's order.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hffs.bounds import best_lb
from hffs.engine import INF, KINDS, _apply, _Compiled, solve
from hffs.full_model import build_full, schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.master import build_master
from hffs.model import serial_schedule


def checked_search(kind, jobs, stages, seed, budget):
    """Search an encoding from its serial hint; return the result and each
    forward check as (compiled model, node state, choice, values, kept)."""
    inst = generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=1, seed=seed))
    base = serial_schedule(inst)
    floor = best_lb(inst).best
    if kind == "full":
        enc = build_full(inst, horizon=base.makespan, lb_floor=floor)
    else:
        enc = build_master(inst, [], floor, horizon=base.makespan)
    checks = []
    forward_check = _Compiled.forward_check

    def recording(comp, state, c, values):
        kept = forward_check(comp, state, c, values)
        checks.append((comp, state.copy(), c, values, kept))
        return kept

    with mock.patch.object(_Compiled, "forward_check", recording):
        res = solve(enc.model, node_budget=budget, hint=schedule_to_assignment(enc, base))
    return res, checks


def refuted_children_fail(checks) -> int:
    """Assert that every refuted value's child fails and the kept values
    keep their order; return the number of refuted values."""
    refuted = 0
    for comp, state, c, values, kept in checks:
        assert list(kept) == [v for v in values if v in kept]
        for v in values:
            if v in kept:
                continue
            refuted += 1
            child = state.copy()
            _apply(child, ("choice", c), v)
            assert comp.propagate(child, INF, ("choice", c)) is not None, (c, v)
    return refuted


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("full", "master")), jobs=st.integers(3, 4),
       stages=st.integers(2, 3), seed=st.integers(0, 10_000),
       budget=st.sampled_from((60, 300)))
def test_every_refuted_value_gives_a_failing_child(kind, jobs, stages, seed, budget):
    res, checks = checked_search(kind, jobs, stages, seed, budget)
    assert refuted_children_fail(checks) == sum(res.refuted.values())


def test_each_probed_kind_refutes_on_a_tiny_instance():
    """Group 2, 3 jobs, 3 stages, seed 0, at 60 nodes: menu windows, delta
    tables and routed disjunctive members each refute a value, and no
    cumulative is probed.  The count was re-recorded (16 -> 24) when a node
    became a leaf once its earliest-start schedule fits: the same 60 nodes
    reach further into the tree."""
    res, checks = checked_search("full", 3, 3, 0, 60)
    assert refuted_children_fail(checks) == 24
    assert [res.refuted[k] for k in KINDS] == [17, 6, 1, 0]

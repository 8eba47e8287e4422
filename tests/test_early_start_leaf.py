"""A node is a leaf once every choice is decided and its earliest-start
schedule fits every group.

``_Compiled.earliest_fits`` is the engine's only leaf rule after the choices:
at every call of a real search, on tiny group 2 full models, masters and
subproblems, its verdict must be the constraint checker's on the schedule
that the leaf would record (``extract``: each task over [s_lo, e_lo)).  With
the rule turned off, the search fixes starts one node at a time down to the
same leaves, so on the tiny suite turning it on finds the same incumbents in
the same order at no later node, and at any budget ends with no higher
upper bound and no lower proven bound.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hffs.bounds import best_lb
from hffs.engine import _Compiled, check_assignment, solve
from hffs.full_model import build_full, schedule_to_assignment, solve_full
from hffs.instance_gen import GenSpec, generate
from hffs.master import build_master, solve_master
from hffs.model import insertion_schedule, serial_schedule
from hffs.subproblem import build_sub


def recorded_tests(kind, jobs, stages, seed, budget):
    """Search an encoding from its serial hint; return each leaf test as
    (model, compiled model, node state, verdict)."""
    inst = generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=1, seed=seed))
    floor = best_lb(inst).best
    if kind == "sub":
        msol = solve_master(inst, [], floor, node_budget=25, start=serial_schedule(inst))
        base = serial_schedule(inst, msol.machine_of)
        enc = build_sub(inst, msol, horizon=base.makespan, lb_floor=max(floor, msol.lower_bound))
    else:
        base = serial_schedule(inst)
        if kind == "full":
            enc = build_full(inst, horizon=base.makespan, lb_floor=floor)
        else:
            enc = build_master(inst, [], floor, horizon=base.makespan)
    tests = []
    earliest_fits = _Compiled.earliest_fits

    def recording(comp, state):
        verdict = earliest_fits(comp, state)
        tests.append((enc.model, comp, state.copy(), verdict))
        return verdict

    with mock.patch.object(_Compiled, "earliest_fits", recording):
        solve(enc.model, node_budget=budget, hint=schedule_to_assignment(enc, base))
    return tests


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("full", "master", "sub")), jobs=st.integers(3, 4),
       stages=st.integers(2, 3), seed=st.integers(0, 10_000),
       budget=st.sampled_from((60, 300)))
def test_the_leaf_test_is_the_checkers_verdict(kind, jobs, stages, seed, budget):
    for model, comp, state, verdict in recorded_tests(kind, jobs, stages, seed, budget):
        assert None not in state.values
        assert verdict == (check_assignment(model, comp.extract(state)) == [])


@pytest.mark.parametrize("kind", ["full", "master", "sub"])
def test_the_leaf_test_both_fits_and_fails_on_a_tiny_instance(kind):
    """Group 2, 4 jobs, 3 stages, seed 3, at 300 nodes: some tests fit and
    more fail, so the recorded searches exercise both verdicts."""
    verdicts = [v for *_, v in recorded_tests(kind, 4, 3, 3, 300)]
    assert 0 < verdicts.count(True) < verdicts.count(False)


@pytest.mark.parametrize("nodes", [3, 10, 40, 60, None])
def test_the_leaf_test_keeps_the_incumbents_in_fewer_nodes(suite50, nodes):
    """Against the same search with the test turned off, on the tiny suite
    from the insertion start: the incumbents it finds come first in the same
    order, each at no later node, and ``ub`` is no higher and ``lb`` no
    lower.  Unbounded, both find exactly the same incumbents; under a budget
    the test may reach further and find more."""
    budget = nodes or 2_000_000
    for inst in suite50:
        start, floor = insertion_schedule(inst), best_lb(inst).best
        on, _ = solve_full(inst, start=start, lb_floor=floor, node_budget=budget)
        with mock.patch.object(_Compiled, "earliest_fits", lambda comp, state: False):
            off, _ = solve_full(inst, start=start, lb_floor=floor, node_budget=budget)
        assert [obj for _, obj in on.ub_history[:len(off.ub_history)]] == [
            obj for _, obj in off.ub_history]
        assert all(a <= b for (a, _), (b, _) in zip(on.ub_history, off.ub_history))
        if len(on.ub_history) == len(off.ub_history):
            assert on.incumbent == off.incumbent
        assert on.objective <= off.objective
        assert on.lower_bound >= off.lower_bound
        assert on.nodes <= off.nodes
        if nodes is None:  # both searches end, with the same incumbents
            assert len(on.ub_history) == len(off.ub_history)
            assert on.status == off.status == "optimal"

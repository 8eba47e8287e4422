"""Groups are built only where they can bind, and each is checked by one
sweep.

``check_assignment`` sweeps every disjunctive and cumulative once and gives
one message per violated group; it must flag the groups the pairwise rule
and a load count at every start (``oracles.group_violations``) flag, and
name a disjunctive's overlap as one of the pairs that rule finds.  Spans are
drawn on a short horizon, so zero-length, touching and equal-start
intervals are common.  The builders skip any group whose whole member tuple
fits its capacity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hffs.bounds import best_lb
from hffs.engine import (
    Assignment,
    ChoiceVar,
    Cumulative,
    Disjunctive,
    Member,
    TaskVar,
    check_assignment,
)
from hffs.full_model import build_full
from hffs.instance_gen import GenSpec, generate
from hffs.master import build_master
from hffs.model import serial_schedule

from oracles import group_violations
from test_engine import model_of

HORIZON = 6


@st.composite
def grouped_assignments(draw):
    """Elastic tasks on [0, HORIZON], disjunctives and cumulatives whose
    member tuples are shared by one to three groups, members routed and
    weighted by a choice or not, and a complete assignment."""
    choices = [ChoiceVar(f"c{i}", (0, 1, 2)) for i in range(2)]
    tids = [f"t{i}" for i in range(draw(st.integers(1, 6)))]
    maybe_choice = st.sampled_from([None, "c0", "c1"])

    def family(name, make):
        chosen = draw(st.lists(st.sampled_from(tids), max_size=len(tids), unique=True))
        shared = tuple(
            Member(t, weight=draw(st.integers(0, 2)), weight_choice=draw(maybe_choice),
                   on=draw(maybe_choice))
            for t in chosen
        )
        values = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        return [make(f"{name}.{v}", shared, v) for v in values]

    disjunctives = [g for i in range(draw(st.integers(0, 2)))
                    for g in family(f"d{i}", lambda gid, ms, v: Disjunctive(gid, ms, value=v))]
    cumulatives = [g for i in range(draw(st.integers(0, 2)))
                   for g in family(f"r{i}", lambda gid, ms, v: Cumulative(
                       gid, draw(st.integers(0, 3)), ms, value=v))]
    model = model_of([TaskVar(t, elastic=True, lct=HORIZON) for t in tids], choices=choices,
                     disjunctives=disjunctives, cumulatives=cumulatives)
    starts = {t: draw(st.integers(0, HORIZON)) for t in tids}
    ends = {t: draw(st.integers(starts[t], HORIZON)) for t in tids}
    picked = {c.id: draw(st.sampled_from(c.values)) for c in choices}
    return model, Assignment(picked, starts, ends)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=grouped_assignments())
def test_check_assignment_matches_the_pairwise_referee(case):
    model, asg = case
    messages = check_assignment(model, asg)
    violated = group_violations(model, asg)
    assert (messages == []) == (violated == {})
    ids = [message.split(": ")[0].split(" ", 1)[1] for message in messages]
    assert sorted(ids) == sorted(violated)  # one message per violated group
    for message, gid in zip(messages, ids):
        if message.startswith("disjunctive"):
            a, b = message.split(": ", 1)[1].split(" overlaps ")
            assert (a, b) in violated[gid]
            if len(violated[gid]) == 1:
                assert [(a, b)] == violated[gid]


def one_group(spans, routed=None, capacity=None):
    """A disjunctive (or, with ``capacity``, a unit cumulative) over tasks
    a, b, c with the given spans; c is routed by choice r, which takes 0,
    and the group's value is 0 or ``routed``."""
    tids = sorted(spans)
    members = tuple(Member(t, on="r" if t == "c" else None) for t in tids)
    value = 0 if routed is None else routed
    group = (Disjunctive("g", members, value=value) if capacity is None
             else Cumulative("g", capacity, members, value=value))
    model = model_of([TaskVar(t, elastic=True, lct=10) for t in tids],
                     choices=[ChoiceVar("r", (0, 1))],
                     **{"disjunctives" if capacity is None else "cumulatives": [group]})
    return model, Assignment({"r": 0}, {t: s for t, (s, _) in spans.items()},
                             {t: e for t, (_, e) in spans.items()})


@pytest.mark.parametrize("spans, routed, capacity, expected", [
    ({"a": (0, 3), "b": (3, 5), "c": (5, 9)}, None, None, []),  # touching
    ({"a": (2, 2), "b": (0, 5), "c": (5, 5)}, None, None, []),  # zero-length
    ({"a": (1, 4), "b": (1, 2), "c": (6, 7)}, None, None,
     ["disjunctive g: a overlaps b"]),  # equal start: member order
    ({"a": (2, 6), "b": (0, 3), "c": (7, 8)}, None, None,
     ["disjunctive g: b overlaps a"]),  # the open member first
    ({"a": (0, 9), "b": (1, 2), "c": (3, 4)}, None, None,
     ["disjunctive g: a overlaps b"]),  # one message per group
    ({"a": (0, 2), "b": (2, 4), "c": (1, 3)}, None, None,
     ["disjunctive g: a overlaps c"]),  # routed in
    ({"a": (0, 2), "b": (2, 4), "c": (1, 3)}, 1, None, []),  # routed out
    ({"a": (0, 2), "b": (0, 2), "c": (1, 3)}, None, 2, ["cumulative g: capacity 2 exceeded"]),
    ({"a": (0, 2), "b": (2, 4), "c": (1, 3)}, None, 2, []),
])
def test_sweep_cases(spans, routed, capacity, expected):
    model, asg = one_group(spans, routed, capacity)
    assert check_assignment(model, asg) == expected
    assert (expected == []) == (group_violations(model, asg) == {})


def max_loads(model):
    """(group id, the most its whole member tuple can weigh, its capacity)."""
    cons, choices = model.constraints, model.choices
    for g in cons.disjunctives:
        yield g.id, len(g.members), 1
    for g in cons.cumulatives:
        weight = sum(m.weight if m.weight_choice is None else max(choices[m.weight_choice].values)
                     for m in g.members)
        yield g.id, weight, g.capacity


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("spec", [dict(group=1), dict(group=2, stages=3, variant=2)],
                         ids=["group1", "group2"])
def test_no_built_group_fits_its_capacity(spec, seed):
    """Every group of the full model, pinned or not, and of the master can
    exceed its capacity: no member tuple that always fits is built."""
    inst = generate(GenSpec(jobs=20, seed=seed, **spec))
    base = serial_schedule(inst)
    models = [
        build_full(inst, horizon=base.makespan).model,
        build_full(inst, horizon=base.makespan, machine_of=base.machine_of).model,
        build_master(inst, [], best_lb(inst).best, horizon=base.makespan).model,
    ]
    for model in models:
        for gid, load, capacity in max_loads(model):
            assert load > capacity, gid

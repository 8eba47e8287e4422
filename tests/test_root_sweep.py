"""Propagation order on chain-shaped models: the topological root sweep
reaches the round-robin fixpoint on real encodings and settles a long
offset chain in linear work, and windows and links settle before a group
propagator runs."""

import pytest

from hffs.bounds import best_lb
from hffs.engine import (
    INF,
    KINDS,
    ConstraintSet,
    Disjunctive,
    EngineModel,
    Member,
    OffsetLink,
    TaskVar,
    _apply,
    _child_values,
    _pick_branch,
    evaluate_objective,
    root_state,
)
from hffs.full_model import build_full, schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.master import build_master
from hffs.model import serial_schedule

from oracles import RoundRobinFixpoint
from test_engine import bounds_of


def full_model_and_hint(seed=0):
    inst = generate(GenSpec(group=1, jobs=20, seed=seed))
    base = serial_schedule(inst)
    enc = build_full(inst, horizon=base.makespan, lb_floor=best_lb(inst).best)
    return enc.model, schedule_to_assignment(enc, base)


def master_model_and_hint():
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))
    base = serial_schedule(inst)
    enc = build_master(inst, [], best_lb(inst).best, horizon=base.makespan)
    return enc.model, schedule_to_assignment(enc, base)


@pytest.mark.parametrize("make", [full_model_and_hint, master_model_and_hint],
                         ids=["full-group1", "master-group2"])
def test_real_model_fixpoints_match_round_robin_oracle(make):
    """At the root and the first 30 depth-first nodes under the hint's
    incumbent cap, the engine and the round-robin loop agree on every bound
    and domain, or both fail."""
    model, hint = make()
    cap = evaluate_objective(model, hint) - 1
    oracle = RoundRobinFixpoint(model)
    comp, root = root_state(model)
    stack = [(root, None)]
    visited = 0
    while stack and visited < 31:
        state, edit = stack.pop()
        visited += 1
        reference = state.copy()
        fail = comp.propagate(state, cap, edit)
        assert (fail is None) == (oracle.propagate(reference, cap) is None)
        if fail is not None:
            continue
        assert bounds_of(state) == bounds_of(reference)
        branch = _pick_branch(comp, state)
        if branch is not None:
            for value in reversed(_child_values(comp, branch)):
                child = state.copy()
                _apply(child, branch, value)
                stack.append((child, branch))
    assert visited == 31


def counting(comp, name, counts):
    """Wrap ``comp``'s bound method ``name`` to count its runs by the
    propagator index or group number it gets as its second argument."""
    method = getattr(comp, name)

    def counted(st, p, *rest):
        counts[p] = counts.get(p, 0) + 1
        return method(st, p, *rest)

    setattr(comp, name, counted)


def runs_of(comp):
    """The engine's propagator run counters, per kind."""
    return dict(zip(KINDS, comp.runs))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_group1_root_runs_each_group_propagator_once(seed):
    """Windows and links settle before any group propagator runs, so at the
    root under the incumbent cap each disjunctive and cumulative runs once
    (each is queued there, so as many runs as groups is once each), and
    windows and links run about twice each (some 13k runs in model order):
    once in the sweep and at least once more from the queue."""
    model, hint = full_model_and_hint(seed)
    comp, state = root_state(model)
    assert comp.propagate(state, evaluate_objective(model, hint) - 1) is None
    runs = runs_of(comp)
    windows, links = len(comp.tasks), len(comp.links)
    assert runs["window"] + runs["link"] <= 2500
    assert runs["window"] >= 2 * windows and runs["link"] >= 2 * links
    assert runs["disjunctive"] == len(comp.disjunctives)
    assert runs["cumulative"] == len(comp.cumulatives)
    assert comp.fails == [0, 0, 0, 0]


def test_root_settles_a_long_offset_chain_in_linear_work():
    """A 200-task offset chain capped at 1500: the root runs each window and
    link a bounded number of times (a model-order queue walks the cap's
    upper-bound wave back one link per run, some 60k runs)."""
    n = 200
    # Declared tail first, so that index order runs against the links.
    tasks = {f"t{i}": TaskVar(f"t{i}", duration=5, est=0, lct=2000) for i in reversed(range(n))}
    links = [OffsetLink(f"t{i}", f"t{i + 1}", 1) for i in range(n - 1)]
    model = EngineModel(tasks, {}, ConstraintSet(offsets=links), [f"t{n - 1}"])
    comp, state = root_state(model)
    assert comp.propagate(state, 1500) is None
    runs = runs_of(comp)
    assert 2 * (n + len(links)) <= runs["window"] + runs["link"] <= 3 * (n + len(links))
    # The chain is tight enough that the cap reaches its head.
    head, tail = list(tasks).index("t0"), list(tasks).index(f"t{n - 1}")
    assert state.s_hi[head] == 1500 - (5 * n + (n - 1))
    assert state.e_lo[tail] == 5 * n + (n - 1)


def test_a_child_runs_a_group_once_after_its_chain_settles():
    """Fixing the head of a chain queues the chain's first link and a
    disjunctive over its head and tail; the link's move wakes a second
    disjunctive over the next task and the tail.  Each waits until the edit
    has reached the tail, so each runs once, not once per end."""
    tasks = [TaskVar(f"t{i}", duration=1, est=0, lct=20) for i in range(5)]
    model = EngineModel(
        {t.id: t for t in tasks},
        {},
        ConstraintSet(
            offsets=[OffsetLink(f"t{i}", f"t{i + 1}") for i in range(4)],
            disjunctives=[
                Disjunctive("head", (Member("t0"), Member("t4"))),
                Disjunctive("next", (Member("t1"), Member("t4"))),
            ],
        ),
        ["t4"],
    )
    comp, root = root_state(model)
    assert comp.propagate(root, INF) is None
    branch = ("start", 0)  # the earliest open start; the root's earliest schedule fits
    child = root.copy()
    _apply(child, branch, _child_values(comp, branch)[0])  # t0 starts at 0
    runs: dict[int, int] = {}
    counting(comp, "_disjunctive", runs)
    before = runs_of(comp)
    assert comp.propagate(child, INF, branch) is None
    assert child.s_hi[4] == 4
    assert runs == {0: 1, 1: 1}
    assert runs_of(comp)["disjunctive"] - before["disjunctive"] == 2


def test_a_start_edit_at_the_head_of_an_offset_chain_runs_each_link_once():
    """Fixing the head's start moves its starts, which wake its window and
    no link (a link reads its pred's ends and its succ's starts).  The wave
    then runs each link once: a link's move of its succ's starts wakes that
    task's window, whose move of the ends wakes the next link and not the
    link behind it."""
    n = 6
    tasks = [TaskVar(f"t{i}", duration=1, est=0, lct=20) for i in range(n)]
    model = EngineModel(
        {t.id: t for t in tasks},
        {},
        ConstraintSet(offsets=[OffsetLink(f"t{i}", f"t{i + 1}") for i in range(n - 1)]),
        [f"t{n - 1}"],
    )
    comp, root = root_state(model)
    assert comp.propagate(root, INF) is None
    branch = ("start", 0)  # the earliest open start; the root's earliest schedule fits
    child = root.copy()
    _apply(child, branch, _child_values(comp, branch)[0])  # t0 starts at 0
    before = runs_of(comp)
    assert comp.propagate(child, INF, branch) is None
    assert child.s_hi == list(range(n))  # the edit reached the tail
    after = runs_of(comp)
    assert after["link"] - before["link"] == n - 1
    assert after["window"] - before["window"] == n

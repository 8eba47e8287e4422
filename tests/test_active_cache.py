"""Choice-derived data carried by the search: each state's active-member
lists and group watch lists and the compiled menu extremes equal a fresh
recomputation at every node, only the root computes a list from its family,
and a machine-choice edit patches only the chosen machine's groups."""

from operator import itemgetter

import pytest
from hypothesis import assume, given, settings

from hffs.bounds import best_lb
from hffs.engine import (
    INF,
    ChoiceVar,
    Cumulative,
    Member,
    TaskVar,
    _apply,
    _child_values,
    _Compiled,
    _pick_branch,
    evaluate_objective,
    root_state,
)
from hffs.full_model import build_full, schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.master import solve_master
from hffs.model import serial_schedule
from hffs.subproblem import build_sub, solve_sub

from test_engine import model_of, small_models
from test_root_sweep import full_model_and_hint, master_model_and_hint


def group_watchers(comp, state):
    """Each task's group watchers, recomputed from the families: the groups
    that hold it under the state's decided routes, leaving out cumulatives
    it is a member of fixed weight 0 of (such a member is in no list)."""
    watchers = [[] for _ in comp.tasks]
    groups = sorted(((p, family, value) for family, _, by_value in comp.families
                     for value, ps in by_value.items() for p in ps), key=itemgetter(0))
    assert [p for p, _, _ in groups] == list(range(comp.disj0, comp.nprops))
    for p, family, value in groups:
        for ti, w, wci, on in family:
            if on is not None and state.values[on] != value:
                continue
            if p >= comp.cum0 and wci is None and w == 0:
                continue
            watchers[ti].append(p)
    return watchers


def assert_cache_matches_recomputation(comp, state, settled):
    """Every computed active list equals a fresh one (all are computed when
    ``settled``), each task's group watchers equal a fresh set, and every
    menu task's compiled duration bounds, which its window reads while the
    menu's choice is open, equal a scan of its root domain."""
    assert len(state.active) == comp.nprops - comp.disj0
    fresh = comp._active_lists(state)
    for g, cached in enumerate(state.active):
        assert cached is not None or not settled
        if cached is not None:
            assert cached == fresh[g]
    assert [sorted(w) for w in state.watch] == group_watchers(comp, state)
    for dmin, dmax, menu in comp.windows:
        if menu is not None:
            durations = [menu[1][v] for v in comp.choices[menu[0]].values]
            assert (dmin, dmax) == (min(durations), max(durations))


def walk(model, cap, nodes=40):
    """Depth-first through the first ``nodes`` nodes, checking the cache after
    each propagate; returns the edit kinds seen."""
    comp, root = root_state(model)
    stack = [(root, None)]
    kinds = []
    while stack and len(kinds) < nodes:
        state, edit = stack.pop()
        kinds.append(None if edit is None else edit[0])
        fail = comp.propagate(state, cap, edit)
        assert_cache_matches_recomputation(comp, state, fail is None)
        if fail is not None:
            continue
        branch = _pick_branch(comp, state)
        if branch is not None:
            for value in reversed(_child_values(comp, branch)):
                child = state.copy()
                _apply(child, branch, value)
                stack.append((child, branch))
    return kinds


def members(model):
    cons = model.constraints
    return [m for g in cons.disjunctives + cons.cumulatives for m in g.members]


def has_choice_data(model):
    return (any(m.on is not None for m in members(model))
            and any(m.weight_choice is not None for m in members(model))
            and any(t.duration_menu is not None for t in model.tasks.values()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=small_models())
def test_small_model_cache_matches_recomputation(model):
    assume(has_choice_data(model))
    walk(model, INF)


@pytest.mark.parametrize("make", [full_model_and_hint, master_model_and_hint],
                         ids=["full-group1", "master-group2"])
def test_real_model_cache_matches_recomputation(make):
    """The full model has routed members, weight choices and menus; the
    master has routed members only."""
    model, hint = make()
    assert any(m.on is not None for m in members(model))
    assert len(walk(model, evaluate_objective(model, hint) - 1)) == 40


def test_a_root_call_recomputes_every_active_list():
    """A choice decided by hand: a root call recomputes every active list,
    even one shared with an earlier state."""
    model = model_of(
        [
            TaskVar("a", duration_menu=("c", {0: 2, 1: 5, 2: 3}), lct=20),
            TaskVar("b", duration=2, lct=20),
        ],
        choices=[ChoiceVar("c", (0, 1, 2))],
        cumulatives=[Cumulative("r", 1, (Member("a", on="c"), Member("b")), value=1)],
    )
    comp, root = root_state(model)
    assert comp.propagate(root, INF) is None
    assert root.active == [[(1, 1, 2)]]
    assert comp.windows[0][:2] == (2, 5)
    state = root.copy()
    state.values[0] = 1
    assert comp.propagate(state, INF) is None
    assert state.active == [[(0, 1, 5), (1, 1, 2)]]
    assert root.active == [[(1, 1, 2)]]


def pinned_sub_model_and_hint():
    """The pinned group 2 subproblem: every machine choice is fixed, so a
    choice edit decides a worker count, which sets a weight and a duration."""
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))
    floor = best_lb(inst).best
    msol = solve_master(inst, [], floor, node_budget=25, start=serial_schedule(inst))
    base = serial_schedule(inst, msol.machine_of)
    enc = build_sub(inst, msol, horizon=base.makespan,
                    lb_floor=max(floor, msol.lower_bound))
    return inst, msol, enc.model, schedule_to_assignment(enc, base)


def test_subproblem_weight_patches_match_recomputation():
    _, _, model, hint = pinned_sub_model_and_hint()
    assert all(m.on is None or len(model.choices[m.on].values) == 1
               for m in members(model))
    assert any(m.weight_choice is not None for m in members(model))
    kinds = walk(model, evaluate_objective(model, hint) - 1, nodes=200)
    assert len(kinds) == 200 and "choice" in kinds


def test_master_routing_patches_match_recomputation():
    model, hint = master_model_and_hint()
    assert all(m.weight_choice is None for m in members(model))
    kinds = walk(model, evaluate_objective(model, hint) - 1, nodes=200)
    assert len(kinds) == 200 and "choice" in kinds


def test_unpinned_group2_routing_and_weight_patches_match_recomputation(monkeypatch):
    """The unpinned group 2 full model is where routing patches (machine
    groups and buffers) and weight and menu patches (workers) meet: the walk
    decides machine and worker choices both."""
    inst = generate(GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0))
    base = serial_schedule(inst)
    enc = build_full(inst, horizon=base.makespan, lb_floor=best_lb(inst).best)
    decided = []
    patch = _Compiled._patch

    def recorded(self, st, c):
        decided.append(self.cids[c][0])
        return patch(self, st, c)

    monkeypatch.setattr(_Compiled, "_patch", recorded)
    cap = evaluate_objective(enc.model, schedule_to_assignment(enc, base)) - 1
    assert len(walk(enc.model, cap, nodes=200)) == 200
    assert set(decided) == {"m", "w"}


def test_only_the_root_computes_active_members(monkeypatch):
    """On a pinned subproblem search, every group's active members are
    computed from its family once, at the root; choice edits patch them and
    start edits (the search's only timing edits) share them."""
    inst, msol, _, _ = pinned_sub_model_and_hint()
    kinds, calls = [], []
    propagate, active_lists = _Compiled.propagate, _Compiled._active_lists

    def tracked(self, st, cap, _edit=None):
        kinds.append(None if _edit is None else _edit[0])
        return propagate(self, st, cap, _edit)

    def counted(self, st):
        calls.append(kinds[-1])
        return active_lists(self, st)

    monkeypatch.setattr(_Compiled, "propagate", tracked)
    monkeypatch.setattr(_Compiled, "_active_lists", counted)
    floor = max(best_lb(inst).best, msol.lower_bound)
    res = solve_sub(inst, msol, start=serial_schedule(inst, msol.machine_of), node_budget=200,
                    lb_floor=floor)
    assert res.nodes == len(kinds) == 200
    assert set(kinds) == {None, "choice", "start"}
    assert calls == [None]  # every group's list, once, at the root


def test_a_machine_choice_edit_patches_only_the_chosen_machines_groups(monkeypatch):
    """The group 1 full model holds one member per operation and kind (a
    process and a crew per operation, and one buffer member per wait, however
    many machines a stage has) in the tuples it builds: the 13 exit waits of
    stage s7 fit its 20-slot exit buffers, so their tuple is not built.
    Deciding an operation's machine computes no list from a family, and gives
    new lists to that machine's no-overlap group and to the buffers that hold
    the operation's waits only: a job's first operation has no wait before
    it."""
    model, hint = full_model_and_hint()
    cons = model.constraints
    families = {id(g.members): g.members for g in cons.disjunctives + cons.cumulatives}
    processes = sum(tid.startswith("pr") for tid in model.tasks)
    waits = len(model.tasks) - processes
    assert (processes, waits) == (150, 260)  # 20 jobs of 150 operations
    assert sum(len(f) for f in families.values()) == 2 * processes + waits - 13
    cap = evaluate_objective(model, hint) - 1
    comp, root = root_state(model)
    assert comp.propagate(root, cap) is None
    assert _pick_branch(comp, root) == ("choice", comp.cidx["m0"])
    names = comp.disjunctives + [cid for cid, _ in comp.cumulatives]

    calls = []
    active_lists = _Compiled._active_lists

    def counted(self, st):
        calls.append(st)
        return active_lists(self, st)

    monkeypatch.setattr(_Compiled, "_active_lists", counted)
    # job 0's first and second operations
    for choice, kinds in (("m0", ["mach", "out"]), ("m1", ["in", "mach", "out"])):
        branch = ("choice", comp.cidx[choice])
        child = root.copy()
        _apply(child, branch, _child_values(comp, branch)[0])
        comp.propagate(child, cap, branch)
        changed = [names[g] for g, entries in enumerate(child.active)
                   if entries is not root.active[g]]
        assert sorted(name.split(":")[0] for name in changed) == kinds
        assert len({name.split(":")[1] for name in changed}) == 1
    assert calls == []

"""Search kernel: propagation fixpoints, exact solves, determinism."""

import itertools
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hffs.engine import (
    INF,
    KINDS,
    Assignment,
    ChoiceVar,
    ConditionalBound,
    ConstraintSet,
    Cumulative,
    Disjunctive,
    EngineModel,
    Member,
    OffsetLink,
    Precedence,
    TaskVar,
    check_assignment,
    evaluate_objective,
    _Search,
    _apply,
    _child_values,
    _pick_branch,
    propagate,
    resume,
    root_state,
    solve,
)

from hffs.bounds import best_lb
from hffs.full_model import build_full, schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.model import serial_schedule
from oracles import RoundRobinFixpoint


def model_of(tasks, choices=None, objective=None, **cons) -> EngineModel:
    return EngineModel(
        tasks={t.id: t for t in tasks},
        choices={c.id: c for c in (choices or [])},
        constraints=ConstraintSet(**cons),
        objective_tasks=objective or [t.id for t in tasks],
    )


def task_index(model: EngineModel, tid: str) -> int:
    return list(model.tasks).index(tid)


def test_propagate_disjunctive_pigeonhole_infeasible():
    m = model_of(
        [
            TaskVar("a", duration=1, est=0, lct=1),
            TaskVar("b", duration=1, est=0, lct=1),
        ],
        disjunctives=[Disjunctive("mach", (Member("a"), Member("b")))],
    )
    _, fail = propagate(m)
    assert fail is not None


def test_propagate_offset_moves_successor():
    m = model_of(
        [
            TaskVar("a", duration=4, est=0, lct=30),
            TaskVar("b", duration=1, est=0, lct=30),
        ],
        offsets=[OffsetLink(pred="a", succ="b", delta=3)],
    )
    st, fail = propagate(m)
    assert fail is None
    assert st.s_lo[task_index(m, "b")] == 7


def test_propagate_timetable_over_mandatory_parts():
    def pool(h):
        tasks = [TaskVar(f"t{i}", duration=5, est=0, lct=h) for i in range(3)]
        return model_of(
            tasks,
            cumulatives=[
                Cumulative("pool", 2, tuple(Member(t.id) for t in tasks))
            ],
        )

    _, ok = propagate(pool(10))
    assert ok is None
    _, fail = propagate(pool(9))
    assert fail is not None


def test_propagate_failure_names_the_constraint():
    m = model_of(
        [
            TaskVar("a", duration=1, est=0, lct=1),
            TaskVar("b", duration=1, est=0, lct=1),
        ],
        disjunctives=[Disjunctive("mach", (Member("a"), Member("b")))],
    )
    _, fail = propagate(m)
    assert "mach" in fail


def test_solve_two_tasks_one_machine():
    m = model_of(
        [
            TaskVar("a", duration=3, est=0, lct=20),
            TaskVar("b", duration=4, est=0, lct=20),
        ],
        disjunctives=[Disjunctive("mach", (Member("a"), Member("b")))],
    )
    res = solve(m)
    assert res.status == "optimal"
    assert res.objective == 7
    assert res.lower_bound == 7


def test_solve_worker_pool_pigeonhole():
    tasks = [TaskVar(f"t{i}", duration=5, est=0, lct=40) for i in range(3)]
    m = model_of(
        tasks,
        cumulatives=[Cumulative("pool", 2, tuple(Member(t.id) for t in tasks))],
    )
    res = solve(m)
    assert res.status == "optimal"
    assert res.objective == 10


def test_solve_infeasible_model():
    m = model_of(
        [
            TaskVar("a", duration=1, est=0, lct=1),
            TaskVar("b", duration=1, est=0, lct=1),
        ],
        disjunctives=[Disjunctive("mach", (Member("a"), Member("b")))],
    )
    res = solve(m)
    assert res.status == "infeasible"
    assert res.incumbent is None


def test_solve_respects_precedence_delta():
    m = model_of(
        [
            TaskVar("a", duration=2, est=0, lct=20),
            TaskVar("b", duration=2, est=0, lct=20),
        ],
        precedences=[Precedence(pred="a", succ="b", delta=3)],
    )
    res = solve(m)
    assert res.objective == 7  # 2 + gap 3 + 2


def test_solve_duration_menu_picks_cheapest():
    m = model_of(
        [TaskVar("a", duration_menu=("w", {1: 6, 2: 3}), est=0, lct=20)],
        choices=[ChoiceVar("w", (1, 2))],
    )
    res = solve(m)
    assert res.objective == 3
    assert res.incumbent.choices["w"] == 2


def test_conditional_bound_lifts_matched_fingerprint():
    m = model_of(
        [TaskVar("a", duration_menu=("m", {0: 4, 1: 5}), est=0, lct=30)],
        choices=[ChoiceVar("m", (0, 1))],
        conditional_bounds=[ConditionalBound(fingerprint=(("m", 0),), bound=9)],
    )
    res = solve(m)
    # picking value 0 costs at least the cut bound 9, so value 1 wins at 5
    assert res.objective == 5
    assert res.incumbent.choices["m"] == 1


def test_invalid_hint_rejected():
    m = model_of(
        [
            TaskVar("a", duration=3, est=0, lct=20),
            TaskVar("b", duration=4, est=0, lct=20),
        ],
        disjunctives=[Disjunctive("mach", (Member("a"), Member("b")))],
    )
    overlapping = Assignment(
        choices={}, starts={"a": 0, "b": 0}, ends={"a": 3, "b": 4}
    )
    with pytest.raises(ValueError):
        solve(m, hint=overlapping)


def test_malformed_model_errors_before_search():
    m = model_of(
        [TaskVar("a", duration=1, est=0, lct=5)],
        offsets=[OffsetLink(pred="a", succ="ghost")],
    )
    with pytest.raises(ValueError):
        solve(m)
    twice = model_of(  # the timetable's own-part argument needs one entry per task
        [TaskVar("a", duration=1, est=0, lct=5)],
        cumulatives=[Cumulative("r", 2, (Member("a"), Member("a", weight=2)))],
    )
    with pytest.raises(ValueError, match="lists a task twice"):
        solve(twice)


@pytest.mark.parametrize("member, choices", [
    (Member("a", weight=-1), []),
    (Member("a", weight_choice="w"), [ChoiceVar("w", (2, -1))]),
], ids=["weight", "weight-choice"])
def test_negative_member_weights_are_rejected(member, choices):
    """A negative weight would free capacity in the checker but is dropped
    by the timetable, and the timetable's total-weight exit needs weights of
    at least 0: check_model rejects it in one line."""
    m = model_of([TaskVar("a", duration=1, est=0, lct=5)], choices=choices,
                 cumulatives=[Cumulative("r", 1, (member,))])
    with pytest.raises(ValueError, match="negative weight") as err:
        solve(m)
    assert "\n" not in str(err.value)


def enumerate_optimum(model: EngineModel) -> int | None:
    """Exhaustive ground-truth: try every choice combo and start tuple."""
    choice_ids = list(model.choices)
    tids = list(model.tasks)
    best = None
    for combo in itertools.product(*(model.choices[c].values for c in choice_ids)):
        chosen = dict(zip(choice_ids, combo))

        def dur(tid: str) -> int:
            t = model.tasks[tid]
            if t.duration is not None:
                return t.duration
            cid, menu = t.duration_menu
            return menu[chosen[cid]]

        ranges = [
            range(model.tasks[tid].est, model.tasks[tid].lct - dur(tid) + 1)
            for tid in tids
        ]
        for starts in itertools.product(*ranges):
            asg = Assignment(
                choices=chosen,
                starts=dict(zip(tids, starts)),
                ends={tid: s + dur(tid) for tid, s in zip(tids, starts)},
            )
            if check_assignment(model, asg):
                continue
            value = evaluate_objective(model, asg)
            if best is None or value < best:
                best = value
    return best


def test_solve_matches_exhaustive_enumeration():
    tasks = [
        TaskVar("a", duration=2, est=0, lct=8),
        TaskVar("b", duration=3, est=0, lct=8),
        TaskVar("c", duration_menu=("w", {1: 4, 2: 2}), est=0, lct=8),
    ]
    m = model_of(
        tasks,
        choices=[ChoiceVar("w", (1, 2))],
        disjunctives=[Disjunctive("mach", (Member("a"), Member("b")))],
        cumulatives=[
            Cumulative(
                "pool",
                2,
                (Member("a"), Member("b"), Member("c", weight_choice="w")),
            )
        ],
        precedences=[Precedence(pred="a", succ="c", delta=1)],
    )
    res = solve(m)
    assert res.status == "optimal"
    assert res.objective == enumerate_optimum(m)


def test_solve_matches_enumeration_with_offsets_and_routed_members():
    tasks = [
        TaskVar("x", duration=2, est=0, lct=9),
        TaskVar("y", duration=1, est=0, lct=9),
        TaskVar("z0", duration=3, est=0, lct=9),
        TaskVar("z1", duration=1, est=0, lct=9),
    ]
    m = model_of(
        tasks,
        choices=[ChoiceVar("m", (0, 1))],
        offsets=[OffsetLink(pred="x", succ="y", delta=2)],
        disjunctives=[  # x shares a machine with z0 if m is 0, with z1 if m is 1
            Disjunctive("mach0", (Member("x"), Member("z0", on="m")), value=0),
            Disjunctive("mach1", (Member("x"), Member("z1", on="m")), value=1),
        ],
    )
    res = solve(m)
    assert res.status == "optimal"
    assert res.objective == enumerate_optimum(m)


def test_node_budget_determinism():
    tasks = [TaskVar(f"t{i}", duration=2 + i % 3, est=0, lct=15) for i in range(5)]
    m = model_of(
        tasks,
        disjunctives=[Disjunctive("mach", tuple(Member(t.id) for t in tasks[:3]))],
        cumulatives=[
            Cumulative("pool", 2, tuple(Member(t.id) for t in tasks))
        ],
    )
    a = solve(m, node_budget=200)
    b = solve(m, node_budget=200)
    assert (a.status, a.objective, a.lower_bound, a.nodes) == (
        b.status,
        b.objective,
        b.lower_bound,
        b.nodes,
    )
    assert a.ub_history == b.ub_history
    assert a.incumbent == b.incumbent
    assert (a.runs, a.fails, a.refuted) == (b.runs, b.fails, b.refuted)
    assert list(a.runs) == list(a.fails) == list(a.refuted) == list(KINDS)
    assert a.runs["window"] > a.runs["cumulative"] > 0 and a.runs["link"] == 0


def test_a_passed_deadline_stops_at_the_root_and_resumes_no_node():
    """The root is always propagated; a deadline already past stops the
    search at the next node boundary, and a resume under one adds no node."""
    tasks = [TaskVar(f"t{i}", duration=2 + i % 3, est=0, lct=15) for i in range(5)]
    m = model_of(
        tasks,
        disjunctives=[Disjunctive("mach", tuple(Member(t.id) for t in tasks[:3]))],
        cumulatives=[Cumulative("pool", 2, tuple(Member(t.id) for t in tasks))],
    )
    assert solve(m, deadline=time.perf_counter()).nodes == 1
    res = solve(m, node_budget=5)
    assert res.paused is not None
    before = search_outcome(res)
    assert search_outcome(resume(res, deadline=time.perf_counter())) == before
    assert search_outcome(resume(res)) == search_outcome(solve(m))


def test_bound_and_incumbent_are_consistent():
    tasks = [TaskVar(f"t{i}", duration=3, est=0, lct=30) for i in range(4)]
    m = model_of(
        tasks,
        cumulatives=[Cumulative("pool", 2, tuple(Member(t.id) for t in tasks))],
    )
    res = solve(m)
    assert res.status == "optimal"
    assert res.lower_bound == res.objective == 6
    assert check_assignment(m, res.incumbent) == []


def bounds_of(state):
    return (state.s_lo, state.s_hi, state.e_lo, state.e_hi, list(state.values))


def first_child_fixpoints(model, pick):
    """Root fixpoint, then child ``pick`` of the first branching decision,
    propagated from its edit alone; returns it with the oracle's fixpoint."""
    comp, state = root_state(model)
    assert comp.propagate(state, INF) is None
    branch = _pick_branch(comp, state)
    child = state.copy()
    _apply(child, branch, _child_values(comp, branch)[pick])
    reference = child.copy()
    assert comp.propagate(child, INF, branch) is None
    assert RoundRobinFixpoint(model).propagate(reference, INF) is None
    return child, reference


def test_choice_edit_wakes_a_routed_disjunctive():
    m = model_of(
        [
            TaskVar("a", duration=3, est=2, lct=6),
            TaskVar("b", duration=2, est=0, lct=5),
        ],
        choices=[ChoiceVar("c", (0, 1))],
        disjunctives=[Disjunctive("d", (Member("a"), Member("b", on="c")), value=1)],
    )
    child, reference = first_child_fixpoints(m, 1)
    assert child.e_hi[task_index(m, "b")] == 3  # b now runs before a
    assert bounds_of(child) == bounds_of(reference)


def test_start_edit_wakes_the_group_a_decided_route_selects():
    # Once c = 0 routes b into r, fixing b's start gives it the mandatory part
    # [0, 3), which overlaps a's.  The edit moves no bound that b's window or
    # link passes on, so only b's route can wake r.
    m = model_of(
        [
            TaskVar("a", duration=4, est=0, lct=4),
            TaskVar("b", elastic=True, est=0, lct=10),
            TaskVar("x", duration=1, est=3, lct=4),
        ],
        choices=[ChoiceVar("c", (0, 1))],
        offsets=[OffsetLink("b", "x")],
        cumulatives=[Cumulative("r", 1, (Member("a"), Member("b", on="c")), value=0)],
    )
    comp, state = root_state(m)
    assert comp.propagate(state, INF) is None
    fails = []
    for expected in (("choice", 0), ("start", task_index(m, "b"))):
        branch = _pick_branch(comp, state)
        assert branch == expected
        parent, state = state, state.copy()
        _apply(state, branch, _child_values(comp, branch)[0])
        reference = state.copy()
        fails.append((comp.propagate(state, INF, branch),
                      RoundRobinFixpoint(m).propagate(reference, INF)))
    assert fails == [(None, None), ("cumulative:r", "cumulative:r")]


def test_choice_edit_wakes_a_weighted_cumulative():
    m = model_of(
        [
            TaskVar("a", duration=4, est=0, lct=4),
            TaskVar("b", duration=2, est=0, lct=10),
        ],
        choices=[ChoiceVar("w", (1, 2))],
        cumulatives=[Cumulative("pool", 2, (Member("a"), Member("b", weight_choice="w")))],
    )
    child, reference = first_child_fixpoints(m, 1)
    assert child.s_lo[task_index(m, "b")] == 4  # weight 2 does not fit beside a
    assert bounds_of(child) == bounds_of(reference)


def test_choice_edit_wakes_a_cumulative_through_a_member_duration():
    # b's window moves nothing when its menu fixes the longer duration, so
    # only the cumulative, which lifts by minimum duration, sees the edit.
    m = model_of(
        [
            TaskVar("a", duration=1, est=0, lct=5),
            TaskVar("b", duration_menu=("d", {0: 1, 1: 5}), est=0, lct=12),
            TaskVar("c", duration=1, est=6, lct=11),
            TaskVar("x", duration=1, est=3, lct=4),
        ],
        choices=[ChoiceVar("d", (0, 1))],
        offsets=[OffsetLink("a", "b"), OffsetLink("b", "c")],
        cumulatives=[Cumulative("pool", 1, (Member("b"), Member("x")))],
    )
    child, reference = first_child_fixpoints(m, 1)
    assert child.s_lo[task_index(m, "b")] == 4  # [1, 6) would overlap x
    assert bounds_of(child) == bounds_of(reference)


@st.composite
def small_models(draw):
    """Small random engine models exercising every propagator kind: menus,
    offsets and precedences with delta tables, disjunctives and weighted
    cumulatives with routed members, one member tuple shared by one to
    three groups whose values may repeat or lie outside a member's domain.
    Choices may have one-value domains, whose routes and delta tables the
    engine resolves when it compiles.  Some models
    also carry a path of offsets and precedences through all of their (up
    to 8) tasks, sometimes closed into a cycle: the engine's topological
    root sweep and its cycle fallback."""
    small = st.integers(0, 3)
    choices = [
        ChoiceVar(f"c{i}", tuple(sorted(draw(st.sets(small, min_size=1, max_size=3)))))
        for i in range(draw(st.integers(1, 3)))
    ]
    cids = [c.id for c in choices]
    values = {c.id: c.values for c in choices}

    path = draw(st.booleans())
    span = st.integers(20, 48) if path else st.integers(4, 16)
    tasks = []
    for i in range(draw(st.integers(2, 8 if path else 5))):
        est = draw(small)
        window = dict(est=est, lct=est + draw(span))
        mode = draw(st.sampled_from(("fixed", "menu", "elastic")))
        if mode == "fixed":
            tasks.append(TaskVar(f"t{i}", duration=draw(st.integers(0, 4)), **window))
        elif mode == "menu":
            cid = draw(st.sampled_from(cids))
            menu = {v: draw(st.integers(0, 4)) for v in values[cid]}
            tasks.append(TaskVar(f"t{i}", duration_menu=(cid, menu), **window))
        else:
            tasks.append(TaskVar(f"t{i}", elastic=True, **window))
    tids = [t.id for t in tasks]

    def link(kind, pred=None, succ=None):
        if pred is None:
            pred, succ = draw(st.lists(st.sampled_from(tids), min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):
            return kind(pred, succ, draw(st.integers(-1, 3)))
        ca, cb = draw(st.sampled_from(cids)), draw(st.sampled_from(cids))
        table = {(a, b): draw(st.integers(0, 3)) for a in values[ca] for b in values[cb]}
        return kind(pred, succ, table=(ca, cb, table))

    def members():
        chosen = draw(st.lists(st.sampled_from(tids), min_size=1, max_size=4, unique=True))
        return tuple(
            Member(
                tid,
                weight=draw(st.integers(0, 2)),
                weight_choice=draw(st.sampled_from(cids)) if draw(st.booleans()) else None,
                on=draw(st.sampled_from(cids)) if draw(st.booleans()) else None,
            )
            for tid in chosen
        )

    def family(name, make):
        """Groups ``make(id, members, value)`` sharing one member tuple."""
        shared = members()
        values = draw(st.lists(small, min_size=1, max_size=3))
        return [make(f"{name}.{v}", shared, value) for v, value in enumerate(values)]

    n = st.integers(0, 2)
    offsets = [link(OffsetLink) for _ in range(draw(n))]
    precedences = [link(Precedence) for _ in range(draw(n))]
    if path:
        order = draw(st.permutations(tids))
        pairs = list(zip(order, order[1:]))
        if draw(st.booleans()):
            pairs.append((order[-1], order[0]))
        for pred, succ in pairs:
            if draw(st.booleans()):
                offsets.append(link(OffsetLink, pred, succ))
            else:
                precedences.append(link(Precedence, pred, succ))
    return model_of(
        tasks,
        choices=choices,
        objective=draw(st.lists(st.sampled_from(tids), min_size=1, unique=True)),
        offsets=offsets,
        precedences=precedences,
        disjunctives=[
            group
            for i in range(draw(n))
            for group in family(f"d{i}", lambda gid, ms, v: Disjunctive(gid, ms, value=v))
        ],
        cumulatives=[
            group
            for i in range(draw(n))
            for group in family(
                f"r{i}",
                lambda gid, ms, v: Cumulative(gid, draw(st.integers(1, 3)), ms, value=v),
            )
        ],
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    model=small_models(),
    caps=st.lists(st.one_of(st.none(), st.integers(4, 24)), min_size=1, max_size=8),
)
def test_queue_fixpoint_matches_round_robin_oracle(model, caps):
    """The queue-driven propagate reaches the round-robin loop's fixpoint, at
    the root and at the first nodes of the search tree (each child queued only
    from its branching edit and the incumbent cap), or fails exactly when the
    loop fails."""
    oracle = RoundRobinFixpoint(model)
    state, fail = propagate(model)
    reference = root_state(model)[1]
    assert (fail is None) == (oracle.propagate(reference, INF) is None)
    if fail is None:
        assert bounds_of(state) == bounds_of(reference)

    comp, root = root_state(model)
    stack = [(root, None)]
    for visit in range(40):
        if not stack:
            break
        state, edit = stack.pop()
        cap = caps[visit % len(caps)]
        cap = INF if cap is None else cap
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=small_models(), data=st.data())
def test_a_node_with_every_start_fixed_is_a_leaf_at_its_bound(model, data):
    """A node is a leaf exactly when every choice is decided and the
    earliest-start schedule of its fixpoint (elastic ends included) satisfies
    every constraint; a node with every start fixed always is one.  At a leaf
    that schedule reaches the node bound, so the search stops branching
    there."""
    def fingerprint():
        ids = data.draw(st.lists(st.sampled_from(list(model.choices)), min_size=1, unique=True))
        return tuple((c, data.draw(st.sampled_from(model.choices[c].values))) for c in ids)

    bounds = [ConditionalBound(fingerprint(), data.draw(st.integers(0, 30)))
              for _ in range(data.draw(st.integers(0, 2)))]
    model = replace(model, objective_floor=data.draw(st.integers(0, 12)),
                    constraints=replace(model.constraints, conditional_bounds=bounds))
    cap = data.draw(st.one_of(st.just(INF), st.integers(4, 24)))
    comp, root = root_state(model)
    stack = [(root, None)]
    for _ in range(200):
        if not stack:
            break
        state, edit = stack.pop()
        if comp.propagate(state, cap, edit) is not None:
            continue
        branch = _pick_branch(comp, state)
        decided = None not in state.values
        fixed = all(lo == hi for lo, hi in zip(state.s_lo, state.s_hi))
        asg = comp.extract(state)
        fits = decided and check_assignment(model, asg) == []
        assert (branch is None) == fits
        assert fits or not (decided and fixed)
        if branch is None:
            assert evaluate_objective(model, asg) == comp.node_lb(state)
            continue
        for value in reversed(_child_values(comp, branch)):
            child = state.copy()
            _apply(child, branch, value)
            stack.append((child, branch))


def search_outcome(res):
    """A search result without its wall time."""
    return (res.status, res.objective, res.lower_bound, res.incumbent, res.nodes,
            list(res.ub_history), dict(res.runs), dict(res.fails))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    model=small_models(),
    budgets=st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_a_continued_search_equals_a_fresh_search_at_its_budget(model, budgets):
    """A search stopped at one node budget and continued to larger ones (the
    last without a budget) equals a fresh search at each budget, as a new
    result that leaves the one it continued as it was; a result holds its
    search exactly while it stopped without a proof, and a result without
    one is returned as it is."""
    res = solve(model, node_budget=budgets[0])
    assert search_outcome(res) == search_outcome(solve(model, node_budget=budgets[0]))
    for budget in budgets[1:] + [None]:
        assert (res.paused is not None) == (res.status in ("feasible", "unknown"))
        before, history = search_outcome(res), res.ub_history
        continued = resume(res, node_budget=budget)
        assert search_outcome(res) == before and res.ub_history is history
        fresh = solve(model, node_budget=budget)
        if res.paused is None:  # finished, or proven at its stop
            assert continued is res
            assert search_outcome(res)[:4] == search_outcome(fresh)[:4]
        else:
            assert search_outcome(continued) == search_outcome(fresh)
        res = continued
    assert res.paused is None and res.status in ("optimal", "infeasible")


def two_menu_chain() -> EngineModel:
    """a's task then b's, each taking 5, 3 or 4 time units at value 0, 1 or
    2 of its choice; the makespan is the two durations' sum."""
    menu = {0: 5, 1: 3, 2: 4}
    return model_of(
        [TaskVar("ta", duration_menu=("a", menu), est=0, lct=20),
         TaskVar("tb", duration_menu=("b", menu), est=0, lct=20)],
        [ChoiceVar("a", (0, 1, 2)), ChoiceVar("b", (0, 1, 2))],
        objective=["tb"],
        offsets=[OffsetLink("ta", "tb")],
    )


def test_a_choice_frame_takes_the_incumbents_value_first():
    """From the hint a = b = 2 (makespan 8) a tries 2 first, then 1: under
    the cap 7 ta may last at most 4, so the forward check drops a = 0 (5
    units) before it is pushed.  Below a = 2, tb has 3 units left, so b's
    frame holds 1 alone; that leaf (makespan 7) becomes the incumbent, and
    below a = 1, under the cap 6, b = 1 again is the one value that fits.
    The values that survive keep the guided order, and ``_child_values``
    keeps root order."""
    m = two_menu_chain()
    search = _Search(m, Assignment({"a": 2, "b": 2}, {"ta": 0, "tb": 4}, {"ta": 4, "tb": 8}))
    pushed = []

    class Recording(list):
        def append(self, frame):
            kind, idx = frame[4]
            if kind == "choice":
                pushed.append((search.comp.cids[idx], frame[1]))
            super().append(frame)

    search.stack = Recording()
    res = search.run(None, None)
    assert pushed == [("a", (2, 1)), ("b", (1,)), ("b", (1,))]
    assert all(0 not in values for cid, values in pushed if cid == "a")
    assert res.refuted == {"window": 5, "link": 0, "disjunctive": 0, "cumulative": 0}
    assert [obj for _, obj in res.ub_history] == [8, 7, 6]
    assert (res.status, res.objective) == ("optimal", 6)
    assert _child_values(search.comp, ("choice", 0)) == (0, 1, 2)  # root order kept


def test_a_continued_search_whose_incumbent_moves_equals_a_fresh_one():
    """The incumbent changes before the stop and after it, so the continued
    search orders its frames by a value that the stopped one set; at every
    budget it equals a fresh search, until it stops with a proof.  The first
    result, whose search has moved on since, cannot be continued again."""
    inst = generate(GenSpec(group=2, jobs=4, stages=2, variant=1, seed=2))
    enc = build_full(inst, horizon=serial_schedule(inst).makespan, lb_floor=best_lb(inst).best)
    hint = schedule_to_assignment(enc, serial_schedule(inst))
    res = first = solve(enc.model, node_budget=30, hint=hint)
    changes = [nodes for nodes, _ in res.ub_history]
    assert changes[0] == 0 < changes[-1] <= 30
    for budget in (60, 90, None):
        fresh = solve(enc.model, node_budget=budget, hint=hint)
        if res.paused is None:  # proven at its stop: returned as it is
            assert resume(res, node_budget=budget) is res
            assert search_outcome(res)[:4] == search_outcome(fresh)[:4]
        else:
            res = resume(res, node_budget=budget)
            assert search_outcome(res) == search_outcome(fresh)
    assert res.status == "optimal"
    assert [nodes for nodes, _ in res.ub_history if nodes > 30]  # moved after the stop
    assert first.nodes == 30 and first.paused is not None
    with pytest.raises(ValueError, match="continued already"):  # its search moved on
        resume(first, node_budget=60)

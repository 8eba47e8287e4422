"""Search kernel: propagation fixpoints, exact solves, determinism."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hffs.engine import (
    INF,
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
    _child_edits,
    _pick_branch,
    propagate,
    root_state,
    solve,
)

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
        choices=[ChoiceVar("w", (1, 2), kind="worker")],
    )
    res = solve(m)
    assert res.objective == 3
    assert res.incumbent.choices["w"] == 2


def test_solve_presence_only_selected_alternative_runs():
    # two optional copies of one job step, guarded by a machine choice
    m = model_of(
        [
            TaskVar("on1", duration=5, est=0, lct=30, presence=("m", 0)),
            TaskVar("on2", duration=2, est=0, lct=30, presence=("m", 1)),
        ],
        choices=[ChoiceVar("m", (0, 1), kind="machine")],
    )
    res = solve(m)
    assert res.objective == 2
    assert res.incumbent.choices["m"] == 1


def test_conditional_bound_lifts_matched_fingerprint():
    m = model_of(
        [TaskVar("a", duration_menu=("m", {0: 4, 1: 5}), est=0, lct=30)],
        choices=[ChoiceVar("m", (0, 1), kind="machine")],
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


def enumerate_optimum(model: EngineModel) -> int | None:
    """Exhaustive ground-truth: try every choice combo and start tuple."""
    choice_ids = list(model.choices)
    best = None
    for combo in itertools.product(*(model.choices[c].values for c in choice_ids)):
        chosen = dict(zip(choice_ids, combo))
        active = []
        for tid, t in model.tasks.items():
            if t.presence is not None and chosen[t.presence[0]] != t.presence[1]:
                continue
            active.append(tid)

        def dur(tid: str) -> int:
            t = model.tasks[tid]
            if t.duration is not None:
                return t.duration
            cid, menu = t.duration_menu
            return menu[chosen[cid]]

        ranges = [
            range(model.tasks[tid].est, model.tasks[tid].lct - dur(tid) + 1)
            for tid in active
        ]
        for starts in itertools.product(*ranges):
            asg = Assignment(
                choices=chosen,
                starts=dict(zip(active, starts)),
                ends={tid: s + dur(tid) for tid, s in zip(active, starts)},
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
        choices=[ChoiceVar("w", (1, 2), kind="worker")],
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


def test_solve_matches_enumeration_with_offsets_and_presence():
    tasks = [
        TaskVar("x", duration=2, est=0, lct=9),
        TaskVar("y", duration=1, est=0, lct=9),
        TaskVar("z0", duration=3, est=0, lct=9, presence=("m", 0)),
        TaskVar("z1", duration=1, est=0, lct=9, presence=("m", 1)),
    ]
    m = model_of(
        tasks,
        choices=[ChoiceVar("m", (0, 1), kind="machine")],
        offsets=[OffsetLink(pred="x", succ="y", delta=2)],
        disjunctives=[
            Disjunctive(
                "mach",
                (Member("x"), Member("z0", guard=("m", 0)), Member("z1", guard=("m", 1))),
            )
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
    return (state.s_lo, state.s_hi, state.e_lo, state.e_hi, [tuple(d) for d in state.domains])


def first_child_fixpoints(model, pick):
    """Root fixpoint, then child ``pick`` of the first branching decision,
    propagated from its edit alone; returns it with the oracle's fixpoint."""
    comp, state = root_state(model)
    assert comp.propagate(state, INF) is None
    branch = _pick_branch(comp, state)
    child = state.copy()
    _child_edits(state, branch)[pick](child)
    reference = child.copy()
    assert comp.propagate(child, INF, branch) is None
    assert RoundRobinFixpoint(model).propagate(reference, INF) is None
    return child, reference


def test_choice_edit_wakes_a_guarded_disjunctive():
    m = model_of(
        [
            TaskVar("a", duration=3, est=2, lct=6),
            TaskVar("b", duration=2, est=0, lct=5),
        ],
        choices=[ChoiceVar("c", (0, 1))],
        disjunctives=[Disjunctive("d", (Member("a"), Member("b", guard=("c", 1))))],
    )
    child, reference = first_child_fixpoints(m, 1)
    assert child.e_hi[task_index(m, "b")] == 3  # b now runs before a
    assert bounds_of(child) == bounds_of(reference)


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
    presence, offsets and precedences with delta tables, guarded disjunctives
    and weighted cumulatives.  Choices may have one-value domains, whose
    guards and delta tables the engine resolves when it compiles."""
    small = st.integers(0, 3)
    choices = [
        ChoiceVar(f"c{i}", tuple(sorted(draw(st.sets(small, min_size=1, max_size=3)))))
        for i in range(draw(st.integers(1, 3)))
    ]
    cids = [c.id for c in choices]
    values = {c.id: c.values for c in choices}

    def ref():
        cid = draw(st.sampled_from(cids))
        return cid, draw(st.sampled_from(values[cid]))

    tasks = []
    for i in range(draw(st.integers(2, 5))):
        est = draw(small)
        window = dict(est=est, lct=est + draw(st.integers(4, 16)),
                      presence=ref() if draw(st.booleans()) else None)
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

    def link(kind):
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
                guard=ref() if draw(st.booleans()) else None,
            )
            for tid in chosen
        )

    n = st.integers(0, 2)
    return model_of(
        tasks,
        choices=choices,
        objective=draw(st.lists(st.sampled_from(tids), min_size=1, unique=True)),
        offsets=[link(OffsetLink) for _ in range(draw(n))],
        precedences=[link(Precedence) for _ in range(draw(n))],
        disjunctives=[Disjunctive(f"d{i}", members()) for i in range(draw(n))],
        cumulatives=[
            Cumulative(f"r{i}", draw(st.integers(1, 3)), members())
            for i in range(draw(n))
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
            for child_edit in reversed(_child_edits(state, branch)):
                child = state.copy()
                child_edit(child)
                stack.append((child, branch))

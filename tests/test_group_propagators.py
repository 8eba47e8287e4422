"""One run of a group propagator against its reference rule.

The disjunctive's two sorted sweeps, and its exit after the sorts, push the
same bounds as the pairwise rule (``oracles.pairwise_disjunctive``) and fail
exactly when it does, whatever the member order; the cumulative's early exits
(all the active weight within the capacity, or no mandatory part) give the
outcome of the full profile (``oracles.RoundRobinFixpoint``'s timetable and
start lifting), also on lists that choice edits patched.  Small cases draw
member windows on a small grid, so ties, zero-length members, mandatory parts
and pairs forced both ways are all common; wide cases draw 16-60 members over
a drawn range, as on a group 2 model.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hffs.engine import ChoiceVar, Cumulative, Disjunctive, Member, TaskVar, root_state

from oracles import RoundRobinFixpoint, pairwise_disjunctive
from test_engine import model_of


@st.composite
def windows(draw, n, durations=None, start=10, slack=(0, 5)):
    """``n`` settled member windows (s_lo <= s_hi, e_lo <= e_hi) with earliest
    starts up to ``start`` and start slack in the range ``slack``: a fixed
    duration's, or with ``durations`` None also an elastic task's."""
    rows = []
    for i in range(n):
        s_lo = draw(st.integers(0, start))
        s_hi = s_lo + draw(st.integers(*slack))
        if durations is None and draw(st.booleans()):  # elastic: e >= s only
            e_lo = s_lo + draw(st.integers(0, 5))
            e_hi = max(e_lo, s_hi) + draw(st.integers(0, 5))
        else:
            d = draw(st.integers(0, 5)) if durations is None else durations[i]
            e_lo, e_hi = s_lo + d, s_hi + d
        rows.append((s_lo, s_hi, e_lo, e_hi))
    return rows


def state_of(comp, rows):
    state = comp.root_state()
    state.s_lo, state.s_hi, state.e_lo, state.e_hi = (list(c) for c in zip(*rows))
    return state


@st.composite
def disjunctive_cases(draw):
    n = draw(st.integers(2, 8))
    return draw(windows(n)), draw(st.permutations(range(n)))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=disjunctive_cases())
@example(case=([(0, 2, 3, 5), (1, 1, 4, 4)], [0, 1]))  # forced both ways
@example(case=([(2, 2, 2, 2), (0, 4, 2, 6), (2, 2, 2, 2)], [2, 0, 1]))  # ties, zero length
@example(case=([(0, 0, 3, 3), (0, 6, 2, 8), (3, 7, 4, 8)], [1, 2, 0]))  # mandatory parts
@example(case=([(0, 3, 3, 6), (1, 5, 2, 6)], [1, 0]))  # min s_hi == max e_lo: no pair
@example(case=([(0, 3, 3, 6), (1, 4, 2, 5), (0, 2, 4, 6)], [2, 0, 1]))  # min s_hi < max e_lo: pairs
@example(case=([(0, 2, 3, 5), (0, 5, 1, 6)], [0, 1]))  # only a member's own mandatory part
def test_disjunctive_sweep_matches_the_pairwise_rule(case):
    assert_disjunctive_matches_the_pairwise_rule(*case)


@st.composite
def wide_disjunctive_cases(draw):
    """16-60 members whose windows spread over a drawn range, most of them
    wider than their durations, as on the machines of a group 2 model."""
    n = draw(st.integers(16, 60))
    return draw(wide_windows(n)), draw(st.permutations(range(n)))


@st.composite
def wide_windows(draw, n, durations=None):
    """Earliest starts up to a drawn bound and start slack in a drawn range:
    when the least slack exceeds that bound and the durations, every window
    holds one common point and no member can be ordered before another."""
    least = draw(st.just(0) | st.integers(0, 60))
    slack = (least, least + draw(st.integers(0, 10) | st.integers(0, 60)))
    return draw(windows(n, durations, start=draw(st.integers(0, 60)), slack=slack))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=wide_disjunctive_cases())
def test_wide_disjunctive_sweep_matches_the_pairwise_rule(case):
    assert_disjunctive_matches_the_pairwise_rule(*case)


def assert_disjunctive_matches_the_pairwise_rule(rows, order):
    n = len(rows)
    tasks = [TaskVar(f"t{i}", elastic=True, lct=200) for i in range(n)]
    model = model_of(tasks, disjunctives=[
        Disjunctive("m", tuple(Member(t.id) for t in tasks))])
    comp, _ = root_state(model)
    state = state_of(comp, rows)
    reference = state.copy()
    moved: list[int] = []
    fail = comp._disjunctive(state, 0, list(order), moved)
    outcome = pairwise_disjunctive(reference, list(range(n)))
    assert (fail is None) == (outcome is not None)
    if fail is None:
        assert (state.s_lo, state.e_hi) == (reference.s_lo, reference.e_hi)
        assert (state.s_hi, state.e_lo) == (reference.s_hi, reference.e_lo)
        assert set(moved) == (
            {2 * i for i in range(n) if state.s_lo[i] != rows[i][0]}
            | {2 * i + 1 for i in range(n) if state.e_hi[i] != rows[i][3]})


@st.composite
def cumulative_cases(draw):
    n = draw(st.integers(1, 6))
    durations = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return durations, weights, draw(st.integers(0, 6)), draw(windows(n, durations))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=cumulative_cases())
@example(case=([2, 2], [1, 1], 2, [(0, 1, 2, 3), (0, 1, 2, 3)]))  # total weight = capacity
@example(case=([3, 2], [2, 2], 3, [(0, 5, 3, 8), (1, 2, 3, 4)]))  # one mandatory part
@example(case=([3, 3], [2, 2], 3, [(0, 0, 3, 3), (2, 2, 5, 5)]))  # overload
def test_cumulative_early_exits_give_the_full_profiles_outcome(case):
    durations, weights, cap, rows = case
    tasks = [TaskVar(f"t{i}", duration=d, lct=30) for i, d in enumerate(durations)]
    model = model_of(tasks, cumulatives=[Cumulative(
        "r", cap, tuple(Member(t.id, weight=w) for t, w in zip(tasks, weights)))])
    comp, _ = root_state(model)
    state = state_of(comp, rows)
    assert_cumulative_matches_the_timetable(
        model, comp, state, comp._active_lists(state)[0], rows)


@st.composite
def wide_cumulative_cases(draw):
    """16-60 members, as in a subproblem's worker pool: each has a fixed
    weight, or a weight chosen from 0-2 that may also pick its duration (d,
    d + 1 or d + 2), the choice decided or open."""
    n = draw(st.integers(16, 60))
    members = []  # (duration d, fixed weight or None, menu, decided value or None)
    for _ in range(n):
        d = draw(st.integers(0, 6))
        if draw(st.booleans()):
            members.append((d, draw(st.integers(0, 2)), False, None))
        else:
            members.append((d, None, draw(st.booleans()),
                            draw(st.sampled_from((None, 0, 1, 2)))))
    durations = [d + (v or 0) * menu for d, _, menu, v in members]
    return members, draw(st.integers(0, 2 * n)), draw(wide_windows(n, durations))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=wide_cumulative_cases())
@example(case=([(2, 1, False, None)] * 14 + [(3, None, True, 2), (3, None, False, 1)],
               17, [(0, 0, 2, 2)] * 14 + [(0, 0, 5, 5), (1, 1, 4, 4)]))  # active weight = capacity
@example(case=([(2, 1, False, None)] * 14 + [(3, None, True, 2), (3, None, False, 1)],
               16, [(0, 0, 2, 2)] * 14 + [(0, 0, 5, 5), (1, 1, 4, 4)]))  # one above: overload
@example(case=([(2, 1, False, None)] * 14 + [(3, None, True, 0), (3, None, False, None)],
               13, [(0, 5, 2, 7)] * 14 + [(0, 0, 3, 3), (1, 1, 4, 4)]))  # weight-0 choices
def test_wide_patched_cumulative_gives_the_full_profiles_outcome(case):
    """Each decided choice patches the root's list, as a choice edit does: the
    patched entries equal a recomputation, and the run gives the round-robin
    timetable's outcome."""
    members, cap, rows = case
    tasks, choices, cums = [], [], []
    for i, (d, w, menu, _) in enumerate(members):
        if w is not None:
            tasks.append(TaskVar(f"t{i}", duration=d, lct=200))
            cums.append(Member(f"t{i}", weight=w))
            continue
        choices.append(ChoiceVar(f"c{i}", (0, 1, 2)))
        tasks.append(TaskVar(f"t{i}", lct=200, **(
            {"duration_menu": (f"c{i}", {v: d + v for v in (0, 1, 2)})} if menu
            else {"duration": d})))
        cums.append(Member(f"t{i}", weight_choice=f"c{i}"))
    model = model_of(tasks, choices=choices, cumulatives=[Cumulative("r", cap, tuple(cums))])
    comp, _ = root_state(model)
    state = state_of(comp, rows)
    state.active = comp._active_lists(state)
    for i, (_, w, _, v) in enumerate(members):
        if w is None and v is not None:
            ci = comp.cidx[f"c{i}"]
            state.values[ci] = v
            comp._patch(state, ci)
    entries, fresh = state.active[0], comp._active_lists(state)[0]
    assert entries == fresh
    assert_cumulative_matches_the_timetable(model, comp, state, entries, rows)


def assert_cumulative_matches_the_timetable(model, comp, state, entries, rows):
    reference = state.copy()
    moved: list[int] = []
    fail = comp._cumulative(state, 0, entries, moved)
    oracle = RoundRobinFixpoint(model)
    _, cap, members = oracle.cumulatives[0]
    ref_fail = oracle._timetable(reference, "r", cap, members)
    assert (fail is None) == (ref_fail is None)
    if fail is None:
        oracle._lift_starts(reference, cap, members)
        assert state.s_lo == reference.s_lo
        assert set(moved) == {2 * i for i, row in enumerate(rows) if state.s_lo[i] != row[0]}

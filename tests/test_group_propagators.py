"""One run of a group propagator against its reference rule.

The disjunctive's two sorted sweeps push the same bounds as the pairwise rule
(``oracles.pairwise_disjunctive``) and fail exactly when it does, whatever
the member order; the cumulative's early exits (no mandatory part, or all
the active weight within the capacity) give the outcome of the full profile
(``oracles.RoundRobinFixpoint``'s timetable and start lifting).  Member
windows are drawn on a small grid, so ties, zero-length members, mandatory
parts and pairs forced both ways are all common.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hffs.engine import Cumulative, Disjunctive, Member, TaskVar, root_state

from oracles import RoundRobinFixpoint, pairwise_disjunctive
from test_engine import model_of


@st.composite
def windows(draw, n, durations=None):
    """``n`` settled member windows (s_lo <= s_hi, e_lo <= e_hi): a fixed
    duration's, or with ``durations`` None also an elastic task's."""
    rows = []
    for i in range(n):
        s_lo = draw(st.integers(0, 10))
        s_hi = s_lo + draw(st.integers(0, 5))
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
def test_disjunctive_sweep_matches_the_pairwise_rule(case):
    rows, order = case
    n = len(rows)
    tasks = [TaskVar(f"t{i}", elastic=True, lct=30) for i in range(n)]
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
        assert set(moved) == {i for i in range(n) if state.s_lo[i] != rows[i][0]
                              or state.e_hi[i] != rows[i][3]}


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
    reference = state.copy()
    moved: list[int] = []
    fail = comp._cumulative(state, 0, comp._active_members(state, comp.cum0), moved)
    oracle = RoundRobinFixpoint(model)
    _, _, members = oracle.cumulatives[0]
    ref_fail = oracle._timetable(reference, "r", cap, members)
    assert (fail is None) == (ref_fail is None)
    if fail is None:
        oracle._lift_starts(reference, cap, members)
        assert state.s_lo == reference.s_lo
        assert set(moved) == {i for i, row in enumerate(rows) if state.s_lo[i] != row[0]}

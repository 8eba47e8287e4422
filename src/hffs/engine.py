"""Generic exact/anytime interval-scheduling search kernel.

The engine minimises makespan over a model made of:

- TaskVar: a half-open interval with a fixed duration, a duration selected
  from a menu by a choice variable, or an elastic (free nonnegative) duration;
  optionally present only when a guard choice takes a given value;
- ChoiceVar: a finite integer domain (machine index, worker count, ...);
- ConstraintSet: exact-offset links (start(succ) = end(pred) + delta, the
  delta possibly a table over two choice values), precedence links
  (end(pred) + delta <= start(succ)), disjunctive groups, weighted cumulative
  resources, and conditional objective bounds ("if this exact choice
  fingerprint holds, the objective is at least this value" -- the logic-cut
  form).

Search is depth-first branch and bound: choice variables first (machine-kind
before worker-kind, then model order; values in domain order), then
chronological start-time fixing, then remaining elastic end fixing.  The
first descent therefore behaves like a greedy earliest-start dive.  Bounds
propagation runs at every node (time windows through offsets and precedences,
pairwise disjunctive reasoning, timetable reasoning over mandatory parts of
cumulatives).  Every incumbent is re-checked against the raw constraints by
an independent evaluator before it is stored.

Propagation is event driven: the AC-3 queue (Mackworth, 1977) applied to
bounds.  Compilation numbers one propagator per task window, offset,
precedence, disjunctive and cumulative, with two watch lists: task -> the
propagators reading its bounds, choice -> those whose menu, delta table,
guard, presence or weight reads its domain.  A propagator that moves a task
bound queues that task's watchers (not itself: each is idempotent).  The root
queues every propagator; a child starts from its parent's fixpoint, so it
queues only the watchers of the variable its branching edit changed and of
the objective tasks the incumbent cap moved.  No propagator narrows a choice
domain, so presence and each group's active members are computed once per
call.  A guard or delta table whose choices have one-value root domains is
decided before search and compiled away: the member is unguarded, the delta
a constant, and neither watches the choice.  Every propagator narrows
monotonically and a failure stays a failure, so by the chaotic-iteration
argument any visiting order reaches the round-robin sweep's greatest
fixpoint and fail/no-fail outcome; only the name of the failing constraint
may differ.

Determinism: the search draws no randomness.  With a node budget, results
are a pure function of (model, budget, hint); nothing reads the clock except
the optional wall-clock budget, which is documented as non-deterministic.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

INF = float("inf")

_KIND_PRIORITY = {"machine": 0, "worker": 1}


@dataclass(frozen=True, slots=True)
class ChoiceVar:
    id: str
    values: tuple[int, ...]
    kind: str = "generic"


@dataclass(frozen=True, slots=True)
class TaskVar:
    """Interval task; exactly one of duration / duration_menu / elastic."""

    id: str
    duration: int | None = None
    duration_menu: tuple[str, dict[int, int]] | None = None
    elastic: bool = False
    est: int = 0
    lct: int = 0
    presence: tuple[str, int] | None = None


@dataclass(frozen=True, slots=True)
class Member:
    """Guarded membership of a task in a disjunctive group or cumulative."""

    task: str
    weight: int = 1
    weight_choice: str | None = None
    guard: tuple[str, int] | None = None


Delta = tuple[str, str, dict[tuple[int, int], int]]


@dataclass(frozen=True, slots=True)
class OffsetLink:
    """start(succ) = end(pred) + delta (table keyed by two choice values wins)."""

    pred: str
    succ: str
    delta: int = 0
    table: Delta | None = None


@dataclass(frozen=True, slots=True)
class Precedence:
    """end(pred) + delta <= start(succ)."""

    pred: str
    succ: str
    delta: int = 0
    table: Delta | None = None


@dataclass(frozen=True, slots=True)
class Disjunctive:
    id: str
    members: tuple[Member, ...]


@dataclass(frozen=True, slots=True)
class Cumulative:
    id: str
    capacity: int
    members: tuple[Member, ...]


@dataclass(frozen=True, slots=True)
class ConditionalBound:
    """If every listed choice takes its listed value, objective >= bound."""

    fingerprint: tuple[tuple[str, int], ...]
    bound: int


@dataclass(slots=True)
class ConstraintSet:
    offsets: list[OffsetLink] = field(default_factory=list)
    precedences: list[Precedence] = field(default_factory=list)
    disjunctives: list[Disjunctive] = field(default_factory=list)
    cumulatives: list[Cumulative] = field(default_factory=list)
    conditional_bounds: list[ConditionalBound] = field(default_factory=list)


@dataclass(slots=True)
class EngineModel:
    tasks: dict[str, TaskVar]
    choices: dict[str, ChoiceVar]
    constraints: ConstraintSet
    objective_tasks: list[str]
    objective_floor: int = 0


@dataclass(frozen=True, slots=True)
class Assignment:
    """A complete concrete assignment (absent tasks may be omitted)."""

    choices: dict[str, int]
    starts: dict[str, int]
    ends: dict[str, int]


@dataclass(slots=True)
class SearchResult:
    status: str  # optimal | feasible | infeasible | unknown
    objective: int | None
    lower_bound: int
    incumbent: Assignment | None
    nodes: int
    wall_time: float
    ub_history: list[tuple[int, int]]


class State:
    """Mutable search state: task time bounds plus choice domains."""

    __slots__ = ("s_lo", "s_hi", "e_lo", "e_hi", "domains")

    def __init__(self, s_lo, s_hi, e_lo, e_hi, domains):
        self.s_lo = s_lo
        self.s_hi = s_hi
        self.e_lo = e_lo
        self.e_hi = e_hi
        self.domains = domains

    def copy(self) -> "State":
        return State(
            list(self.s_lo), list(self.s_hi), list(self.e_lo), list(self.e_hi),
            list(self.domains),
        )


def check_model(model: EngineModel) -> None:
    """Validate structural sanity; raise ValueError on a malformed model."""
    tasks, choices = model.tasks, model.choices
    for cid, c in choices.items():
        if cid != c.id:
            raise ValueError(f"choice key {cid} != id {c.id}")
        if not c.values:
            raise ValueError(f"choice {cid} has an empty domain")
        if len(set(c.values)) != len(c.values):
            raise ValueError(f"choice {cid} has duplicate domain values")
    for tid, t in tasks.items():
        if tid != t.id:
            raise ValueError(f"task key {tid} != id {t.id}")
        kinds = (t.duration is not None) + (t.duration_menu is not None) + t.elastic
        if kinds != 1:
            raise ValueError(f"task {tid} must have exactly one duration mode")
        if t.duration is not None and t.duration < 0:
            raise ValueError(f"task {tid} has negative duration")
        if t.duration_menu is not None:
            cid, menu = t.duration_menu
            if cid not in choices:
                raise ValueError(f"task {tid} menu references unknown choice {cid}")
            missing = [v for v in choices[cid].values if v not in menu]
            if missing:
                raise ValueError(f"task {tid} menu misses durations for {missing}")
            if any(d < 0 for d in menu.values()):
                raise ValueError(f"task {tid} has a negative menu duration")
        if t.est < 0 or t.lct < t.est:
            raise ValueError(f"task {tid} has an invalid window [{t.est},{t.lct}]")
        if t.presence is not None and t.presence[0] not in choices:
            raise ValueError(f"task {tid} presence references unknown choice")

    def check_member(where: str, m: Member) -> None:
        if m.task not in tasks:
            raise ValueError(f"{where} references unknown task {m.task}")
        if m.weight_choice is not None and m.weight_choice not in choices:
            raise ValueError(f"{where} references unknown weight choice")
        if m.guard is not None and m.guard[0] not in choices:
            raise ValueError(f"{where} references unknown guard choice")

    cs = model.constraints
    for link in list(cs.offsets) + list(cs.precedences):
        for tid in (link.pred, link.succ):
            if tid not in tasks:
                raise ValueError(f"link references unknown task {tid}")
        if link.table is not None:
            ca, cb, table = link.table
            for cid in (ca, cb):
                if cid not in choices:
                    raise ValueError(f"link table references unknown choice {cid}")
            for va in choices[ca].values:
                for vb in choices[cb].values:
                    if (va, vb) not in table:
                        raise ValueError(
                            f"link table misses delta for ({va},{vb}) of ({ca},{cb})"
                        )
    for group in cs.disjunctives:
        for m in group.members:
            check_member(f"disjunctive {group.id}", m)
    for cum in cs.cumulatives:
        if cum.capacity < 0:
            raise ValueError(f"cumulative {cum.id} has negative capacity")
        for m in cum.members:
            check_member(f"cumulative {cum.id}", m)
    for cb in cs.conditional_bounds:
        for cid, _ in cb.fingerprint:
            if cid not in choices:
                raise ValueError(f"conditional bound references unknown choice {cid}")
    for tid in model.objective_tasks:
        if tid not in tasks:
            raise ValueError(f"objective references unknown task {tid}")


class _Compiled:
    """Index-based view of an EngineModel plus the propagation routines."""

    def __init__(self, model: EngineModel) -> None:
        check_model(model)
        self.tids = list(model.tasks)
        self.tidx = {t: i for i, t in enumerate(self.tids)}
        self.cids = list(model.choices)
        self.cidx = {c: i for i, c in enumerate(self.cids)}
        self.tasks = [model.tasks[t] for t in self.tids]
        self.choices = [model.choices[c] for c in self.cids]

        self.presence = [
            None if t.presence is None else (self.cidx[t.presence[0]], t.presence[1])
            for t in self.tasks
        ]
        self.menus = [
            None if t.duration_menu is None
            else (self.cidx[t.duration_menu[0]], t.duration_menu[1])
            for t in self.tasks
        ]

        def compile_delta(link):
            """(const, None), or (0, (ca, cb, table, |root ca|, |root cb|,
            min, max)) with the table's extremes over the root domains; a
            table over two one-value root domains is a constant."""
            if link.table is None:
                return (link.delta, None)
            ca, cb, table = link.table
            va, vb = model.choices[ca].values, model.choices[cb].values
            root = [table[(a, b)] for a in va for b in vb]
            if len(root) == 1:
                return (root[0], None)
            return (0, (self.cidx[ca], self.cidx[cb], table, len(va), len(vb),
                        min(root), max(root)))

        self.links = [  # offsets, then precedences
            (self.tidx[l.pred], self.tidx[l.succ], *compile_delta(l))
            for l in model.constraints.offsets + model.constraints.precedences
        ]

        def compile_member(m: Member):
            """(task, weight, weight choice, guard); a guard that the root
            domain already decides true is dropped."""
            guard = m.guard
            if guard is not None and tuple(model.choices[guard[0]].values) == (guard[1],):
                guard = None
            return (
                self.tidx[m.task],
                m.weight,
                None if m.weight_choice is None else self.cidx[m.weight_choice],
                None if guard is None else (self.cidx[guard[0]], guard[1]),
            )

        self.disjunctives = [
            (g.id, [compile_member(m) for m in g.members])
            for g in model.constraints.disjunctives
        ]
        self.cumulatives = [
            (c.id, c.capacity, [compile_member(m) for m in c.members])
            for c in model.constraints.cumulatives
        ]
        self.cond_bounds = [
            ([(self.cidx[cid], val) for cid, val in cb.fingerprint], cb.bound)
            for cb in model.constraints.conditional_bounds
        ]
        self.obj_tasks = [self.tidx[t] for t in model.objective_tasks]
        self.floor = model.objective_floor

        self.choice_order = sorted(
            range(len(self.choices)),
            key=lambda i: (_KIND_PRIORITY.get(self.choices[i].kind, 2), i),
        )
        self.elastic_flag = [t.elastic for t in self.tasks]

        # Propagator numbering: task windows, offsets, precedences,
        # disjunctives, cumulatives, in that order (the root queue order).
        nt = len(self.tasks)
        self.prec0 = nt + len(model.constraints.offsets)
        self.disj0 = nt + len(self.links)
        self.cum0 = self.disj0 + len(self.disjunctives)
        self.nprops = self.cum0 + len(self.cumulatives)
        task_watch: list[list[int]] = [[] for _ in range(nt)]
        choice_watch: list[list[int]] = [[] for _ in self.choices]

        menu_ci = [m and m[0] for m in self.menus]

        def reads(p: int, ti: int, *cis) -> None:
            """Propagator p reads task ti's bounds and presence and choices cis."""
            task_watch[ti].append(p)
            for ci in (self.presence[ti] and self.presence[ti][0], *cis):
                if ci is not None:
                    choice_watch[ci].append(p)

        for ti in range(nt):
            reads(ti, ti, menu_ci[ti])
        for p, (pi, si, _, table) in enumerate(self.links, nt):
            reads(p, pi)
            reads(p, si, *(table[:2] if table else ()))
        self.groups = [g[1] for g in self.disjunctives] + [c[2] for c in self.cumulatives]
        for p, members in enumerate(self.groups, self.disj0):
            for ti, _, wci, guard in members:  # a cumulative lifts by min duration
                reads(p, ti, wci, guard and guard[0], menu_ci[ti] if p >= self.cum0 else None)
        self.task_watch = tuple(tuple(sorted(set(w))) for w in task_watch)
        self.choice_watch = tuple(tuple(sorted(set(w))) for w in choice_watch)

    # -- state helpers ------------------------------------------------------

    def root_state(self) -> State:
        return State(
            [t.est for t in self.tasks],
            [t.lct for t in self.tasks],
            [t.est for t in self.tasks],
            [t.lct for t in self.tasks],
            [tuple(c.values) for c in self.choices],
        )

    def present_state(self, st: State, ti: int) -> int:
        """+1 present-certain, -1 absent-certain, 0 undecided."""
        p = self.presence[ti]
        if p is None:
            return 1
        ci, val = p
        dom = st.domains[ci]
        if val not in dom:
            return -1
        return 1 if len(dom) == 1 else 0

    def duration_bounds(self, st: State, ti: int) -> tuple[int, int]:
        t = self.tasks[ti]
        if t.duration is not None:
            return t.duration, t.duration
        menu = self.menus[ti]
        if menu is not None:
            ci, table = menu
            durs = [table[v] for v in st.domains[ci]]
            return min(durs), max(durs)
        return 0, max(0, st.e_hi[ti] - st.s_lo[ti])

    def delta_bounds(self, st: State, const: int, table) -> tuple[int, int]:
        if table is None:
            return const, const
        ca, cb, mapping, na, nb, rmin, rmax = table
        da, db = st.domains[ca], st.domains[cb]
        if len(da) == 1 and len(db) == 1:
            d = mapping[(da[0], db[0])]
            return d, d
        if len(da) == na and len(db) == nb:
            return rmin, rmax  # domains only shrink: both are still the root's
        vals = [mapping[(va, vb)] for va in da for vb in db]
        return min(vals), max(vals)

    # -- propagation --------------------------------------------------------

    def propagate(self, st: State, obj_cap: float, _edit=None) -> str | None:
        """Shrink bounds to a fixpoint; return a violated constraint id or None.

        ``_edit`` is the branching decision (kind, index) that made ``st``
        from a parent state already at a fixpoint; None queues everything."""
        pres = [self.present_state(st, ti) for ti in range(len(self.tasks))]
        moved: list[int] = []
        if obj_cap < INF:
            cap = int(obj_cap)
            for ti in self.obj_tasks:
                if pres[ti] == 1 and st.e_hi[ti] > cap:
                    st.e_hi[ti] = cap
                    moved.append(ti)

        if _edit is None:
            queue = deque(range(self.nprops))
        else:
            kind, idx = _edit
            queue = deque((self.choice_watch if kind == "choice" else self.task_watch)[idx])
        inq = [False] * self.nprops
        for p in queue:
            inq[p] = True
        active: list = [None] * (self.nprops - self.disj0)

        def wake() -> None:
            for ti in moved:
                for q in self.task_watch[ti]:
                    if not inq[q]:
                        inq[q] = True
                        queue.append(q)
            moved.clear()

        wake()
        while queue:
            p = queue.popleft()
            if p < self.disj0:
                fail = self._window_or_link(st, p, pres, moved)
            else:
                g = p - self.disj0
                if active[g] is None:
                    active[g] = self._active_members(st, p, pres)
                if p < self.cum0:
                    fail = self._disjunctive(st, g, active[g], moved)
                else:
                    fail = self._cumulative(st, p - self.cum0, active[g], moved)
            if fail is not None:
                return fail
            if moved:
                wake()
            inq[p] = False  # idempotent: its own moves need no second run
        return None

    def _active_members(self, st: State, p: int, pres: list[int]) -> list:
        """Active-certain members of group propagator ``p``: task indices for
        a disjunctive, (task, min weight, min duration) with a positive weight
        for a cumulative."""
        dom = st.domains
        members = [
            m for m in self.groups[p - self.disj0]
            if pres[m[0]] == 1 and (m[3] is None or dom[m[3][0]] == (m[3][1],))
        ]
        if p < self.cum0:
            return [m[0] for m in members]
        weighted = [(m[0], m[1] if m[2] is None else min(dom[m[2]])) for m in members]
        return [(ti, w, self.duration_bounds(st, ti)[0]) for ti, w in weighted if w > 0]

    def _window_or_link(self, st: State, p: int, pres: list[int], moved) -> str | None:
        """Run a task-window (p < #tasks), offset or precedence propagator."""
        s_lo, s_hi, e_lo, e_hi = st.s_lo, st.s_hi, st.e_lo, st.e_hi
        if p < len(self.tasks):
            ti = p
            if pres[ti] != 1:
                return None
            dmin, dmax = self.duration_bounds(st, ti)
            lo = max(e_lo[ti], s_lo[ti] + dmin)
            hi = min(e_hi[ti], s_hi[ti] + dmax)
            slo = max(s_lo[ti], lo - dmax)
            shi = min(s_hi[ti], hi - dmin)
            if lo != e_lo[ti] or hi != e_hi[ti] or slo != s_lo[ti] or shi != s_hi[ti]:
                e_lo[ti], e_hi[ti], s_lo[ti], s_hi[ti] = lo, hi, slo, shi
                moved.append(ti)
            if s_lo[ti] > s_hi[ti] or e_lo[ti] > e_hi[ti]:
                return f"task:{self.tids[ti]}"
            return None
        is_offset = p < self.prec0
        pi, si, const, table = self.links[p - len(self.tasks)]
        if pres[pi] != 1 or pres[si] != 1:
            return None
        dmin, dmax = self.delta_bounds(st, const, table)
        if s_lo[si] < e_lo[pi] + dmin:
            s_lo[si] = e_lo[pi] + dmin
            moved.append(si)
        if is_offset:
            if s_hi[si] > e_hi[pi] + dmax:
                s_hi[si] = e_hi[pi] + dmax
                moved.append(si)
            if e_lo[pi] < s_lo[si] - dmax:
                e_lo[pi] = s_lo[si] - dmax
                moved.append(pi)
        if e_hi[pi] > s_hi[si] - dmin:
            e_hi[pi] = s_hi[si] - dmin
            moved.append(pi)
        if s_lo[si] > s_hi[si] or e_lo[pi] > e_hi[pi]:
            kind = "offset" if is_offset else "precedence"
            return f"{kind}:{self.tids[pi]}->{self.tids[si]}"
        return None

    def _disjunctive(self, st: State, g: int, active: list[int], moved) -> str | None:
        s_lo, s_hi, e_lo, e_hi = st.s_lo, st.s_hi, st.e_lo, st.e_hi
        for x in range(len(active)):
            a = active[x]
            for y in range(x + 1, len(active)):
                b = active[y]
                a_first = e_lo[a] <= s_hi[b]
                b_first = e_lo[b] <= s_hi[a]
                if a_first != b_first:
                    first, second = (a, b) if a_first else (b, a)
                    if s_lo[second] < e_lo[first]:
                        s_lo[second] = e_lo[first]
                        moved.append(second)
                    if e_hi[first] > s_hi[second]:
                        e_hi[first] = s_hi[second]
                        moved.append(first)
                elif not a_first:
                    return f"disjunctive:{self.disjunctives[g][0]}"
        return None

    def _cumulative(self, st: State, c: int, active: list, moved) -> str | None:
        cid, cap, _ = self.cumulatives[c]
        events, own = self._mandatory_events(st, active)
        if self._timetable(events, cap):
            return f"cumulative:{cid}"
        self._lift_starts(st, cap, active, events, own, moved)
        return None

    def _mandatory_events(self, st: State, active: list):
        """Sorted profile events over mandatory parts of active-certain members,
        plus each contributing member's own (lo, hi, weight) span."""
        events: list[tuple[int, int]] = []
        own: dict[int, tuple[int, int, int]] = {}
        for ti, w, _ in active:
            lo, hi = st.s_hi[ti], st.e_lo[ti]
            if lo < hi:
                events.append((lo, w))
                events.append((hi, -w))
                own[ti] = (lo, hi, w)
        events.sort()
        return events, own

    @staticmethod
    def _timetable(events, cap: int) -> bool:
        """True when the mandatory profile exceeds the capacity somewhere."""
        return any(level > cap for level in accumulate(delta for _, delta in events))

    def _lift_starts(self, st: State, cap: int, active, events, own, moved) -> None:
        """Push earliest starts of unfixed active members past profile stretches
        that cannot accommodate them.  Exact: the member's own mandatory part is
        subtracted from the profile before testing.  Lifting past the window is
        left to the member's task-window propagator, which the move queues."""
        segs = _profile_segments(events)
        if not segs:
            return
        for ti, w, dmin in active:
            if st.s_lo[ti] >= st.s_hi[ti]:
                continue  # fixed or empty: the profile sweep already covers it
            if dmin <= 0:
                continue
            mine = own.get(ti)
            t = st.s_lo[ti]
            moved_t = True
            while moved_t:
                moved_t = False
                for seg_lo, seg_hi, level in segs:
                    if seg_hi <= t or seg_lo >= t + dmin:
                        continue
                    if mine is None or mine[1] <= seg_lo or mine[0] >= seg_hi:
                        pieces = ((seg_lo, seg_hi, level),)
                    else:
                        olo, ohi, ow = mine
                        a, b = max(seg_lo, olo), min(seg_hi, ohi)
                        pieces = tuple(
                            p for p in (
                                (seg_lo, a, level),
                                (a, b, level - ow),
                                (b, seg_hi, level),
                            ) if p[0] < p[1]
                        )
                    for plo, phi, lvl in pieces:
                        if phi <= t or plo >= t + dmin:
                            continue
                        if lvl + w > cap:
                            t = phi
                            moved_t = True
                            break
                    if moved_t:
                        break
            if t > st.s_lo[ti]:
                st.s_lo[ti] = t
                moved.append(ti)

    # -- node bound and leaf extraction ---------------------------------------

    def node_lb(self, st: State) -> int:
        lb = self.floor
        for ti in self.obj_tasks:
            if self.present_state(st, ti) == 1 and st.e_lo[ti] > lb:
                lb = st.e_lo[ti]
        for fp, bound in self.cond_bounds:
            if bound > lb and all(
                len(st.domains[ci]) == 1 and st.domains[ci][0] == val
                for ci, val in fp
            ):
                lb = bound
        return lb

    def extract(self, st: State) -> Assignment:
        choices = {
            self.cids[ci]: st.domains[ci][0] for ci in range(len(self.choices))
        }
        starts: dict[str, int] = {}
        ends: dict[str, int] = {}
        for ti in range(len(self.tasks)):
            if self.present_state(st, ti) == 1:
                starts[self.tids[ti]] = st.s_lo[ti]
                ends[self.tids[ti]] = st.e_lo[ti]
        return Assignment(choices=choices, starts=starts, ends=ends)


def _profile_segments(events: list[tuple[int, int]]):
    """Constant positive-level segments (lo, hi, level) of a sorted event list."""
    segs = []
    level = 0
    prev = None
    for point, delta in events:
        if prev is not None and point > prev and level > 0:
            segs.append((prev, point, level))
        level += delta
        prev = point
    return segs


def check_assignment(model: EngineModel, asg: Assignment) -> list[str]:
    """Independently verify a concrete assignment against every constraint."""
    v: list[str] = []
    choices = asg.choices
    for cid, c in model.choices.items():
        if cid not in choices:
            v.append(f"choice {cid} unassigned")
        elif choices[cid] not in c.values:
            v.append(f"choice {cid} assigned out-of-domain value {choices[cid]}")
    if v:
        return v

    def present(t: TaskVar) -> bool:
        return t.presence is None or choices[t.presence[0]] == t.presence[1]

    spans: dict[str, tuple[int, int]] = {}
    for tid, t in model.tasks.items():
        if not present(t):
            continue
        if tid not in asg.starts or tid not in asg.ends:
            v.append(f"task {tid} present but unassigned")
            continue
        s, e = asg.starts[tid], asg.ends[tid]
        spans[tid] = (s, e)
        if s < t.est or e > t.lct:
            v.append(f"task {tid} outside window [{t.est},{t.lct}]")
        if t.duration is not None and e - s != t.duration:
            v.append(f"task {tid} duration {e - s} != {t.duration}")
        elif t.duration_menu is not None:
            want = t.duration_menu[1][choices[t.duration_menu[0]]]
            if e - s != want:
                v.append(f"task {tid} duration {e - s} != selected {want}")
        elif t.elastic and e < s:
            v.append(f"task {tid} has negative duration")
    if v:
        return v

    def delta_of(link) -> int | None:
        if link.table is None:
            return link.delta
        ca, cb, table = link.table
        return table.get((choices[ca], choices[cb]))

    for link in model.constraints.offsets:
        if link.pred in spans and link.succ in spans:
            d = delta_of(link)
            if d is None:
                v.append(f"offset {link.pred}->{link.succ}: no delta for choices")
            elif spans[link.succ][0] != spans[link.pred][1] + d:
                v.append(
                    f"offset {link.pred}->{link.succ}: "
                    f"{spans[link.succ][0]} != {spans[link.pred][1]} + {d}"
                )
    for link in model.constraints.precedences:
        if link.pred in spans and link.succ in spans:
            d = delta_of(link)
            if d is None:
                v.append(f"precedence {link.pred}->{link.succ}: no delta for choices")
            elif spans[link.pred][1] + d > spans[link.succ][0]:
                v.append(f"precedence {link.pred}->{link.succ} violated")

    def active(m: Member) -> bool:
        if not present(model.tasks[m.task]):
            return False
        return m.guard is None or choices[m.guard[0]] == m.guard[1]

    for group in model.constraints.disjunctives:
        live = [m.task for m in group.members if active(m)]
        for x in range(len(live)):
            for y in range(x + 1, len(live)):
                (s1, e1), (s2, e2) = spans[live[x]], spans[live[y]]
                if max(s1, s2) < min(e1, e2):
                    v.append(f"disjunctive {group.id}: {live[x]} overlaps {live[y]}")

    for cum in model.constraints.cumulatives:
        events: list[tuple[int, int]] = []
        for m in cum.members:
            if not active(m):
                continue
            s, e = spans[m.task]
            if e > s:
                w = m.weight if m.weight_choice is None else choices[m.weight_choice]
                events.append((s, w))
                events.append((e, -w))
        level = 0
        for _, delta in sorted(events):
            level += delta
            if level > cum.capacity:
                v.append(f"cumulative {cum.id}: capacity {cum.capacity} exceeded")
                break

    return v


def evaluate_objective(model: EngineModel, asg: Assignment) -> int:
    """Objective of an assignment: max objective-task end, lifted by the model
    floor and by any conditional bound whose fingerprint the assignment hits."""
    value = model.objective_floor
    for tid in model.objective_tasks:
        t = model.tasks[tid]
        if t.presence is None or asg.choices[t.presence[0]] == t.presence[1]:
            value = max(value, asg.ends[tid])
    for cb in model.constraints.conditional_bounds:
        if cb.bound > value and all(
            asg.choices[cid] == val for cid, val in cb.fingerprint
        ):
            value = cb.bound
    return value


def root_state(model: EngineModel) -> tuple[_Compiled, State]:
    """Compile a model and return its root state (exposed for propagation tests)."""
    comp = _Compiled(model)
    return comp, comp.root_state()


def propagate(model: EngineModel) -> tuple[State, str | None]:
    """Run root propagation to fixpoint.

    Returns the reduced state and None, or the partially reduced state and
    the id of the constraint that proved the model infeasible.
    """
    comp, st = root_state(model)
    fail = comp.propagate(st, float("inf"))
    return st, fail


def _pick_branch(comp: _Compiled, st: State):
    """Deterministic branching decision, or None when the node is a leaf."""
    for ci in comp.choice_order:
        if len(st.domains[ci]) > 1:
            return ("choice", ci)
    best = None
    for ti in range(len(comp.tasks)):
        if comp.present_state(st, ti) != 1:
            continue
        if st.s_lo[ti] < st.s_hi[ti]:
            key = (st.s_lo[ti], 1 if comp.elastic_flag[ti] else 0, ti)
            if best is None or key < best:
                best = key
    if best is not None:
        return ("start", best[2])
    for ti in range(len(comp.tasks)):
        if comp.present_state(st, ti) != 1:
            continue
        if st.e_lo[ti] < st.e_hi[ti]:
            return ("end", ti)
    return None


def _child_edits(st: State, branch):
    """Ordered child edits for a branching decision (an exhaustive split)."""
    kind, idx = branch
    if kind == "choice":
        def assign(value):
            def edit(s: State) -> None:
                s.domains[idx] = (value,)
            return edit
        return [assign(v) for v in st.domains[idx]]
    if kind == "start":
        def fix(s: State) -> None:
            s.s_hi[idx] = s.s_lo[idx]
        def bump(s: State) -> None:
            s.s_lo[idx] = s.s_lo[idx] + 1
        return [fix, bump]
    def fix_end(s: State) -> None:
        s.e_hi[idx] = s.e_lo[idx]
    def bump_end(s: State) -> None:
        s.e_lo[idx] = s.e_lo[idx] + 1
    return [fix_end, bump_end]


def solve(
    model: EngineModel,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    hint: Assignment | None = None,
) -> SearchResult:
    """Anytime branch-and-bound minimisation of the model's makespan.

    ``node_budget`` counts propagated nodes and gives fully deterministic
    results; ``time_budget`` (seconds) is honoured but non-deterministic.  A
    ``hint`` assignment, if given, must pass the constraint checker and seeds
    the incumbent.  The returned lower bound is proven: no feasible assignment
    has an objective below it.
    """
    comp = _Compiled(model)
    t0 = _time.perf_counter()

    incumbent: Assignment | None = None
    ub: float = INF
    history: list[tuple[int, int]] = []
    if hint is not None:
        bad = check_assignment(model, hint)
        if bad:
            raise ValueError(f"invalid hint: {bad[0]}")
        incumbent = hint
        ub = evaluate_objective(model, hint)
        history.append((0, int(ub)))

    nodes = 0
    stack: list[list] = []

    def process(state: State, edit=None) -> None:
        """Propagate one node (``edit``: the parent's branching decision that
        made it); record a leaf or push a search frame."""
        nonlocal nodes, incumbent, ub
        nodes += 1
        fail = comp.propagate(state, ub - 1 if incumbent is not None else INF, edit)
        if fail is not None:
            return
        lb = comp.node_lb(state)
        if lb >= ub:
            return
        branch = _pick_branch(comp, state)
        if branch is None:
            asg = comp.extract(state)
            bad = check_assignment(model, asg)
            if bad:
                raise RuntimeError(f"search reached an invalid leaf: {bad[0]}")
            obj = evaluate_objective(model, asg)
            if obj < ub:
                incumbent, ub = asg, obj
                history.append((nodes, obj))
            return
        stack.append([state, _child_edits(state, branch), 0, lb, branch])

    process(comp.root_state())

    budget_hit = False
    frontier_min: float = INF
    while stack:
        if node_budget is not None and nodes >= node_budget:
            budget_hit = True
        elif time_budget is not None and _time.perf_counter() - t0 > time_budget:
            budget_hit = True
        if budget_hit:
            for frame in stack:
                if frame[2] < len(frame[1]):
                    frontier_min = min(frontier_min, frame[3])
            break
        frame = stack[-1]
        if frame[2] >= len(frame[1]):
            stack.pop()
            continue
        edit = frame[1][frame[2]]
        frame[2] += 1
        child = frame[0].copy()
        edit(child)
        process(child, frame[4])

    wall = _time.perf_counter() - t0
    if incumbent is not None:
        obj = int(ub)
        if not budget_hit or frontier_min >= ub:
            return SearchResult("optimal", obj, obj, incumbent, nodes, wall, history)
        return SearchResult(
            "feasible", obj, int(frontier_min), incumbent, nodes, wall, history
        )
    if not budget_hit:
        return SearchResult("infeasible", None, comp.floor, None, nodes, wall, history)
    lb = int(frontier_min) if frontier_min < INF else comp.floor
    return SearchResult("unknown", None, lb, None, nodes, wall, history)

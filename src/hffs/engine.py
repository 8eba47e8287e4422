"""Generic exact/anytime interval-scheduling search kernel.

The engine minimises makespan over a model made of:

- TaskVar: a half-open interval with a fixed duration, a duration selected
  from a menu by a choice variable, or an elastic (free nonnegative) duration;
  every task is always present;
- ChoiceVar: a finite integer domain (machine index, worker count, ...);
- ConstraintSet: exact-offset links (start(succ) = end(pred) + delta, the
  delta possibly a table over two choice values), precedence links
  (end(pred) + delta <= start(succ)), disjunctive groups, weighted cumulative
  resources, and conditional objective bounds ("if this exact choice
  fingerprint holds, the objective is at least this value" -- the logic-cut
  form).

A group member either always belongs to its group or is routed by a choice
(``Member.on``): it belongs to exactly the groups whose ``value`` that choice
takes, the alternative pattern of Laborie, Rogerie, Shaw & Vilim (Constraints
23(2), 2018).  Groups that one choice routes between (the machines of one
stage) share one member tuple, a family, which is read and compiled once.

A choice is open or decided.  No propagator narrows a choice domain and
every choice edit decides its choice, so a search state holds one value per
choice, None while the choice is open, when its domain is its root domain; a
choice whose root domain is one value is decided at the root.  Search is
depth-first branch and bound in two phases: open choices first, in model
order, each tried at the values of its root domain in order, then
chronological start-time fixing.  The first descent therefore behaves like a
greedy earliest-start dive.  Bounds propagation runs at every node (time
windows through offsets and precedences, pairwise disjunctive reasoning,
timetable reasoning over mandatory parts of cumulatives).  Every incumbent is
re-checked against the raw constraints by an independent evaluator before it
is stored.

The timetable pushes a member's earliest start past each constant segment
of the mandatory profile that the member, of weight w, cannot join.  Its own
mandatory part [s_hi, e_lo) starts and ends at profile events, so each
segment lies inside it or outside it.  A segment inside it already carries w
once (check_model admits a task once per member tuple), so after the
overload check it holds level - w + w <= cap and cannot push; only a segment
outside it with level + w > cap can.

A node is a leaf once every choice is decided and every start fixed, and
its earliest ends (elastic ones too) are its incumbent.  At such a fixpoint
each window gives est <= s <= e_lo <= lct, with e_lo = s + d for a decided
duration; each offset s(succ) = e_lo(pred) + d and each precedence
s(succ) >= e_lo(pred) + d for its decided delta; two disjunctive members with
neither order open fail the node; and a cumulative's mandatory parts are
exactly the intervals [s, e_lo), which the timetable keeps within capacity.
That assignment's objective is ``node_lb`` (the floor, the objective tasks'
earliest ends, the conditional bounds every decided choice hits), and no
leaf below the node has less, so branching on ends could only add nodes.

Propagation is event driven: the AC-3 queue (Mackworth, 1977) applied to
bounds.  Compilation numbers one propagator per task window, offset,
precedence, disjunctive and cumulative, with watch lists: task -> the
propagators reading its bounds, choice -> those whose menu, delta table or
weight reads its domain, and for a routed member (task, choice) -> the groups
of each value.  A routed member sits in no group until its choice is
decided, so a choice edit to v seeds and empties the active lists of only the
value-v groups that route on the choice and adds them to the watchers of the
tasks it routes.  A propagator that moves a task bound queues that task's
watchers (not itself: each is idempotent).  The queue is two FIFOs: windows and links always run before
disjunctives and cumulatives (Schulte & Stuckey, TOPLAS 31(1), 2008).  The
root first runs every window and link once in a topological order of the
tasks by links (Kahn; each task's window, then its outgoing links; tasks on a
link cycle follow in index order), which settles lower bounds along each
chain, then queues that order reversed, which carries upper bounds back up
the chains, and every group propagator.  A child starts from its parent's
fixpoint and queues only the watchers of the variable its branching edit
changed and of the objective tasks the incumbent cap moved.  No propagator
narrows a choice domain, so choice-derived data changes only at a choice
edit: each group's active members and each task's watchers live in the
search state, a start edit shares the parent's lists, and a choice edit
copies them and empties the entries of the groups it seeds, which fill when
they next run.  A menu's duration extremes over the root domain are compiled
and serve every state in which its choice is open.  A member routed by
a choice whose root domain is one value v sits unconditionally in the
family's value-v groups and in no other, and a delta table over two
one-value root domains is a constant; neither watches the choice.
Every propagator narrows monotonically and a failure stays a failure, so by
the chaotic-iteration argument any visiting order (the root sweep and the
two FIFOs are such orders) reaches the round-robin sweep's greatest fixpoint
and fail/no-fail outcome; only the name of the failing constraint may differ.
A group reads the bounds of its active members only, so not waking it for
the moves of a member that is not active leaves that fixpoint unchanged.

A search stopped at its budget can be continued (``resume``): its stack,
incumbent and node count are kept, so continuing to a larger budget gives
what a fresh search at that budget gives.

Determinism: the search draws no randomness.  With a node budget, results
are a pure function of (model, budget, hint); nothing reads the clock except
the optional deadline, which is documented as non-deterministic.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field

INF = float("inf")


@dataclass(frozen=True, slots=True)
class ChoiceVar:
    id: str
    values: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class TaskVar:
    """Interval task; exactly one of duration / duration_menu / elastic."""

    id: str
    duration: int | None = None
    duration_menu: tuple[str, dict[int, int]] | None = None
    elastic: bool = False
    est: int = 0
    lct: int = 0


@dataclass(frozen=True, slots=True)
class Member:
    """Membership of a task in a disjunctive group or cumulative: always, or,
    when routed ``on`` a choice, exactly while that choice takes the group's
    ``value``."""

    task: str
    weight: int = 1
    weight_choice: str | None = None
    on: str | None = None


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
    value: int | None = None  # the value that routes a routed member here


@dataclass(frozen=True, slots=True)
class Cumulative:
    id: str
    capacity: int
    members: tuple[Member, ...]
    value: int | None = None  # the value that routes a routed member here


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
    """A complete concrete assignment: every choice and every task."""

    choices: dict[str, int]
    starts: dict[str, int]
    ends: dict[str, int]


@dataclass(slots=True)
class SearchResult:
    """A search's outcome.  ``paused`` is the search itself when it was
    resumable and stopped at its budget (see ``resume``); setting it to None
    frees that search."""

    status: str  # optimal | feasible | infeasible | unknown
    objective: int | None
    lower_bound: int
    incumbent: Assignment | None
    nodes: int
    wall_time: float
    ub_history: list[tuple[int, int]]
    paused: "_Search | None" = field(default=None, repr=False, compare=False)


class State:
    """Mutable search state: task time bounds plus one value per choice,
    None while the choice is open (its domain is then its root domain).

    ``active`` holds one entry per group propagator, its active members or
    None when not yet computed, and ``watch`` one entry per task, the
    propagators its moves wake, routed groups included once their choice is
    decided; ``propagate`` keeps both.  A copy shares the lists, and
    ``propagate`` gives a state its own copies after a choice edit, so states
    that share a list have equal values."""

    __slots__ = ("s_lo", "s_hi", "e_lo", "e_hi", "values", "active", "watch")

    def __init__(self, s_lo, s_hi, e_lo, e_hi, values, active=None, watch=None):
        self.s_lo = s_lo
        self.s_hi = s_hi
        self.e_lo = e_lo
        self.e_hi = e_hi
        self.values = values
        self.active = active
        self.watch = watch

    def copy(self) -> "State":
        return State(
            list(self.s_lo), list(self.s_hi), list(self.e_lo), list(self.e_hi),
            list(self.values), self.active, self.watch,
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

    read: set[int] = set()  # ids of the member tuples read: groups may share one

    def check_group(where: str, group) -> None:
        if id(group.members) not in read:
            read.add(id(group.members))
            if len({m.task for m in group.members}) != len(group.members):
                raise ValueError(f"{where} lists a task twice")
            for m in group.members:
                if m.task not in tasks:
                    raise ValueError(f"{where} references unknown task {m.task}")
                if m.weight_choice is not None and m.weight_choice not in choices:
                    raise ValueError(f"{where} references unknown weight choice")
                if m.on is not None and m.on not in choices:
                    raise ValueError(f"{where} references unknown routing choice {m.on}")
        if group.value is None and any(m.on is not None for m in group.members):
            raise ValueError(f"{where} has routed members but no value")

    cs = model.constraints
    tables: set = set()  # (id of a table, the two domains) already read
    for link in list(cs.offsets) + list(cs.precedences):
        for tid in (link.pred, link.succ):
            if tid not in tasks:
                raise ValueError(f"link references unknown task {tid}")
        if link.table is not None:
            ca, cb, table = link.table
            for cid in (ca, cb):
                if cid not in choices:
                    raise ValueError(f"link table references unknown choice {cid}")
            key = (id(table), choices[ca].values, choices[cb].values)
            if key in tables:
                continue
            tables.add(key)
            for va in choices[ca].values:
                for vb in choices[cb].values:
                    if (va, vb) not in table:
                        raise ValueError(
                            f"link table misses delta for ({va},{vb}) of ({ca},{cb})"
                        )
    for group in cs.disjunctives:
        check_group(f"disjunctive {group.id}", group)
    for cum in cs.cumulatives:
        if cum.capacity < 0:
            raise ValueError(f"cumulative {cum.id} has negative capacity")
        check_group(f"cumulative {cum.id}", cum)
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

        def compile_menu(t: TaskVar):
            """None, or (choice, table, root min, root max)."""
            if t.duration_menu is None:
                return None
            cid, table = t.duration_menu
            root = [table[v] for v in model.choices[cid].values]
            return (self.cidx[cid], table, min(root), max(root))

        self.menus = [compile_menu(t) for t in self.tasks]

        extremes: dict = {}  # (id of a table, the two root domains) -> values

        def compile_delta(link):
            """(const, None), or (0, (ca, cb, table, min, max)) with the
            table's extremes over the root domains; a table over two
            one-value root domains is a constant."""
            if link.table is None:
                return (link.delta, None)
            ca, cb, table = link.table
            va, vb = model.choices[ca].values, model.choices[cb].values
            key = (id(table), va, vb)
            if key not in extremes:
                root = [table[(a, b)] for a in va for b in vb]
                extremes[key] = (len(root), min(root), max(root))
            n, lo, hi = extremes[key]
            if n == 1:
                return (lo, None)
            return (0, (self.cidx[ca], self.cidx[cb], table, lo, hi))

        self.links = [  # offsets, then precedences
            (self.tidx[l.pred], self.tidx[l.succ], *compile_delta(l))
            for l in model.constraints.offsets + model.constraints.precedences
        ]

        cons = model.constraints
        group_defs = [*cons.disjunctives, *cons.cumulatives]
        shared = {id(g.members): g.members for g in group_defs}  # groups may share one
        families = {  # (task, weight, weight choice, routing choice) per member
            key: [
                (
                    self.tidx[m.task],
                    m.weight,
                    None if m.weight_choice is None else self.cidx[m.weight_choice],
                    None if m.on is None else self.cidx[m.on],
                )
                for m in members
            ]
            for key, members in shared.items()
        }
        self.disjunctives = [g.id for g in cons.disjunctives]
        self.cumulatives = [(c.id, c.capacity) for c in cons.cumulatives]
        self.groups = [families[id(g.members)] for g in group_defs]
        self.group_value = [g.value for g in group_defs]
        self.cond_bounds = [
            ([(self.cidx[cid], val) for cid, val in cb.fingerprint], cb.bound)
            for cb in model.constraints.conditional_bounds
        ]
        self.obj_tasks = [self.tidx[t] for t in model.objective_tasks]
        self.floor = model.objective_floor
        self.min_value = [min(c.values) for c in self.choices]
        self.elastic_flag = [t.elastic for t in self.tasks]

        # Propagator numbering: task windows, offsets, precedences,
        # disjunctives, cumulatives, in that order.
        nt = len(self.tasks)
        self.prec0 = nt + len(model.constraints.offsets)
        self.disj0 = nt + len(self.links)
        self.cum0 = self.disj0 + len(self.disjunctives)
        self.nprops = self.cum0 + len(self.cumulatives)
        task_watch: list[list[int]] = [[] for _ in range(nt)]
        choice_watch: list[list[int]] = [[] for _ in self.choices]

        menu_ci = [m and m[0] for m in self.menus]

        def reads(p: int, ti: int | None, *cis) -> None:
            """Propagator p reads task ti's bounds and choices cis."""
            if ti is not None:
                task_watch[ti].append(p)
            for ci in cis:
                if ci is not None:
                    choice_watch[ci].append(p)

        for ti in range(nt):
            reads(ti, ti, menu_ci[ti])
        for p, (pi, si, _, table) in enumerate(self.links, nt):
            reads(p, pi)
            reads(p, si, *(table[:2] if table else ()))
        self.interned: dict = {}  # states keep active lists: share equal entries

        # Group watches, once per family and kind (a cumulative also reads its
        # members' menus: it lifts by minimum duration); a routed member's
        # choice maps its task to the family's groups per value, for ``_route``.
        kinds: dict[tuple[int, bool], dict] = {}  # (family, kind) -> value -> groups
        for p, g in enumerate(group_defs, self.disj0):
            kinds.setdefault((id(g.members), p >= self.cum0), {}).setdefault(g.value, []).append(p)
        route_tasks: list[dict] = [{} for _ in self.choices]
        route_watch: list[dict] = [{} for _ in self.choices]
        for (key, is_cum), by_value in kinds.items():
            ps = [p for same in by_value.values() for p in same]
            for ti, _, wci, ci in families[key]:
                menu = menu_ci[ti] if is_cum else None
                if ci is None:
                    targets, watched = ps, ti
                elif len(self.choices[ci].values) == 1:
                    targets, watched = by_value.get(self.choices[ci].values[0], ()), ti
                else:  # the task wakes a group through its route only
                    route_tasks[ci][ti, id(by_value)] = (ti, by_value)
                    route_watch[ci][id(by_value)] = by_value
                    if wci is None and menu is None:
                        continue
                    targets, watched = ps, None
                for p in targets:
                    reads(p, watched, wci, menu)
        self.task_watch = tuple(tuple(sorted(set(w))) for w in task_watch)
        self.route_tasks = tuple(tuple(r.values()) for r in route_tasks)
        self.choice_watch = tuple(tuple(sorted(set(w))) for w in choice_watch)
        self.route_watch = tuple(tuple(r.values()) for r in route_watch)

        # Root sweep: tasks in Kahn's topological order by links (tasks on a
        # link cycle, or behind one, follow in index order), each task's
        # window followed by its outgoing links.
        out: list[list[int]] = [[] for _ in range(nt)]
        indeg = [0] * nt
        for p, (pi, si, _, _) in enumerate(self.links, nt):
            out[pi].append(p)
            indeg[si] += 1
        order = [ti for ti in range(nt) if indeg[ti] == 0]
        for ti in order:  # grows while it is read: a FIFO
            for p in out[ti]:
                si = self.links[p - nt][1]
                indeg[si] -= 1
                if indeg[si] == 0:
                    order.append(si)
        order += [ti for ti in range(nt) if indeg[ti] > 0]
        self.sweep = tuple(p for ti in order for p in (ti, *out[ti]))

    # -- state helpers ------------------------------------------------------

    def root_state(self) -> State:
        return State(
            [t.est for t in self.tasks],
            [t.lct for t in self.tasks],
            [t.est for t in self.tasks],
            [t.lct for t in self.tasks],
            [c.values[0] if len(c.values) == 1 else None for c in self.choices],
        )

    def duration_bounds(self, st: State, ti: int) -> tuple[int, int]:
        t = self.tasks[ti]
        if t.duration is not None:
            return t.duration, t.duration
        menu = self.menus[ti]
        if menu is not None:
            ci, table, rmin, rmax = menu
            v = st.values[ci]
            if v is None:
                return rmin, rmax
            d = table[v]
            return d, d
        return 0, max(0, st.e_hi[ti] - st.s_lo[ti])

    def delta_bounds(self, st: State, const: int, table) -> tuple[int, int]:
        if table is None:
            return const, const
        ca, cb, mapping, rmin, rmax = table
        va, vb = st.values[ca], st.values[cb]
        if va is None:
            if vb is None:
                return rmin, rmax
            vals = [mapping[(a, vb)] for a in self.choices[ca].values]
        elif vb is None:
            vals = [mapping[(va, b)] for b in self.choices[cb].values]
        else:
            d = mapping[(va, vb)]
            return d, d
        return min(vals), max(vals)

    # -- propagation --------------------------------------------------------

    def propagate(self, st: State, obj_cap: float, _edit=None) -> str | None:
        """Shrink bounds to a fixpoint; return a violated constraint id or None.

        ``_edit`` is the branching decision (kind, index) that made ``st``
        from a parent state already at a fixpoint; None is the root, which
        sweeps windows and links once in topological order and then queues
        everything."""
        moved: list[int] = []
        if obj_cap < INF:
            cap = int(obj_cap)
            for ti in self.obj_tasks:
                if st.e_hi[ti] > cap:
                    st.e_hi[ti] = cap
                    moved.append(ti)

        disj0 = self.disj0
        if _edit is None:
            st.active = [None] * (self.nprops - disj0)
            st.watch = list(self.task_watch)
            for p in self.sweep:
                fail = self._window_or_link(st, p, moved)
                if fail is not None:
                    return fail
            moved.clear()  # everything is queued below
            seeds = (*reversed(self.sweep), *range(disj0, self.nprops))
        else:
            kind, idx = _edit
            if kind == "choice":
                value = st.values[idx]
                seeds = (*self.choice_watch[idx],
                         *(p for by_value in self.route_watch[idx]
                           for p in by_value.get(value, ())))
                st.active = list(st.active)  # the parent's values differ
                for p in seeds:
                    if p >= disj0:
                        st.active[p - disj0] = None
                if self.route_tasks[idx]:
                    st.watch = list(st.watch)
                    self._route(st, idx)
            else:
                seeds = st.watch[idx]
        active, watch = st.active, st.watch
        cheap, groups = queues = (deque(), deque())  # windows and links first
        inq = [False] * self.nprops
        for p in seeds:
            if not inq[p]:
                inq[p] = True
                queues[p >= disj0].append(p)

        def wake() -> None:
            for ti in moved:
                for q in watch[ti]:
                    if not inq[q]:
                        inq[q] = True
                        queues[q >= disj0].append(q)
            moved.clear()

        wake()
        while cheap or groups:
            p = cheap.popleft() if cheap else groups.popleft()
            if p < disj0:
                fail = self._window_or_link(st, p, moved)
            else:
                g = p - disj0
                if active[g] is None:
                    active[g] = self._active_members(st, p)
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

    def _route(self, st: State, ci: int) -> None:
        """Let the tasks that choice ``ci`` routes wake the groups of its
        decided value (``st.watch`` must be the state's own list)."""
        value = st.values[ci]
        for ti, by_value in self.route_tasks[ci]:
            st.watch[ti] = (*st.watch[ti], *by_value.get(value, ()))

    def _active_members(self, st: State, p: int) -> list:
        """Active-certain members of group propagator ``p``: task indices for
        a disjunctive, (task, min weight, min duration) with a positive weight
        for a cumulative."""
        values = st.values
        g = p - self.disj0
        routed_here = self.group_value[g]
        members = [m for m in self.groups[g] if m[3] is None or values[m[3]] == routed_here]
        if p < self.cum0:
            return [m[0] for m in members]
        weighted = [
            (m[0], m[1] if m[2] is None
             else self.min_value[m[2]] if values[m[2]] is None else values[m[2]])
            for m in members
        ]
        entries = [(ti, w, self.duration_bounds(st, ti)[0]) for ti, w in weighted if w > 0]
        return [self.interned.setdefault(e, e) for e in entries]

    def _window_or_link(self, st: State, p: int, moved) -> str | None:
        """Run a task-window (p < #tasks), offset or precedence propagator."""
        s_lo, s_hi, e_lo, e_hi = st.s_lo, st.s_hi, st.e_lo, st.e_hi
        if p < len(self.tasks):
            ti = p
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
                    return f"disjunctive:{self.disjunctives[g]}"
        return None

    def _cumulative(self, st: State, c: int, active: list, moved) -> str | None:
        cid, cap = self.cumulatives[c]
        events = []  # mandatory parts [s_hi, e_lo) of the active members
        for ti, w, _ in active:
            lo, hi = st.s_hi[ti], st.e_lo[ti]
            if lo < hi:
                events.append((lo, w))
                events.append((hi, -w))
        events.sort()
        # Events sort by (time, delta), so at each time point the running
        # level peaks after the point's last event.  That peak is the level of
        # the segment starting there, and after the final event the level is
        # 0.  With cap >= 0 (check_model), the mandatory profile exceeds the
        # capacity exactly when some segment's level does.
        segs = _profile_segments(events)
        if any(level > cap for _, _, level in segs):
            return f"cumulative:{cid}"
        self._lift_starts(st, cap, active, segs, moved)
        return None

    def _lift_starts(self, st: State, cap: int, active, segs, moved) -> None:
        """Push earliest starts of unfixed active members past the profile
        segments outside their own mandatory parts that cannot take their
        weight (exact: see the module docstring).  Lifting past the window is
        left to the member's task-window propagator, which the move queues."""
        for ti, w, dmin in active:
            if st.s_lo[ti] >= st.s_hi[ti] or dmin <= 0:
                continue  # fixed, empty or of no length: nothing to push
            own_lo, own_hi = st.s_hi[ti], st.e_lo[ti]
            t = st.s_lo[ti]
            for lo, hi, level in segs:  # sorted and disjoint
                if lo >= t + dmin:
                    break
                if hi > t and level + w > cap and not own_lo <= lo < hi <= own_hi:
                    t = hi
            if t > st.s_lo[ti]:
                st.s_lo[ti] = t
                moved.append(ti)

    # -- node bound and leaf extraction ---------------------------------------

    def node_lb(self, st: State) -> int:
        lb = self.floor
        for ti in self.obj_tasks:
            if st.e_lo[ti] > lb:
                lb = st.e_lo[ti]
        for fp, bound in self.cond_bounds:
            if bound > lb and all(st.values[ci] == val for ci, val in fp):
                lb = bound
        return lb

    def extract(self, st: State) -> Assignment:
        return Assignment(
            choices=dict(zip(self.cids, st.values)),
            starts=dict(zip(self.tids, st.s_lo)),
            ends=dict(zip(self.tids, st.e_lo)),
        )


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

    spans: dict[str, tuple[int, int]] = {}
    for tid, t in model.tasks.items():
        if tid not in asg.starts or tid not in asg.ends:
            v.append(f"task {tid} unassigned")
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
        d = delta_of(link)
        if d is None:
            v.append(f"offset {link.pred}->{link.succ}: no delta for choices")
        elif spans[link.succ][0] != spans[link.pred][1] + d:
            v.append(
                f"offset {link.pred}->{link.succ}: "
                f"{spans[link.succ][0]} != {spans[link.pred][1]} + {d}"
            )
    for link in model.constraints.precedences:
        d = delta_of(link)
        if d is None:
            v.append(f"precedence {link.pred}->{link.succ}: no delta for choices")
        elif spans[link.pred][1] + d > spans[link.succ][0]:
            v.append(f"precedence {link.pred}->{link.succ} violated")

    def live_members(group) -> list[Member]:
        """Unrouted members and those whose choice takes the group's value."""
        return [m for m in group.members if m.on is None or choices[m.on] == group.value]

    for group in model.constraints.disjunctives:
        live = [m.task for m in live_members(group)]
        for x in range(len(live)):
            for y in range(x + 1, len(live)):
                (s1, e1), (s2, e2) = spans[live[x]], spans[live[y]]
                if max(s1, s2) < min(e1, e2):
                    v.append(f"disjunctive {group.id}: {live[x]} overlaps {live[y]}")

    for cum in model.constraints.cumulatives:
        events: list[tuple[int, int]] = []
        for m in live_members(cum):
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
    if None in st.values:
        return ("choice", st.values.index(None))
    open_starts = [(st.s_lo[ti], comp.elastic_flag[ti], ti)  # earliest, elastic last
                   for ti in range(len(comp.tasks)) if st.s_lo[ti] < st.s_hi[ti]]
    return ("start", min(open_starts)[2]) if open_starts else None


def _child_edits(comp: _Compiled, branch):
    """Ordered child edits for a branching decision (an exhaustive split)."""
    kind, idx = branch
    if kind == "choice":
        def assign(value):
            def edit(s: State) -> None:
                s.values[idx] = value
            return edit
        return [assign(v) for v in comp.choices[idx].values]
    def fix(s: State) -> None:
        s.s_hi[idx] = s.s_lo[idx]
    def bump(s: State) -> None:
        s.s_lo[idx] = s.s_lo[idx] + 1
    return [fix, bump]


def solve(
    model: EngineModel,
    *,
    node_budget: int | None = None,
    deadline: float | None = None,
    hint: Assignment | None = None,
    resumable: bool = False,
) -> SearchResult:
    """Anytime branch-and-bound minimisation of the model's makespan.

    ``node_budget`` counts propagated nodes and gives fully deterministic
    results.  ``deadline`` is a ``time.perf_counter()`` reading: the search
    always propagates the root, then stops at the first node boundary at or
    after the deadline (non-deterministic).  A ``hint`` assignment, if given,
    must pass the constraint checker and seeds the incumbent.  The returned
    lower bound is proven: no feasible assignment has an objective below it.
    With ``resumable``, a search that stops at its budget keeps its stack and
    incumbent in the result's ``paused`` for ``resume``; without it they are
    freed on return.
    """
    result = _Search(model, hint).run(node_budget, deadline)
    if not resumable:
        result.paused = None
    return result


def resume(
    result: SearchResult,
    *,
    node_budget: int | None = None,
    deadline: float | None = None,
) -> SearchResult:
    """Continue a search that stopped at its budget.

    ``node_budget`` counts every node of the search, those searched before
    included; ``deadline`` is a ``time.perf_counter()`` reading, and a
    deadline already past adds no node.  The result is
    updated in place and returned.  The search continues from the frame it
    stopped in with the same incumbent and cap, so with node budgets the
    result equals a fresh ``solve`` at the larger budget in status,
    objective, bound, nodes, history and incumbent; only ``wall_time``, the
    sum of both calls, may differ.  A result with no paused search (the
    search finished, or was not resumable) is returned unchanged.
    """
    if result.paused is None:
        return result
    return result.paused.run(node_budget, deadline, result)


class _Search:
    """Depth-first branch and bound whose stack outlives a budget stop."""

    __slots__ = ("model", "comp", "incumbent", "ub", "history", "nodes", "stack", "wall")

    def __init__(self, model: EngineModel, hint: Assignment | None) -> None:
        self.model = model
        self.comp = _Compiled(model)
        self.incumbent: Assignment | None = None
        self.ub: float = INF
        self.history: list[tuple[int, int]] = []
        if hint is not None:
            bad = check_assignment(model, hint)
            if bad:
                raise ValueError(f"invalid hint: {bad[0]}")
            self.incumbent = hint
            self.ub = evaluate_objective(model, hint)
            self.history.append((0, int(self.ub)))
        self.nodes = 0
        self.stack: list[list] = []
        self.wall = 0.0

    def process(self, state: State, edit=None) -> None:
        """Propagate one node (``edit``: the parent's branching decision that
        made it); record a leaf or push a search frame."""
        comp = self.comp
        self.nodes += 1
        ub = self.ub
        fail = comp.propagate(state, ub - 1 if self.incumbent is not None else INF, edit)
        if fail is not None:
            return
        lb = comp.node_lb(state)
        if lb >= ub:
            return
        branch = _pick_branch(comp, state)
        if branch is None:
            asg = comp.extract(state)
            bad = check_assignment(self.model, asg)
            if bad:
                raise RuntimeError(f"search reached an invalid leaf: {bad[0]}")
            obj = evaluate_objective(self.model, asg)
            if obj < ub:
                self.incumbent, self.ub = asg, obj
                self.history.append((self.nodes, obj))
            return
        self.stack.append([state, _child_edits(comp, branch), 0, lb, branch])

    def run(
        self,
        node_budget: int | None,
        deadline: float | None,
        result: SearchResult | None = None,
    ) -> SearchResult:
        """Search until the stack empties or a budget is spent; fill ``result``
        in place, or a new result when there is none yet."""
        t0 = _time.perf_counter()
        if not self.nodes:
            self.process(self.comp.root_state())
        stack, process = self.stack, self.process
        budget_hit = False
        frontier_min: float = INF
        while stack:
            if node_budget is not None and self.nodes >= node_budget:
                budget_hit = True
            elif deadline is not None and _time.perf_counter() >= deadline:
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
        self.wall += _time.perf_counter() - t0

        ub = self.ub
        if self.incumbent is not None:
            obj = int(ub)
            if not budget_hit or frontier_min >= ub:
                status, lb = "optimal", obj
            else:
                status, lb = "feasible", int(frontier_min)
        elif not budget_hit:
            status, obj, lb = "infeasible", None, self.comp.floor
        else:
            status, obj = "unknown", None
            lb = int(frontier_min) if frontier_min < INF else self.comp.floor
        values = (status, obj, lb, self.incumbent, self.nodes, self.wall, self.history,
                  self if budget_hit else None)
        if result is None:
            return SearchResult(*values)
        (result.status, result.objective, result.lower_bound, result.incumbent,
         result.nodes, result.wall_time, result.ub_history, result.paused) = values
        return result

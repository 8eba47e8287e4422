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
depth-first branch and bound: open choices first, in model order, then, at a
node whose earliest-start schedule does not fit its groups, chronological
start-time fixing.  A choice is tried first at the
incumbent's value and then at the rest of its root domain in order
(solution-guided search, Beck, JAIR 29, 2007); with no incumbent yet, in
root order.  The order only moves, so the first descent is an earliest-start
dive along the incumbent's choices, and each improving leaf redirects the
dives that follow.  Bounds propagation runs at
every node (time windows through offsets and precedences, detectable
precedences on disjunctives, timetable reasoning over mandatory parts of
cumulatives).
Every incumbent is re-checked against the raw constraints by an independent
evaluator before it is stored.

A choice's frame holds only the values that a forward check (Haralick &
Elliott, AI 14(3), 1980) does not refute on the node's own fixpoint.  The
check runs each watcher that deciding the choice wakes directly, in the
child's terms: a menu window that reads the choice must fit the value's
duration d, e_lo - s_hi <= d <= e_hi - s_lo; a delta-table link that reads
it, at the extremes of the value's row or column (one delta once both of its
choices are decided), must keep e_lo[pred] + dmin <= s_hi[succ] and, for an
offset, s_lo[succ] - dmax <= e_hi[pred]; and a member the choice routes into
a disjunctive must find no active member b of the value's groups with s_hi[b]
< e_lo[t] and s_hi[t] < e_lo[b], a pair that must each precede the other.
The window and link tests are exactly when one run of that watcher fails,
and the disjunctive's first sweep fails on every such pair.  A child starts
from its parent's bounds, and propagation and the incumbent cap, which only
falls, only narrow them, so a test that fails on the parent's bounds fails
in the child, whose fixpoint then cannot exist: the child fails.  So the
split stays exhaustive over every value that can still lead to a feasible
completion, the surviving values keep their guided order, a node none of
whose values survives pushes no frame, and a refuted value costs no copy,
patch, propagation or node.

The disjunctive rule is pairwise: when of two members only a can precede b,
b's earliest start rises to e_lo[a] and a's latest end falls to s_hi[b], and
when neither can precede the other the group fails.  It reads only e_lo and
s_hi, which it never writes, so its pushes do not depend on the order of the
pairs, and two sorts and two monotone sweeps compute them in O(n log n)
(detectable precedences, Vilim, CPAIOR 2004, without the Theta-tree's
further pruning).  b cannot precede a exactly when s_hi[a] < e_lo[b]; taking
the members by e_lo, those a grow as the members by s_hi join, and a running
top-two maximum of their e_lo leaves out b itself.  If the largest such
e_lo[a] exceeds s_hi[b], a cannot precede b either and the group fails; a
group runs only after every window has settled, so s_lo[b] <= s_hi[b] and the
fail test need only be made where that e_lo[a] would raise s_lo[b].
Otherwise every such a can precede b, and s_lo[b] rises to the largest, as
the pairwise rule raises it.  Symmetrically, taking the members by
descending s_hi, e_hi[a] falls to the smallest s_hi[b] over the b != a with
e_lo[b] > s_hi[a].  A run returns right after its two sorts when the smallest
s_hi is at least the largest e_lo: then no pair has s_hi[a] < e_lo[b], so
neither sweep admits a member, nothing moves and nothing fails.

The timetable pushes a member's earliest start past each constant segment
of the mandatory profile that the member, of weight w, cannot join.  Its own
mandatory part [s_hi, e_lo) starts and ends at profile events, so each
segment lies inside it or outside it.  A segment inside it already carries w
once (compilation admits a task once per member tuple), so after the
overload check it holds level - w + w <= cap and cannot push; only a segment
outside it with level + w > cap can.  Three exits skip the profile and are
exact.  With no mandatory part there is no segment.  When the active
members' total weight is at most the capacity, and more generally when the
weight M of the members with a mandatory part plus the heaviest member
without one is (the total is at least that sum, so one test makes both
exits), no segment exceeds the capacity, as none holds more than M, and
none blocks: a segment outside a member's own part holds at most M - w if
the member has a mandatory part, and at most M if it has none.  The exits
rest on compilation's rule that no weight is negative.

A node is a leaf once every choice is decided and the earliest-start
schedule of its fixpoint, each task over [s_lo, e_lo) (elastic ones too),
fits every active disjunctive and cumulative (``_Compiled.earliest_fits``;
the early-start leaf test of Demeulemeester & Herroelen, Management Science
38(12), 1992); that schedule is its incumbent.  With every choice decided,
the fixpoint's windows and links already hold at the earliest starts: each
window gives est <= s_lo and e_lo <= lct, with e_lo = s_lo + d for a decided
duration; each offset gives s_lo(succ) = e_lo(pred) + d and each precedence
s_lo(succ) >= e_lo(pred) + d for its decided delta.  So when the groups fit
too, the schedule satisfies every constraint.  Its objective is ``node_lb``
(the floor, the objective tasks' earliest ends, the conditional bounds every
decided choice hits), and no leaf below the node has less, so branching
further could only add nodes.  A fixpoint with every start fixed always
fits: two disjunctive members of positive length that overlap there have
neither order open and fail the node, and a cumulative's mandatory parts
[s_hi, e_lo) are then its members' intervals, which the timetable keeps
within capacity.  So a node whose test fails has an open start, and branches
on it.  At any fixpoint, only a time inside an open member's part [s_lo,
min(s_hi, e_lo)) can overload a cumulative in the earliest schedule: any
other time is covered by mandatory parts alone, as a fixed member's is its
whole interval; so the test's sweep of a cumulative reads only the members
over the hull of those parts.

The search is the one that fixes starts down to a leaf, with fewer nodes:
where the earliest schedule fits, it is a solution inside the bounds of
every FIX child below the node.  No propagator removes a solution whose
disjunctive members have positive length, as every encoding of ``hffs``
gives them (the detectable-precedence rule orders a zero-length member
against an interval around it, which the checker allows), and the incumbent
cap stays above the schedule's objective.  So no FIX child fails or moves a
lower bound, the FIX dive ends at the same schedule, and its BUMP siblings,
bounded by that objective, are cut.  The search therefore finds the same
incumbents in the same order, each at no later node, and at a node budget
its upper bound is no higher and its proven bound no lower.

Propagation is event driven: the AC-3 queue (Mackworth, 1977) applied to
bounds.  Compilation numbers one propagator per task window, offset,
precedence, disjunctive and cumulative, with watch lists: side -> the
windows and links reading it, task -> the groups reading its bounds, and
choice -> the windows and links whose menu or delta table reads its domain.
A side is a task's starts (s_lo, s_hi) or its ends (e_lo, e_hi).  A window
reads both sides of its task, a link only its pred's ends and its succ's
starts, and a group every bound of its active members.  A propagator that
moves a bound reports the side it moved, which queues that side's windows
and links and the task's groups (not itself: each is idempotent).  So a
start edit wakes no link out of the task, and a move of its ends none into
it.  A propagator that is not woken reads no bound that moved, so a run
would move nothing, and the fixpoint and the failure outcome stay those of
waking every reader of the task.  The queue is two FIFOs: windows and links
always run before disjunctives and cumulatives (Schulte & Stuckey, TOPLAS
31(1), 2008).  Windows and links are compiled by kind (a fixed, menu or
elastic duration; a constant or table delta) and run inline in the queue
loop.  An elastic window takes an unbounded maximum duration for max(0,
e_hi - s_lo): the two give the same bounds when the window does not fail,
and fail together.  The root first runs every window and link once in a
topological order of the tasks by links (Kahn; each task's window, then its
outgoing links; tasks on a link cycle follow in index order), which settles
lower bounds along each chain, then queues that order reversed, which
carries upper bounds back up the chains, and every group propagator; the
sweep runs through the same loop with all of these already queued, so its
moves wake nothing.  Each run and each failure is counted per kind
(``KINDS``) for ``SearchResult``.  A child starts from its parent's fixpoint
and queues only the watchers of the variable its branching edit changed (a
start edit moves the task's starts) and of the ends the incumbent cap moved.
A search frame keeps its node's state and the values its children take
(``_child_values``: a choice's root domain, or FIX then BUMP for a start; a
choice's frame moves the incumbent's value to the front and drops the values
its forward check refutes); each child is a
copy made by ``_apply``, except the last, which takes over the node's state
once its frame is popped.

No propagator narrows a choice domain, so choice-derived data changes only
at a choice edit: each group's active members and each task's group
watchers live in the search state, and a start edit shares the parent's
lists.  Only the root computes the active lists from the families, which
compilation sorts by task index, so every list goes by task index; it reads
each family once per kind and puts each member in the lists of the groups
of the value its routing choice takes.  A choice edit patches them:
deciding a choice changes an entry only where the choice routes the member
(it joins the groups of the value taken) or, in a cumulative, sets its
weight or its menu's duration (its entry (task, weight, duration) is
replaced, or added when its minimum weight was 0).
Compilation lists those members per choice, so an edit copies each list it
changes once per member and inserts or replaces at the task's slot (a
binary search); a list equals what the root's computation would give in the
child, since every other member's entry reads no value the edit set.  The
groups whose lists an edit changed are the groups it seeds, as nothing else
they read changed, and those a routed member joins are the groups its task
starts watching: a routed member sits in no group until its choice is
decided.  A menu's duration extremes over the root domain are compiled and
serve every state in which its choice is open.  A member routed by a choice
whose root domain is one value v sits unconditionally in the family's
value-v groups and in no other, and a delta table over two one-value root
domains is a constant; neither watches the choice.  Every propagator
narrows monotonically and a failure stays a failure, so by the
chaotic-iteration argument any visiting order (the root sweep and the two
FIFOs are such orders) reaches the round-robin sweep's greatest fixpoint and
fail/no-fail outcome; only the name of the failing constraint may differ.  A
group reads the bounds of its active members only, so not waking it for the
moves of a member that is not active leaves that fixpoint unchanged.

A search stopped at its budget without a proof can be continued into a new
result (``resume``; ``hffs.subproblem`` proves a raised floor sound): its
stack, incumbent (and so its value order) and node count are kept, so
continuing to a larger budget gives what a fresh search at that budget gives.

Determinism: the search draws no randomness.  With a node budget, results
are a pure function of (model, budget, hint); nothing reads the clock except
the optional deadline, which is documented as non-deterministic.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

INF = float("inf")
KINDS = ("window", "link", "disjunctive", "cumulative")  # propagator kinds, counted

# Model records are plain slotted dataclasses, not frozen ones: an encoding
# builds them by the thousand, and a frozen record costs about three times as
# much to build.  The engine only reads them: compiling, solving and resuming
# never change a model, and compilation shares work by the identity of member
# tuples and delta tables, so a caller must not change a model it has handed in.


@dataclass(slots=True)
class ChoiceVar:
    id: str
    values: tuple[int, ...]


@dataclass(slots=True)
class TaskVar:
    """Interval task; exactly one of duration / duration_menu / elastic."""

    id: str
    duration: int | None = None
    duration_menu: tuple[str, dict[int, int]] | None = None
    elastic: bool = False
    est: int = 0
    lct: int = 0


@dataclass(slots=True)
class Member:
    """Membership of a task in a disjunctive group or cumulative: always, or,
    when routed ``on`` a choice, exactly while that choice takes the group's
    ``value``."""

    task: str
    weight: int = 1
    weight_choice: str | None = None
    on: str | None = None


Delta = tuple[str, str, dict[tuple[int, int], int]]


@dataclass(slots=True)
class OffsetLink:
    """start(succ) = end(pred) + delta (table keyed by two choice values wins)."""

    pred: str
    succ: str
    delta: int = 0
    table: Delta | None = None


@dataclass(slots=True)
class Precedence:
    """end(pred) + delta <= start(succ)."""

    pred: str
    succ: str
    delta: int = 0
    table: Delta | None = None


@dataclass(slots=True)
class Disjunctive:
    id: str
    members: tuple[Member, ...]
    value: int | None = None  # the value that routes a routed member here


@dataclass(slots=True)
class Cumulative:
    id: str
    capacity: int
    members: tuple[Member, ...]
    value: int | None = None  # the value that routes a routed member here


@dataclass(slots=True)
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
    """A search's outcome.  ``runs`` and ``fails`` count the propagator runs
    and failures of the whole search per kind (``KINDS``), and ``refuted``
    the choice values that forward checks dropped, by the kind of the
    watcher that refuted them (never a cumulative); like ``nodes`` they are a
    pure function of (model, node budget, hint).  A result never changes once
    returned; ``paused`` holds its search while that search stopped at its
    budget without a proof (see ``resume``)."""

    status: str  # optimal | feasible | infeasible | unknown
    objective: int | None
    lower_bound: int
    incumbent: Assignment | None
    nodes: int
    wall_time: float
    ub_history: list[tuple[int, int]]
    runs: dict[str, int]
    fails: dict[str, int]
    refuted: dict[str, int]
    paused: "_Search | None" = field(default=None, repr=False, compare=False)


class State:
    """Mutable search state: task time bounds plus one value per choice,
    None while the choice is open (its domain is then its root domain).

    ``active`` holds one entry per group propagator, its active members in
    task order, and ``watch`` one entry per task, the groups its moves wake,
    routed groups included once their choice is decided; ``propagate`` keeps
    both.  A copy shares the lists, and a choice edit gives a state its own
    copies of those it changes (``_Compiled._patch``), so states that share
    a list have equal values."""

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
    """Validate structural sanity; raise ValueError on a malformed model.
    Compilation makes every check as it reads the model (see ``_Compiled``),
    so this compiles the model and drops the result."""
    _Compiled(model)


class _Compiled:
    """Index-based view of an EngineModel plus the propagation routines.

    Compiling checks the model as it reads it and raises ValueError on the
    first fault, in a fixed order: choices, tasks, links, disjunctives,
    cumulatives, conditional bounds, objective tasks."""

    def __init__(self, model: EngineModel) -> None:
        choices = model.choices
        self.cids = list(choices)
        self.cidx = cidx = {c: i for i, c in enumerate(self.cids)}
        self.choices = list(choices.values())
        self.min_value = min_value = []
        lows: dict[int, int] = {}  # id of a domain tuple -> its minimum: choices share them
        for cid, c in choices.items():
            values = c.values
            if cid != c.id:
                raise ValueError(f"choice key {cid} != id {c.id}")
            low = lows.get(id(values))
            if low is None:
                if not values:
                    raise ValueError(f"choice {cid} has an empty domain")
                if len(set(values)) != len(values):
                    raise ValueError(f"choice {cid} has duplicate domain values")
                low = lows[id(values)] = min(values)
            min_value.append(low)
        self.tids = list(model.tasks)
        self.tidx = tidx = {t: i for i, t in enumerate(self.tids)}
        self.tasks = list(model.tasks.values())

        # Windows: (min, max, menu) duration by kind: (d, d, None) for a fixed
        # duration d; a menu's extremes over its root domain, which serve
        # while its choice is open, and (choice, table); (0, INF, None) for an
        # elastic task (see the module docstring).  Watch lists: side ->
        # the windows and links that read it, where side 2 * ti is task ti's
        # starts and 2 * ti + 1 its ends; task -> the groups that read its
        # bounds; choice -> the windows and links whose menu or delta table
        # reads it.
        nt = len(self.tasks)
        self.windows = windows = []
        cheap_watch: list[list[int]] = [[k >> 1] for k in range(2 * nt)]  # its own window
        choice_watch: list[list[int]] = [[] for _ in self.choices]
        menu_ci: list[int | None] = [None] * nt
        elastic = (0, INF, None)  # one tuple for every elastic window
        for ti, (tid, t) in enumerate(model.tasks.items()):
            if tid != t.id:
                raise ValueError(f"task key {tid} != id {t.id}")
            d, menu = t.duration, t.duration_menu
            if (d is not None) + (menu is not None) + t.elastic != 1:
                raise ValueError(f"task {tid} must have exactly one duration mode")
            if d is not None:
                if d < 0:
                    raise ValueError(f"task {tid} has negative duration")
                windows.append((d, d, None))
            elif t.elastic:
                windows.append(elastic)
            else:
                cid, table = menu
                ci = menu_ci[ti] = cidx.get(cid)
                if ci is None:
                    raise ValueError(f"task {tid} menu references unknown choice {cid}")
                domain = self.choices[ci].values
                root = [table.get(v) for v in domain]
                if None in root:
                    missing = [v for v in domain if v not in table]
                    raise ValueError(f"task {tid} menu misses durations for {missing}")
                if min(table.values()) < 0:
                    raise ValueError(f"task {tid} has a negative menu duration")
                windows.append((min(root), max(root), (ci, table)))
                choice_watch[ci].append(ti)
            if t.est < 0 or t.lct < t.est:
                raise ValueError(f"task {tid} has an invalid window [{t.est},{t.lct}]")

        # Links, offsets then precedences: (pred, succ, min, max, None) for a
        # constant delta; (pred, succ, root min, root max, (ca, cb, table,
        # row, column)) for a table, where row[a] and column[b] are the
        # extremes of the table's row a and column b over the root domains.
        # A table over two one-value root domains is a constant.  A link
        # reads its pred's ends and its succ's starts.  The same pass gives
        # each task its outgoing links for the root sweep.
        extremes: dict = {}  # (id of a table, the two root domains) -> its extremes
        self.links = links = []
        out: list[list[int]] = [[] for _ in range(nt)]
        indeg = [0] * nt
        cons = model.constraints
        for p, l in enumerate((*cons.offsets, *cons.precedences), nt):
            try:
                pi, si = tidx[l.pred], tidx[l.succ]
            except KeyError as err:
                raise ValueError(f"link references unknown task {err.args[0]}") from None
            cheap_watch[2 * pi + 1].append(p)
            cheap_watch[2 * si].append(p)
            out[pi].append(p)
            indeg[si] += 1
            if l.table is None:
                links.append((pi, si, l.delta, l.delta, None))
                continue
            ca, cb, table = l.table
            for cid in (ca, cb):
                if cid not in choices:
                    raise ValueError(f"link table references unknown choice {cid}")
            va, vb = choices[ca].values, choices[cb].values
            key = (id(table), va, vb)
            if key not in extremes:
                try:
                    grid = [[table[a, b] for b in vb] for a in va]
                except KeyError as err:
                    a, b = err.args[0]
                    raise ValueError(
                        f"link table misses delta for ({a},{b}) of ({ca},{cb})"
                    ) from None
                rows = dict(zip(va, zip(map(min, grid), map(max, grid))))
                cols = dict(zip(vb, zip(map(min, zip(*grid)), map(max, zip(*grid)))))
                lo, hi = min(r[0] for r in rows.values()), max(r[1] for r in rows.values())
                extremes[key] = (len(va) * len(vb), lo, hi, rows, cols)
            n, lo, hi, rows, cols = extremes[key]
            if n == 1:
                links.append((pi, si, lo, lo, None))
                continue
            ca, cb = cidx[ca], cidx[cb]
            links.append((pi, si, lo, hi, (ca, cb, table, rows, cols)))
            choice_watch[ca].append(p)
            if cb != ca:
                choice_watch[cb].append(p)

        self.disjunctives = [g.id for g in cons.disjunctives]
        self.cumulatives = [(c.id, c.capacity) for c in cons.cumulatives]
        self.floor = model.objective_floor
        self.elastic_flag = [t.elastic for t in self.tasks]

        # Propagator numbering: task windows, offsets, precedences,
        # disjunctives, cumulatives, in that order.
        self.prec0 = nt + len(cons.offsets)
        self.disj0 = nt + len(links)
        self.cum0 = self.disj0 + len(self.disjunctives)
        self.nprops = self.cum0 + len(self.cumulatives)
        self.interned: dict = {}  # states keep active lists: share equal entries

        # Groups of one member tuple share a family: its members as (task,
        # weight, weight choice, routing choice), sorted by task, compiled
        # and checked once, when the first group that lists it is read.
        # ``families`` holds each family once per kind, with the kind
        # (cumulative or not) and its groups by value, and is read once here
        # and once per root (``_active_lists``).
        #
        # Patches, per choice: one per member whose list entries deciding it
        # changes (see ``_patch``), the member it routes and, in a cumulative,
        # the member whose weight choice or menu it is (a cumulative lifts by
        # minimum duration).  A patch holds the member's groups: all of the
        # family's, or those of its one-value route's value, or, routed by a
        # choice of more values, those of each value, which its task watches
        # once the route is decided; the others it watches from the root.  A
        # one-value choice is decided at the root and never edited; a member
        # of fixed weight 0 is in no cumulative list: no patch, no watch.
        by_kind: dict[tuple[int, bool], tuple] = {}  # -> (members, value -> groups)
        compiled: dict[int, tuple] = {}  # id of a member tuple -> (family, routed?)
        for p, g in enumerate((*cons.disjunctives, *cons.cumulatives), self.disj0):
            is_cum = p >= self.cum0
            kind = "cumulative" if is_cum else "disjunctive"
            if is_cum and g.capacity < 0:
                raise ValueError(f"cumulative {g.id} has negative capacity")
            members = g.members
            if id(members) not in compiled:
                compiled[id(members)] = self._family(f"{kind} {g.id}", members)
            if g.value is None and compiled[id(members)][1]:
                raise ValueError(f"{kind} {g.id} has routed members but no value")
            key = (id(members), is_cum)
            if key not in by_kind:
                by_kind[key] = (members, {})
            by_kind[key][1].setdefault(g.value, []).append(p)
        try:
            self.cond_bounds = [
                ([(cidx[cid], val) for cid, val in cb.fingerprint], cb.bound)
                for cb in cons.conditional_bounds
            ]
        except KeyError as err:
            raise ValueError(
                f"conditional bound references unknown choice {err.args[0]}") from None
        try:
            self.obj_tasks = [tidx[t] for t in model.objective_tasks]
        except KeyError as err:
            raise ValueError(f"objective references unknown task {err.args[0]}") from None

        group_watch: list[list[int]] = [[] for _ in range(nt)]
        multi = [len(c.values) > 1 for c in self.choices]
        self.patches = patches = [[] for _ in self.choices]
        self.routes = routes = [[] for _ in self.choices]  # its routed disjunctive members
        self.families = []
        for (key, is_cum), (members, by_value) in by_kind.items():
            family = compiled[key][0]
            self.families.append((family, is_cum, by_value))
            ps = [p for same in by_value.values() for p in same]
            for ti, w, wci, ci in family:
                if is_cum and wci is None and w == 0:
                    continue
                routed = ci is not None and multi[ci]
                if routed:
                    groups = by_value
                else:
                    groups = ps if ci is None else by_value.get(self.choices[ci].values[0], ())
                    group_watch[ti] += groups
                patch = (groups, ti, w, wci, ci if routed else None)
                if routed:
                    patches[ci].append(patch)
                    if not is_cum:
                        routes[ci].append((ti, by_value))
                if is_cum:  # its weight choice, then its menu's, once each
                    if wci is not None and wci != ci and multi[wci]:
                        patches[wci].append(patch)
                    mc = menu_ci[ti]
                    if mc is not None and mc != ci and mc != wci and multi[mc]:
                        patches[mc].append(patch)
        for watchers in group_watch:
            watchers.sort()
        # Watch lists are never written after this; cheap and choice watchers
        # were found in propagator order, so they are sorted already.
        self.cheap_watch, self.group_watch = cheap_watch, group_watch
        self.choice_watch = choice_watch

        # Root sweep: tasks in Kahn's topological order by links (tasks on a
        # link cycle, or behind one, follow in index order), each task's
        # window followed by its outgoing links.
        order = [ti for ti in range(nt) if indeg[ti] == 0]
        for ti in order:  # grows while it is read: a FIFO
            for p in out[ti]:
                si = links[p - nt][1]
                indeg[si] -= 1
                if indeg[si] == 0:
                    order.append(si)
        order += [ti for ti in range(nt) if indeg[ti] > 0]
        sweep = []
        for ti in order:
            sweep.append(ti)
            sweep += out[ti]
        self.sweep = tuple(sweep)

        # Queue marks: propagator p is queued in a call iff queued[p] is that
        # call's tick; the last slot takes the unmark of a root-sweep run.
        # The two FIFOs and the list of moved sides serve every call, and a
        # call that fails empties them.
        self.queued = [0] * (self.nprops + 1)
        self.tick = 0
        self.cheap, self.groups, self.moved = deque(), deque(), []
        self.runs = [0] * len(KINDS)  # propagator runs and failures per kind
        self.fails = [0] * len(KINDS)
        self.refuted = [0] * len(KINDS)  # choice values that forward checks drop, per kind
        self.witness = None  # the last failed leaf test's (group, pair or time point)

    def _family(self, where: str, members) -> tuple[list, bool]:
        """A member tuple's family, sorted by task, and whether a member is
        routed; raise on its first faulty member, in tuple order."""
        if len({m.task for m in members}) != len(members):
            raise ValueError(f"{where} lists a task twice")
        family, routed = [], False
        tidx, cidx, min_value = self.tidx, self.cidx, self.min_value
        for m in members:
            ti = tidx.get(m.task)
            if ti is None:
                raise ValueError(f"{where} references unknown task {m.task}")
            wci, ci = m.weight_choice, m.on
            if wci is None:
                if m.weight < 0:
                    raise ValueError(f"{where} has a negative weight for task {m.task}")
            else:
                wci = cidx.get(wci)
                if wci is None:
                    raise ValueError(f"{where} references unknown weight choice")
                if min_value[wci] < 0:
                    raise ValueError(f"{where} has a negative weight for task {m.task}")
            if ci is not None:
                routed, ci = True, cidx.get(ci)
                if ci is None:
                    raise ValueError(f"{where} references unknown routing choice {m.on}")
            family.append((ti, m.weight, wci, ci))
        family.sort()
        return family, routed

    # -- state helpers ------------------------------------------------------

    def root_state(self) -> State:
        return State(
            [t.est for t in self.tasks],
            [t.lct for t in self.tasks],
            [t.est for t in self.tasks],
            [t.lct for t in self.tasks],
            [c.values[0] if len(c.values) == 1 else None for c in self.choices],
        )

    # -- propagation --------------------------------------------------------

    def propagate(self, st: State, obj_cap: float, _edit=None) -> str | None:
        """Shrink bounds to a fixpoint; return a violated constraint id or None.

        ``_edit`` is the branching decision (kind, index) that made ``st``
        from a parent state already at a fixpoint; None is the root, which
        sweeps windows and links once in topological order and then queues
        everything."""
        nt, disj0, cum0, nprops = len(self.tasks), self.disj0, self.cum0, self.nprops
        cheap, groups = self.cheap, self.groups  # windows and links run first
        moved = self.moved  # the sides (2 * task + 0 starts, 1 ends) that moved
        self.tick = tick = self.tick + 1
        sweep = ()
        if _edit is None:
            st.active = self._active_lists(st)
            st.watch = list(self.group_watch)
            # Everything is queued behind the sweep, so its moves wake nothing.
            sweep = self.sweep
            cheap.extend(reversed(sweep))
            groups.extend(range(disj0, nprops))
            self.queued = [tick] * (nprops + 1)
        elif _edit[0] == "choice":
            idx = _edit[1]
            seeds = self.choice_watch[idx]
            if self.patches[idx]:
                seeds = (*seeds, *self._patch(st, idx))
            queued = self.queued
            for p in seeds:
                if queued[p] != tick:
                    queued[p] = tick
                    (cheap if p < disj0 else groups).append(p)
        else:
            moved.append(2 * _edit[1])  # a start edit wakes the readers of its starts
        if obj_cap < INF:
            cap = int(obj_cap)
            for ti in self.obj_tasks:
                if st.e_hi[ti] > cap:
                    st.e_hi[ti] = cap
                    moved.append(2 * ti + 1)

        s_lo, s_hi, e_lo, e_hi, values = st.s_lo, st.s_hi, st.e_lo, st.e_hi, st.values
        active, watch, queued = st.active, st.watch, self.queued
        cheap_watch, windows = self.cheap_watch, self.windows
        links, prec0 = self.links, self.prec0
        disjunctive, cumulative = self._disjunctive, self._cumulative
        window_runs = link_runs = disjunctive_runs = cumulative_runs = 0
        fail = None
        swept, nsweep, done = 0, len(sweep), nprops
        while True:
            if moved:
                for side in moved:
                    for q in cheap_watch[side]:
                        if queued[q] != tick:
                            queued[q] = tick
                            cheap.append(q)
                    for q in watch[side >> 1]:
                        if queued[q] != tick:
                            queued[q] = tick
                            groups.append(q)
                moved.clear()
            queued[done] = 0  # idempotent: its own moves need no second run
            if swept < nsweep:  # the root's sweep: its propagators stay queued
                p, done = sweep[swept], nprops
                swept += 1
            elif cheap:
                p = done = cheap.popleft()
            elif groups:
                p = done = groups.popleft()
            else:
                break
            if p < nt:  # a task window: est <= s <= s + d = e <= lct
                window_runs += 1
                dmin, dmax, menu = windows[p]
                if menu is not None:
                    v = values[menu[0]]
                    if v is not None:
                        dmin = dmax = menu[1][v]
                slo, shi, elo, ehi = s_lo[p], s_hi[p], e_lo[p], e_hi[p]
                lo, hi = slo + dmin, shi + dmax  # the ends the starts allow
                if lo < elo:
                    lo = elo
                if hi > ehi:
                    hi = ehi
                first, last = lo - dmax, hi - dmin  # the starts those ends allow
                if first < slo:
                    first = slo
                if last > shi:
                    last = shi
                if first != slo or last != shi:
                    s_lo[p], s_hi[p] = first, last
                    moved.append(2 * p)
                if lo != elo or hi != ehi:
                    e_lo[p], e_hi[p] = lo, hi
                    moved.append(2 * p + 1)
                if first > last or lo > hi:
                    fail = f"task:{self.tids[p]}"
                    break
            elif p < disj0:  # a link: s(succ) = e(pred) + delta, or >= for a precedence
                link_runs += 1
                pi, si, dmin, dmax, table = links[p - nt]
                if table is not None:  # root extremes while both choices are open
                    ca, cb, deltas, rows, cols = table
                    va, vb = values[ca], values[cb]
                    if va is not None:
                        if vb is not None:
                            dmin = dmax = deltas[va, vb]
                        else:
                            dmin, dmax = rows[va]
                    elif vb is not None:
                        dmin, dmax = cols[vb]
                x = e_lo[pi] + dmin
                if s_lo[si] < x:
                    s_lo[si] = x
                    moved.append(2 * si)
                if p < prec0:
                    x = e_hi[pi] + dmax
                    if s_hi[si] > x:
                        s_hi[si] = x
                        moved.append(2 * si)
                    x = s_lo[si] - dmax
                    if e_lo[pi] < x:
                        e_lo[pi] = x
                        moved.append(2 * pi + 1)
                x = s_hi[si] - dmin
                if e_hi[pi] > x:
                    e_hi[pi] = x
                    moved.append(2 * pi + 1)
                if s_lo[si] > s_hi[si] or e_lo[pi] > e_hi[pi]:
                    kind = "offset" if p < prec0 else "precedence"
                    fail = f"{kind}:{self.tids[pi]}->{self.tids[si]}"
                    break
            else:
                g = p - disj0
                if p < cum0:
                    disjunctive_runs += 1
                    fail = disjunctive(st, g, active[g], moved)
                else:
                    cumulative_runs += 1
                    fail = cumulative(st, p - cum0, active[g], moved)
                if fail is not None:
                    break
        runs = self.runs
        runs[0] += window_runs
        runs[1] += link_runs
        runs[2] += disjunctive_runs
        runs[3] += cumulative_runs
        if fail is not None:
            self.fails[0 if p < nt else 1 if p < disj0 else 2 if p < cum0 else 3] += 1
            cheap.clear()
            groups.clear()
            moved.clear()
        return fail

    def _active_lists(self, st: State) -> list[list]:
        """Every group's active-certain members, in task order, computed from
        the families, each read once per kind and bucketed by the value its
        routed members' choices take: task indices for a disjunctive, (task,
        min weight, min duration) with a positive weight for a cumulative.
        Groups of one family, kind and value share their list."""
        values, disj0 = st.values, self.disj0
        intern, min_value, windows = self.interned.setdefault, self.min_value, self.windows
        active: list = [None] * (self.nprops - disj0)
        for family, is_cum, by_value in self.families:
            lists = {v: [] for v in by_value}
            every = tuple(lists.values())  # an unrouted member's lists
            for ti, w, wci, on in family:
                if on is None:
                    into = every
                else:
                    into = lists.get(values[on])
                    if into is None:  # open, or routed to no group of this kind
                        continue
                    into = (into,)
                entry = ti
                if is_cum:
                    if wci is not None:
                        w = values[wci]
                        if w is None:
                            w = min_value[wci]
                    if w <= 0:
                        continue
                    d, _, menu = windows[ti]
                    if menu is not None and values[menu[0]] is not None:
                        d = menu[1][values[menu[0]]]
                    entry = (ti, w, d)
                    entry = intern(entry, entry)
                for entries in into:
                    entries.append(entry)
            for v, ps in by_value.items():
                for p in ps:
                    active[p - disj0] = lists[v]
        return active

    def _patch(self, st: State, c: int) -> list[int]:
        """Apply the patches of choice ``c``, just decided, to the parent's
        active lists, and let each member that ``c`` routes be watched by the
        groups it joins (see the module docstring); return the groups whose
        lists changed.  A changed list, and the watch table when a member
        joins, is a copy, so the parent's stays as it was."""
        values, min_value, windows = st.values, self.min_value, self.windows
        intern, disj0, cum0 = self.interned.setdefault, self.disj0, self.cum0
        active = st.active = list(st.active)
        watch = None
        changed: list[int] = []
        for groups, ti, w, wci, on in self.patches[c]:
            if on is not None:  # routed: a member of the groups of its value only
                groups = groups.get(values[on], ())
            if not groups:
                continue
            changed += groups
            if on == c:  # the member joins them
                if watch is None:
                    watch = st.watch = list(st.watch)
                watch[ti] = (*watch[ti], *groups)
            if groups[0] < cum0:  # a disjunctive: only a route patches it
                for p in groups:
                    new = active[p - disj0].copy()
                    new.insert(bisect_left(new, ti), ti)
                    active[p - disj0] = new
                continue
            if wci is not None:  # the entry as _active_lists computes it
                w = values[wci]
                if w is None:
                    w = min_value[wci]
            d, _, menu = windows[ti]
            if menu is not None and values[menu[0]] is not None:
                d = menu[1][values[menu[0]]]
            e = (ti, w, d)
            e = intern(e, e)
            for p in groups:
                old = active[p - disj0]
                new = active[p - disj0] = old.copy()
                i = bisect_left(old, ti, key=itemgetter(0))  # the task's slot
                if i < len(old) and old[i][0] == ti:  # its entry before the edit
                    del new[i]
                if w > 0:
                    new.insert(i, e)
        return changed

    def _disjunctive(self, st: State, g: int, active: list[int], moved) -> str | None:
        """Detectable precedences by two sorts and two monotone sweeps (see
        the module docstring)."""
        n = len(active)
        if n < 2:
            return None  # no pair
        s_lo, s_hi, e_lo, e_hi = st.s_lo, st.s_hi, st.e_lo, st.e_hi
        by_start = sorted(active, key=s_hi.__getitem__)
        by_end = sorted(active, key=e_lo.__getitem__)
        if s_hi[by_start[0]] >= e_lo[by_end[-1]]:
            return None  # no a, b with s_hi[a] < e_lo[b]: neither sweep can push
        # Ascending ends: b's earliest start rises to the latest earliest end
        # of the others that cannot start after b ends.
        i, top, second, top_task = 0, -INF, -INF, -1
        for b in by_end:
            end = e_lo[b]
            while i < n and s_hi[by_start[i]] < end:
                a = by_start[i]
                i += 1
                v = e_lo[a]
                if v > top:
                    top, second, top_task = v, top, a
                elif v > second:
                    second = v
            v = second if top_task == b else top
            if v > s_lo[b]:
                if v > s_hi[b]:  # b and that other must each precede the other
                    return f"disjunctive:{self.disjunctives[g]}"
                s_lo[b] = v
                moved.append(2 * b)
        # Descending starts: a's latest end falls to the earliest latest start
        # of the others that cannot end before a starts.
        j, low, second, low_task = n - 1, INF, INF, -1
        for a in reversed(by_start):
            start = s_hi[a]
            while j >= 0 and e_lo[by_end[j]] > start:
                b = by_end[j]
                j -= 1
                v = s_hi[b]
                if v < low:
                    low, second, low_task = v, low, b
                elif v < second:
                    second = v
            v = second if low_task == a else low
            if v < e_hi[a]:
                e_hi[a] = v
                moved.append(2 * a + 1)
        return None

    def _cumulative(self, st: State, c: int, active: list, moved) -> str | None:
        """Timetable over the mandatory parts [s_hi, e_lo) of the active
        members: fail on overload, else lift starts (see ``_lift_starts``)."""
        s_hi, e_lo = st.s_hi, st.e_lo
        cid, cap = self.cumulatives[c]
        events = []
        mandatory = heaviest = 0  # the weight with a mandatory part; the heaviest without
        for ti, w, _ in active:
            lo, hi = s_hi[ti], e_lo[ti]
            if lo < hi:
                mandatory += w
                events.append((lo, w))
                events.append((hi, -w))
            elif w > heaviest:
                heaviest = w
        if not events or mandatory + heaviest <= cap:
            return None  # no segment can exceed or block: see the module docstring
        events.sort()
        # Events sort by (time, delta), so at each time point the running
        # level peaks after the point's last event.  That peak is the level of
        # the segment starting there, and after the final event the level is
        # 0.  With cap >= 0 (compilation checks it), the mandatory profile exceeds the
        # capacity exactly when some segment's level does.
        segs = []  # constant positive-level segments (lo, hi, level)
        level, prev = 0, None
        for point, delta in events:
            if level > 0 and point > prev:
                if level > cap:
                    return f"cumulative:{cid}"
                segs.append((prev, point, level))
            level += delta
            prev = point
        self._lift_starts(st, cap, active, segs, moved)
        return None

    def _lift_starts(self, st: State, cap: int, active, segs, moved) -> None:
        """Push earliest starts of unfixed active members past the profile
        segments outside their own mandatory parts that cannot take their
        weight (exact: see the module docstring).  Lifting past the window is
        left to the member's task-window propagator, which the move queues."""
        s_lo, s_hi, e_lo = st.s_lo, st.s_hi, st.e_lo
        for ti, w, dmin in active:
            t = s_lo[ti]
            if t >= s_hi[ti] or dmin <= 0:
                continue  # fixed, empty or of no length: nothing to push
            own_lo, own_hi = s_hi[ti], e_lo[ti]
            for lo, hi, level in segs:  # sorted and disjoint
                if lo >= t + dmin:
                    break
                if hi > t and level + w > cap and not own_lo <= lo < hi <= own_hi:
                    t = hi
            if t > s_lo[ti]:
                s_lo[ti] = t
                moved.append(2 * ti)

    def forward_check(self, st: State, c: int, values: tuple) -> tuple:
        """The values of open choice ``c`` that no direct watcher of ``c``
        refutes on ``st``'s own fixpoint, in the given order; each value
        dropped is counted under the kind of its first refuting watcher (see
        the module docstring).  The watchers are ``c``'s menu windows and
        delta-table links (``choice_watch``), then the disjunctive members it
        routes (``routes``).  A window or link whose root extremes fit the
        node's bounds refutes no value and is passed over."""
        watchers, routes = self.choice_watch[c], self.routes[c]
        if not watchers and not routes:
            return values
        s_lo, s_hi, e_lo, e_hi, st_values = st.s_lo, st.s_hi, st.e_lo, st.e_hi, st.values
        nt, prec0, disj0 = len(self.tasks), self.prec0, self.disj0
        dropped: dict = {}  # refuted value -> the kind of its first refuting watcher
        for p in watchers:
            if p < nt:  # a menu window: the value's duration must fit its bounds
                dmin, dmax, (_, durations) = self.windows[p]
                low, high = e_lo[p] - s_hi[p], e_hi[p] - s_lo[p]
                if low <= dmin and dmax <= high:
                    continue
                for v in values:
                    if not low <= durations[v] <= high:
                        dropped.setdefault(v, 0)
                continue
            # A delta-table link, at the value's row or column extremes: dmin
            # at most high, and for an offset dmax at least low.
            pi, si, dmin, dmax, (ca, cb, deltas, rows, cols) = self.links[p - nt]
            high, low = s_hi[si] - e_lo[pi], (s_lo[si] - e_hi[pi] if p < prec0 else -INF)
            if dmax <= high and dmin >= low:
                continue
            for v in values:
                va = v if ca == c else st_values[ca]
                vb = v if cb == c else st_values[cb]
                if va is None:
                    dmin, dmax = cols[vb]
                elif vb is None:
                    dmin, dmax = rows[va]
                else:
                    dmin = dmax = deltas[va, vb]
                if dmin > high or dmax < low:
                    dropped.setdefault(v, 1)
        active = st.active
        for ti, by_value in routes:  # no pair of members may each have to precede the other
            lo, hi = s_hi[ti], e_lo[ti]
            for v in values:
                if v not in dropped:
                    for g in by_value.get(v, ()):
                        for b in active[g - disj0]:
                            if s_hi[b] < hi and lo < e_lo[b]:
                                dropped[v] = 2
        if not dropped:
            return values
        for kind in dropped.values():
            self.refuted[kind] += 1
        return tuple(v for v in values if v not in dropped)

    def earliest_fits(self, st: State) -> bool:
        """Whether the earliest-start schedule of fixpoint ``st``, each task
        over [s_lo, e_lo), fits every active group as ``check_assignment``
        reads it: a disjunctive's members of positive length are pairwise
        disjoint, and a cumulative's load is within its capacity at every
        time.  A cumulative's sweep reads only the members over the hull of
        its open members' parts [s_lo, min(s_hi, e_lo)), where alone it can
        be overloaded (see the module docstring).  A test that fails keeps
        its witness, the group and the pair that overlapped or the time that
        was overloaded; the next test re-tests it first and, if it is gone,
        sweeps the groups starting at its group."""
        s_lo, s_hi, e_lo, active = st.s_lo, st.s_hi, st.e_lo, st.active
        ndisj, start = self.cum0 - self.disj0, 0  # active[g] is a disjunctive's while g < ndisj
        if self.witness is not None:
            start, a, b = self.witness
            members = active[start]
            if start < ndisj:
                if (s_lo[a] < e_lo[b] and s_lo[b] < e_lo[a] and s_lo[a] < e_lo[a]
                        and s_lo[b] < e_lo[b] and a in members and b in members):
                    return False
            elif sum(w for ti, w, _ in members if s_lo[ti] <= a < e_lo[ti]) > \
                    self.cumulatives[start - ndisj][1]:
                return False
        n = len(active)
        for k in range(start, start + n):
            g = k - n if k >= n else k
            members = active[g]
            if g < ndisj:  # by start, each member of positive length starts after the last ends
                if len(members) < 2:
                    continue
                end, last = -INF, -1
                for b in sorted(members, key=s_lo.__getitem__):
                    s = s_lo[b]
                    if s < e_lo[b]:
                        if s < end:
                            self.witness = (g, last, b)
                            return False
                        end, last = e_lo[b], b
                continue
            lo, hi = INF, -INF  # the hull of the open members' [s_lo, min(s_hi, e_lo))
            for ti, _, _ in members:
                s, h = s_lo[ti], s_hi[ti]
                if s < h:
                    e = e_lo[ti]
                    if s < lo:
                        lo = s
                    if e > h:
                        e = h
                    if e > hi:
                        hi = e
            if lo >= hi:
                continue
            keys, weights = [], []  # a start at 2t + 1 sorts after an end at 2t
            for ti, w, _ in members:
                s, e = s_lo[ti], e_lo[ti]
                if s < hi and lo < e and s < e:
                    keys += (2 * (s if s > lo else lo) + 1, 2 * e)
                    weights += (w, -w)
            level, cap = 0, self.cumulatives[g - ndisj][1]
            for i in sorted(range(len(keys)), key=keys.__getitem__):
                level += weights[i]
                if level > cap:
                    self.witness = (g, keys[i] >> 1, None)
                    return False
        return True

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


def check_assignment(model: EngineModel, asg: Assignment) -> list[str]:
    """Independently verify a concrete assignment against every constraint.
    Each group takes one event sweep (a disjunctive has capacity 1 and unit
    weights) and one message if violated, naming for a disjunctive the open
    member and the one that starts inside it."""
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
    starts, ends = asg.starts, asg.ends
    for tid, t in model.tasks.items():
        if tid not in starts or tid not in ends:
            v.append(f"task {tid} unassigned")
            continue
        s, e = spans[tid] = starts[tid], ends[tid]
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

    # A member tuple's events are read once per kind and bucketed by the
    # value its routed members' choices take (None: unrouted).  An event is
    # (time, delta, position in the tuple, task), so sorting a group's events
    # puts ends first at a time and keeps member order within a tie.
    buckets: dict[tuple[int, bool], dict] = {}
    for group in model.constraints.disjunctives + model.constraints.cumulatives:
        unit = isinstance(group, Disjunctive)  # capacity 1, every member weighs 1
        capacity = 1 if unit else group.capacity
        by_value = buckets.get((id(group.members), unit))
        if by_value is None:
            by_value = buckets[id(group.members), unit] = {}
            for i, m in enumerate(group.members):
                s, e = spans[m.task]
                if e > s:
                    w = m.weight if m.weight_choice is None else choices[m.weight_choice]
                    w = 1 if unit else w
                    at = by_value.setdefault(None if m.on is None else choices[m.on], [])
                    at.append((s, w, i, m.task))
                    at.append((e, -w, i, m.task))
        events = by_value.get(None, [])
        if group.value is not None:
            events = events + by_value.get(group.value, [])
        level, opened = 0, ""
        for _, delta, _, tid in sorted(events):
            level += delta
            if level > capacity:
                v.append(f"disjunctive {group.id}: {opened} overlaps {tid}" if unit
                         else f"cumulative {group.id}: capacity {capacity} exceeded")
                break
            opened = tid if delta > 0 else opened

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
    """Deterministic branching decision, or None when the node is a leaf:
    the first open choice; else None when the earliest-start schedule fits
    every group (``_Compiled.earliest_fits``; see the module docstring);
    else the open start that is earliest, elastic last, then first in index
    order.  A failed test leaves a start open, as a fixpoint with every
    start fixed always fits."""
    values = st.values
    if None in values:
        return ("choice", values.index(None))
    if comp.earliest_fits(st):
        return None
    s_lo, s_hi, elastic = st.s_lo, st.s_hi, comp.elastic_flag
    pick, at, pick_elastic = None, INF, True
    for ti, s in enumerate(s_lo):
        if s < s_hi[ti] and (s < at or s == at and pick_elastic and not elastic[ti]):
            pick, at, pick_elastic = ti, s, elastic[ti]
    return None if pick is None else ("start", pick)


FIX, BUMP = "fix", "bump"  # a start branch's children: s_hi = s_lo, then s_lo + 1


def _child_values(comp: _Compiled, branch) -> tuple:
    """The values a branching decision's children take, in order (an
    exhaustive split): a choice's root domain, or FIX then BUMP.  A search
    with an incumbent moves its value to the front, and a search drops the
    values a forward check refutes (``_Search.process``)."""
    kind, idx = branch
    return comp.choices[idx].values if kind == "choice" else (FIX, BUMP)


def _apply(st: State, branch, value) -> None:
    """Make ``st`` the child of ``branch`` that takes ``value``, in place."""
    kind, idx = branch
    if kind == "choice":
        st.values[idx] = value
    elif value is FIX:
        st.s_hi[idx] = st.s_lo[idx]
    else:
        st.s_lo[idx] += 1


def solve(
    model: EngineModel,
    *,
    node_budget: int | None = None,
    deadline: float | None = None,
    hint: Assignment | None = None,
) -> SearchResult:
    """Anytime branch-and-bound minimisation of the model's makespan.

    ``node_budget`` counts propagated nodes and gives fully deterministic
    results.  ``deadline`` is a ``time.perf_counter()`` reading: the search
    always propagates the root, then stops at the first node boundary at or
    after the deadline (non-deterministic).  A ``hint`` assignment, if given,
    must pass the constraint checker and seeds the incumbent.  The returned
    lower bound is proven: no feasible assignment has an objective below it.
    A search that stops at its budget without a proof keeps its stack and
    incumbent in the result's ``paused`` for ``resume``; they are freed with
    the result.
    """
    return _Search(model, hint).run(node_budget, deadline)


def resume(
    result: SearchResult,
    *,
    node_budget: int | None = None,
    deadline: float | None = None,
) -> SearchResult:
    """Continue a search that stopped at its budget.

    ``node_budget`` counts every node of the search, those searched before
    included; ``deadline`` is a ``time.perf_counter()`` reading, and a
    deadline already past adds no node.  It returns the continued result and
    leaves ``result`` as it was.  The search continues from the frame it
    stopped in with the same incumbent and cap, so with node budgets the
    continued result equals a fresh ``solve`` at the larger budget in status,
    objective, bound, nodes, history and incumbent; only ``wall_time``, the
    sum of both calls, may differ.  A result with no paused search (the
    search finished or proved its optimum) is returned as it is, and one
    whose search has been continued since is a ValueError.
    """
    search = result.paused
    if search is None:
        return result
    if search.nodes != result.nodes:
        raise ValueError("this result's search has been continued already")
    return search.run(node_budget, deadline)


class _Search:
    """Depth-first branch and bound whose stack outlives a budget stop.

    ``guide`` holds the incumbent's value per choice, index-aligned with the
    compiled choices (None while there is no incumbent), and ``orders`` each
    (choice, value) pair's guided value order once it has been built."""

    __slots__ = ("model", "comp", "incumbent", "ub", "history", "nodes", "stack", "wall",
                 "guide", "orders", "__weakref__")

    def __init__(self, model: EngineModel, hint: Assignment | None) -> None:
        self.model = model
        self.comp = comp = _Compiled(model)
        self.incumbent: Assignment | None = None
        self.ub: float = INF
        self.history: list[tuple[int, int]] = []
        self.guide: list[int] | None = None
        self.orders: dict[tuple[int, int], tuple] = {}
        if hint is not None:
            bad = check_assignment(model, hint)
            if bad:
                raise ValueError(f"invalid hint: {bad[0]}")
            self.incumbent = hint
            self.ub = evaluate_objective(model, hint)
            self.history.append((0, int(self.ub)))
            self.guide = [hint.choices[cid] for cid in comp.cids]
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
                self.guide = state.values
            return
        children = _child_values(comp, branch)
        if branch[0] == "choice":
            if self.guide is not None:
                v = self.guide[branch[1]]
                if v != children[0]:  # the incumbent's value first, the rest in root order
                    key = (branch[1], v)
                    order = self.orders.get(key)
                    if order is None:
                        order = self.orders[key] = (v, *(u for u in children if u != v))
                    children = order
            children = comp.forward_check(state, branch[1], children)
            if not children:  # every value refuted: no feasible completion
                return
        self.stack.append([state, children, 0, lb, branch])

    def run(self, node_budget: int | None, deadline: float | None) -> SearchResult:
        """Search until the stack empties or a budget is spent; return a new
        result, which holds this search while it can be continued."""
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
            if budget_hit:  # every frame on the stack has a child left
                frontier_min = min(frame[3] for frame in stack)
                break
            frame = stack[-1]
            state, children, i, _, branch = frame
            if i + 1 < len(children):
                frame[2] = i + 1
                state = state.copy()
            else:  # the last child takes over its parent's state
                stack.pop()
            _apply(state, branch, children[i])
            process(state, branch)
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
        comp, paused = self.comp, self if budget_hit and status != "optimal" else None
        return SearchResult(status, obj, lb, self.incumbent, self.nodes, self.wall,
                            list(self.history), dict(zip(KINDS, comp.runs)),
                            dict(zip(KINDS, comp.fails)), dict(zip(KINDS, comp.refuted)), paused)

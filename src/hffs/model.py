"""Data types and feasibility validators for hybrid flexible flowshop scheduling.

An instance describes jobs flowing through an ordered list of stages, each stage
holding one or more parallel identical machines.  A job visits an ordered subset
of stages (it may skip the rest).  Processing an operation -- one (job, stage)
pair -- occupies a machine of that stage and a chosen number of workers from a
shared pool; the duration depends on the worker count.  Between the machines of
consecutive visited stages the job travels for an exact, machine-pair-specific
transport time.  Before and after processing, the job may sit in the machine's
entry or exit buffer, both of limited capacity.

Conventions used throughout the package:

- time is a nonnegative integer; all intervals are half-open ``[start, end)``,
  so an interval ending at t and one starting at t do not overlap;
- a zero-length wait interval occupies no buffer slot;
- a job in transit between machines occupies neither buffer.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter

Op = tuple[str, str]
Interval = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Instance:
    """A complete problem datum.  Immutable after construction.

    ``machines`` maps machine id to its owning stage and fixes the machine
    order used by generators and solvers.  ``transport`` must contain an entry
    for every (m, n) machine pair that some job could traverse between
    consecutive eligible stages.  ``proc_time`` maps (job, stage, workers) to
    the processing duration for every admissible worker count of the stage.

    Two slots rely on that immutability and are neither init fields nor
    compared: the stage -> machines table that ``machines_of`` reads, built
    here, and the violations that ``validate_instance`` stores on its first
    call.  A ``dataclasses.replace`` copy derives both afresh.
    """

    jobs: tuple[str, ...]
    stages: tuple[str, ...]
    machines: dict[str, str]
    eligible_stages: dict[str, tuple[str, ...]]
    buffer_in: dict[str, int]
    buffer_out: dict[str, int]
    transport: dict[tuple[str, str], int]
    workers_total: int
    workers_min: dict[str, int]
    workers_max: dict[str, int]
    proc_time: dict[tuple[str, str, int], int]
    _stage_machines: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _violations: list[str] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table: dict[str, list[str]] = {}
        for m, s in self.machines.items():
            table.setdefault(s, []).append(m)
        object.__setattr__(self, "_stage_machines", {s: tuple(ms) for s, ms in table.items()})

    def machines_of(self, stage: str) -> tuple[str, ...]:
        """The stage's machines in machine order; ``()`` for an unknown stage."""
        return self._stage_machines.get(stage, ())

    def worker_window(self, stage: str) -> range:
        return range(self.workers_min[stage], self.workers_max[stage] + 1)

    def ops(self) -> list[Op]:
        """All (job, stage) operations in job-major, stage-order sequence."""
        return [(j, s) for j in self.jobs for s in self.eligible_stages.get(j, ())]


@dataclass(frozen=True, slots=True)
class Schedule:
    """A complete assignment: machine, worker count, and the three intervals
    (wait-before, process, wait-after) per operation, plus the makespan."""

    machine_of: dict[Op, str]
    workers_of: dict[Op, int]
    wait_before: dict[Op, Interval]
    process: dict[Op, Interval]
    wait_after: dict[Op, Interval]
    makespan: int


def makespan_of(sched: Schedule) -> int:
    """Maximum end of any wait-after interval.

    Raises ValueError on a schedule with no operations.  For a consistent
    schedule this equals ``sched.makespan``; the validator flags mismatches.
    """
    if not sched.wait_after:
        raise ValueError("schedule has no operations")
    return max(end for _, end in sched.wait_after.values())


def serial_schedule(
    inst: Instance, machine_of: dict[Op, str] | None = None
) -> Schedule:
    """A feasible baseline schedule: jobs strictly one after another, each
    operation back to back with zero-length waits and exact transport gaps.

    Always feasible for a valid instance: at most one process interval is
    active at any time (so machine, buffer, and worker limits cannot bind;
    zero-length waits occupy no buffer slot), and every worker count respects
    its stage window.  When ``machine_of`` is given it fixes the machine per
    operation (``check_machine_map`` rejects a bad map); otherwise each
    stage's first machine is used.
    """
    if machine_of is not None:
        check_machine_map(inst, machine_of)
    chosen_machine: dict[Op, str] = {}
    workers_of: dict[Op, int] = {}
    wb: dict[Op, Interval] = {}
    pr: dict[Op, Interval] = {}
    wa: dict[Op, Interval] = {}
    t = 0
    for j in inst.jobs:
        prev: str | None = None
        for s in inst.eligible_stages[j]:
            op = (j, s)
            m = inst.machines_of(s)[0] if machine_of is None else machine_of[op]
            window = inst.worker_window(s)
            w = min(window, key=lambda v: (inst.proc_time[(j, s, v)], v))
            if prev is not None:
                t += inst.transport[(prev, m)]
            p = inst.proc_time[(j, s, w)]
            chosen_machine[op] = m
            workers_of[op] = w
            wb[op] = (t, t)
            pr[op] = (t, t + p)
            wa[op] = (t + p, t + p)
            t += p
            prev = m
    return Schedule(chosen_machine, workers_of, wb, pr, wa, makespan=t)


def _peak(times: list[int], levels: list[int], a: int, b: int) -> int:
    """Highest level of a step profile over ``[a, b)``, ``a < b``.  The
    profile holds ``levels[i]`` on ``[times[i], times[i + 1])``; ``times[0]``
    is 0 and the last level, which holds to infinity, is 0."""
    return max(levels[bisect_right(times, a) - 1 : bisect_left(times, b)])


def _add(times: list[int], levels: list[int], a: int, b: int, weight: int) -> None:
    """Raise the profile by ``weight`` on ``[a, b)``, ``a < b``."""
    i = bisect_right(times, a) - 1
    if times[i] != a:
        i += 1
        times.insert(i, a)
        levels.insert(i, levels[i - 1])
    k = bisect_right(times, b) - 1
    if times[k] != b:
        k += 1
        times.insert(k, b)
        levels.insert(k, levels[k - 1])
    for x in range(i, k):
        levels[x] += weight


def _earliest(times: list[int], levels: list[int], t: int, p: int, limit: int) -> int:
    i, n = bisect_right(times, t) - 1, len(times)
    while True:
        while levels[i] > limit:
            i += 1
        if times[i] > t:
            t = times[i]
        k = i + 1
        while k < n and times[k] < t + p:
            if levels[k] > limit:
                break
            k += 1
        else:
            return t
        i = k


def insertion_schedule(
    inst: Instance, machine_of: dict[Op, str] | None = None
) -> Schedule:
    """A constructive schedule, never longer than ``serial_schedule`` on the
    same machine map: the serial schedule-generation scheme with insertion
    (Kolisch, EJOR 90(2), 1996).

    Jobs are taken once, in LPT order: total minimum processing time,
    descending, ties in instance order.  Each operation of a job, in stage
    order, gets the (machine, worker count, start) with the earliest end,
    ties to fewer workers and then to the earlier machine; ``machine_of``
    (checked by ``check_machine_map``) leaves each operation its one machine.
    The start is the earliest at which the machine is free and enough
    workers are free for the whole process, at or after the job's arrival
    (0 at first) for its first operation, and the previous operation's end
    plus the exact transport for the others.  Each machine keeps its busy
    intervals sorted and searched with ``bisect``; the worker pool and every
    entry and exit buffer are step profiles.  A job's outer waits are zero
    length.  A positive wait between two operations goes into the next
    machine's entry buffer, after the transport, or else into the previous
    machine's exit buffer, before it; a candidate with room in neither is
    passed over.  Waiting longer only grows either wait interval, so a later
    start would not make room that the earliest lacks.  An operation left
    with no candidate sends the job back to arrive later: at its first start
    plus the shortest wait that found no room.

    Let ``C`` be the makespan before the job and ``L`` the length of its
    serial chain: the chain that ``serial_schedule`` gives it (the first
    machine of each stage or the pinned one, the fastest worker count with
    the fewest workers on ties, back to back with exact transports).  The
    job is committed whole, or, when its last end would pass ``C + L``, by
    the serial step, which starts that chain at ``C``.

    The retries end: nothing committed reaches past ``C``, so an operation
    released at or after ``C`` starts at its release without a wait, and
    one released at ``r < C`` waits at most ``C - r``.  A failing
    operation's release exceeds the job's first start, so each retry's
    arrival is later than the last one's and still before ``C``: there are
    fewer than ``C`` retries.

    Feasible: a job's operations use different machines and buffers (one
    machine per stage, one visit per stage) and never overlap in time, so
    checking each against the profiles of the jobs committed before it
    checks it against everything.  A committed placement respects every
    machine, worker and buffer limit and every transport by construction,
    and its waits chain its process intervals exactly.  A serial step meets
    nothing: every interval committed before it ends by ``C``, its waits are
    zero length and its operations follow one another, each with at most
    ``workers_total`` workers (``validate_instance``'s worker window).

    Never longer than ``serial_schedule``: each job raises the makespan from
    ``C`` to at most ``C + L``, so the makespan is at most the sum of the
    jobs' chain lengths, which is the serial schedule's makespan.
    Deterministic: no choice depends on anything but the instance and
    ``machine_of``.
    """
    if machine_of is not None:
        check_machine_map(inst, machine_of)
    proc_time, transport, cap = inst.proc_time, inst.transport, inst.workers_total
    windows = {s: inst.worker_window(s) for s in inst.stages}
    chains = []  # per job: [(op, machines, menu sorted by (p, w))], serial chain length
    work = []  # per job: total minimum processing time
    for j in inst.jobs:
        chain, total, length, prev = [], 0, 0, None
        for s in inst.eligible_stages[j]:
            op = (j, s)
            ms = inst.machines_of(s) if machine_of is None else (machine_of[op],)
            menu = [(proc_time[(j, s, w)], w) for w in windows[s]]
            menu.sort()
            total += menu[0][0]
            if prev is not None:
                length += transport[(prev, ms[0])]
            chain.append((op, ms, menu))
            prev = ms[0]
        chains.append((chain, total + length))
        work.append(total)
    order = sorted(range(len(chains)), key=lambda i: -work[i])

    busy: dict[str, tuple[list[int], list[int]]] = {m: ([], []) for m in inst.machines}
    wt, wl = [0], [0]  # the worker pool's profile
    bin_ = {m: ([0], [0]) for m in inst.machines}
    bout = {m: ([0], [0]) for m in inst.machines}
    moves: dict[tuple, list[tuple[int, int, str]]] = {}
    never = float("inf")

    def place(chain: list, arrival: int) -> tuple[list | None, int]:
        """The job placed from ``arrival`` on, as (m, w, start, end, wait in
        the exit buffer) per operation, or None and the later arrival to
        try when an operation has no candidate."""
        plan, prev_m, prev_end, short = [], None, arrival, never
        for _, ms, menu in chain:
            # (transport, machine index, machine) by transport: a release
            # only grows along it
            cands = moves.get((prev_m, ms))
            if cands is None:
                cands = moves[(prev_m, ms)] = sorted(
                    [(0 if prev_m is None else transport[(prev_m, m)], idx, m)
                     for idx, m in enumerate(ms)])
            first = prev_end + cands[0][0]
            end = never  # the best (end, w, machine index) so far, and its choice
            for p, w in menu:
                if first + p > end:
                    break  # the menu is sorted by p: no later entry ends earlier
                limit = cap - w
                floor = _earliest(wt, wl, first, p, limit)  # no start with w comes earlier
                for move, idx, m in cands:
                    release = prev_end + move
                    t = release if release > floor else floor
                    if t + p >= end:
                        if t + p > end:
                            break  # no later machine starts earlier
                        if (w, idx) > (best_w, best_idx):
                            continue
                    starts, ends = busy[m]
                    free = t == floor  # the workers are free on [t, t + p)
                    while True:  # until the machine is free there too
                        i = bisect_right(ends, t)
                        if i < len(starts) and starts[i] < t + p:
                            t, free = ends[i], False
                        elif free:
                            break
                        else:
                            u = _earliest(wt, wl, t, p, limit)
                            if u == t:
                                break
                            t, free = u, True
                    to_exit = False
                    if t > release and prev_m is not None:
                        if _peak(*bin_[m], release, t) >= inst.buffer_in[m]:
                            wait_end = prev_end + t - release
                            if _peak(*bout[prev_m], prev_end, wait_end) >= inst.buffer_out[prev_m]:
                                short = min(short, t - release)
                                continue
                            to_exit = True
                    if t + p < end or t + p == end and (w, idx) < (best_w, best_idx):
                        end, best_w, best_idx, best = t + p, w, idx, (m, w, t, t + p, to_exit)
            if end is never:
                return None, plan[0][2] + short
            plan.append(best)
            prev_m, prev_end = best[0], end
        return plan, arrival

    chosen: dict[Op, str] = {}
    workers_of: dict[Op, int] = {}
    wb: dict[Op, Interval] = {}
    pr: dict[Op, Interval] = {}
    wa: dict[Op, Interval] = {}
    makespan = 0
    for chain, length in (chains[i] for i in order):
        plan, arrival = place(chain, 0)
        while plan is None:
            plan, arrival = place(chain, arrival)
        if plan[-1][3] > makespan + length:  # the serial step
            plan, t, prev_m = [], makespan, None
            for _, ms, ((p, w), *_) in chain:
                if prev_m is not None:
                    t += transport[(prev_m, ms[0])]
                plan.append((ms[0], w, t, t + p, False))
                prev_m, t = ms[0], t + p
        prev = None
        for (op, _, _), (m, w, t, end, to_exit) in zip(chain, plan):
            starts, ends = busy[m]
            i = bisect_right(ends, t)
            starts.insert(i, t)
            ends.insert(i, end)
            _add(wt, wl, t, end, w)
            chosen[op], workers_of[op], pr[op] = m, w, (t, end)
            wb[op] = (t, t)
            wa[op] = (end, end)
            if prev is not None:
                pop, pm, pend = prev
                gap = t - pend - transport[(pm, m)]
                if gap and to_exit:
                    wa[pop] = (pend, pend + gap)
                    _add(*bout[pm], pend, pend + gap, 1)
                elif gap:
                    wb[op] = (t - gap, t)
                    _add(*bin_[m], t - gap, t, 1)
            prev = (op, m, end)
        makespan = max(makespan, end)
    return Schedule(chosen, workers_of, wb, pr, wa, makespan=makespan)


def check_machine_map(inst: Instance, machine_of: dict[Op, str]) -> None:
    """Raise ValueError unless ``machine_of`` gives exactly the instance's
    operations a machine of their stage."""
    ops = inst.ops()
    odd = [op for op in ops if op not in machine_of] or sorted(machine_of.keys() - set(ops))
    if odd:
        raise ValueError(f"machine map does not cover exactly the operations: {odd[0]}")
    for j, s in ops:
        if inst.machines.get(machine_of[(j, s)]) != s:
            raise ValueError(f"machine {machine_of[(j, s)]} is not in stage {s} (job {j})")


def validate_instance(inst: Instance) -> list[str]:
    """Check every instance invariant; return human-readable violations.

    An empty list means the instance is well formed.  Violations carry the
    offending job/stage/machine ids so callers can report a precise locus.
    The result is stored on the instance, which is immutable after
    construction, so every later call is a lookup; each call returns a
    fresh list.
    """
    if inst._violations is None:
        object.__setattr__(inst, "_violations", _instance_violations(inst))
    return list(inst._violations)


def _instance_violations(inst: Instance) -> list[str]:
    v: list[str] = []
    if not inst.jobs:
        v.append("instance has no jobs")
    if not inst.stages:
        v.append("instance has no stages")
    if len(set(inst.jobs)) != len(inst.jobs):
        v.append("duplicate job ids")
    if len(set(inst.stages)) != len(inst.stages):
        v.append("duplicate stage ids")

    stage_index = {s: i for i, s in enumerate(inst.stages)}
    for m, s in inst.machines.items():
        if s not in stage_index:
            v.append(f"machine {m} tagged with unknown stage {s}")
    for s in inst.stages:
        if not inst.machines_of(s):
            v.append(f"stage {s} has no machines")

    for m in inst.machines:
        for name, table in (("entry", inst.buffer_in), ("exit", inst.buffer_out)):
            if m not in table:
                v.append(f"machine {m} missing {name} buffer capacity")
            elif table[m] < 0:
                v.append(f"machine {m} has negative {name} buffer capacity")

    if inst.workers_total < 1:
        v.append("workers_total must be positive")
    for s in inst.stages:
        if s not in inst.workers_min or s not in inst.workers_max:
            v.append(f"stage {s} missing worker window")
            continue
        lo, hi = inst.workers_min[s], inst.workers_max[s]
        if not (1 <= lo <= hi <= inst.workers_total):
            v.append(f"stage {s} worker window [{lo},{hi}] outside [1,{inst.workers_total}]")

    for j in inst.jobs:
        elig = inst.eligible_stages.get(j)
        if not elig:
            v.append(f"job {j} has no eligible stages")
            continue
        if any(s not in stage_index for s in elig):
            v.append(f"job {j} eligible for unknown stage")
            continue
        idx = [stage_index[s] for s in elig]
        if idx != sorted(set(idx)):
            v.append(f"job {j} eligible stages violate the global stage order")
    known = {"job": set(inst.jobs), "machine": inst.machines, "stage": stage_index}
    for what, table, kind in (
        ("eligible stages", inst.eligible_stages, "job"),
        ("entry buffer capacity", inst.buffer_in, "machine"),
        ("exit buffer capacity", inst.buffer_out, "machine"),
        ("minimum worker count", inst.workers_min, "stage"),
        ("maximum worker count", inst.workers_max, "stage"),
    ):
        v.extend(f"{what} listed for unknown {kind} {k}" for k in table if k not in known[kind])

    # Processing-time table: complete over admissible worker counts, positive,
    # and satisfying the equal-work floor p[j,s,w] >= ceil(p[j,s,1]/w) when a
    # single worker is admissible (more workers can never do less than an even
    # share of the one-worker workload).
    for j in inst.jobs:
        for s in inst.eligible_stages.get(j, ()):
            if s not in inst.workers_min or s not in inst.workers_max:
                continue
            window = inst.worker_window(s)
            for w in window:
                p = inst.proc_time.get((j, s, w))
                if p is None:
                    v.append(f"missing processing time for ({j},{s},{w})")
                elif p < 1:
                    v.append(f"nonpositive processing time for ({j},{s},{w})")
            base = inst.proc_time.get((j, s, 1))
            if window.start == 1 and base is not None and base >= 1:
                for w in window:
                    p = inst.proc_time.get((j, s, w))
                    if p is not None and p * w < base:
                        v.append(
                            f"equal-work floor violated at ({j},{s},{w}): "
                            f"{p} < ceil({base}/{w})"
                        )
    known_ops = {(j, s) for j in inst.jobs for s in inst.eligible_stages.get(j, ())}
    for (j, s, w) in inst.proc_time:
        if (j, s) not in known_ops:
            v.append(f"processing time listed for non-eligible pair ({j},{s},{w})")
        elif s in inst.workers_min and s in inst.workers_max and w not in inst.worker_window(s):
            v.append(f"processing time listed for inadmissible worker count ({j},{s},{w})")

    # Transport coverage: every machine pair a job could traverse between
    # consecutive eligible stages needs an entry.
    stage_pairs: set[tuple[str, str]] = set()
    for j in inst.jobs:
        elig = inst.eligible_stages.get(j, ())
        stage_pairs.update(zip(elig, elig[1:]))
    needed_pairs = {
        pair
        for a, b in stage_pairs
        for pair in product(inst.machines_of(a), inst.machines_of(b))
    }
    for m, n in sorted(needed_pairs - inst.transport.keys()):  # sort only the missing
        v.append(f"missing transport entry for machine pair {m} -> {n}")
    for (m, n), t in inst.transport.items():
        if m not in inst.machines or n not in inst.machines:
            v.append(f"transport time listed for unknown machine pair {m} -> {n}")
        if t < 0:
            v.append(f"negative transport time for machine pair {m} -> {n}")
    return v


def _sweep_max(intervals: list[tuple[Interval, int]]) -> int:
    """Peak weighted occupancy of half-open intervals (endpoint sweep).

    Zero-length intervals contribute nothing.
    """
    events: list[tuple[int, int]] = []
    for (start, end), weight in intervals:
        if end > start:
            events.append((start, weight))
            events.append((end, -weight))
    peak = level = 0
    for _, delta in sorted(events):
        level += delta
        peak = max(peak, level)
    return peak


def validate_schedule(inst: Instance, sched: Schedule) -> list[str]:
    """Check a candidate schedule against every constraint of the problem.

    Pure function; returns one entry per violated constraint.  Checks, in
    order: operation coverage and id cross-references, interval sanity and the
    wait/process/wait chain equalities, process durations against the worker
    choice, exact transport offsets between consecutive assigned machines,
    stage order, per-machine no-overlap, entry/exit buffer capacities, total
    worker usage, and makespan consistency.
    """
    v: list[str] = []
    expected_ops = {(j, s) for j in inst.jobs for s in inst.eligible_stages.get(j, ())}
    for name, table in (
        ("machine_of", sched.machine_of),
        ("workers_of", sched.workers_of),
        ("wait_before", sched.wait_before),
        ("process", sched.process),
        ("wait_after", sched.wait_after),
    ):
        got = set(table)
        for op in sorted(expected_ops - got):
            v.append(f"{name} missing operation ({op[0]},{op[1]})")
        for op in sorted(got - expected_ops):
            v.append(f"{name} references unknown operation ({op[0]},{op[1]})")
    if v:
        return v

    for op in sorted(expected_ops):
        j, s = op
        m = sched.machine_of[op]
        if inst.machines.get(m) != s:
            v.append(f"operation ({j},{s}) assigned to machine {m} outside stage {s}")
        w = sched.workers_of[op]
        if w not in inst.worker_window(s):
            v.append(f"operation ({j},{s}) uses inadmissible worker count {w}")
        for name, (start, end) in (
            ("wait_before", sched.wait_before[op]),
            ("process", sched.process[op]),
            ("wait_after", sched.wait_after[op]),
        ):
            if start < 0 or end < start:
                v.append(f"{name} of ({j},{s}) is not a valid interval [{start},{end})")
    if v:
        return v

    for op in sorted(expected_ops):
        j, s = op
        wb, pr, wa = sched.wait_before[op], sched.process[op], sched.wait_after[op]
        if pr[0] != wb[1]:
            v.append(f"({j},{s}): process must start exactly when wait_before ends")
        if wa[0] != pr[1]:
            v.append(f"({j},{s}): wait_after must start exactly when process ends")
        expected = inst.proc_time.get((j, s, sched.workers_of[op]))
        if expected is not None and pr[1] - pr[0] != expected:
            v.append(
                f"({j},{s}): process duration {pr[1] - pr[0]} != {expected} "
                f"for {sched.workers_of[op]} workers"
            )

    for j in inst.jobs:
        elig = inst.eligible_stages[j]
        for a, b in zip(elig, elig[1:]):
            m, n = sched.machine_of[(j, a)], sched.machine_of[(j, b)]
            t = inst.transport.get((m, n))
            if t is None:
                v.append(f"missing transport entry for machine pair {m} -> {n}")
                continue
            gap = sched.wait_before[(j, b)][0] - sched.wait_after[(j, a)][1]
            if gap != t:
                v.append(
                    f"job {j}, {a} -> {b}: transfer gap {gap} != transport time {t}"
                )
            if sched.process[(j, a)][1] > sched.process[(j, b)][0]:
                v.append(f"job {j}: stage order violated between {a} and {b}")

    by_machine: dict[str, list[tuple[Op, Interval]]] = {}
    for op in expected_ops:
        by_machine.setdefault(sched.machine_of[op], []).append((op, sched.process[op]))
    for m in sorted(by_machine):
        spans = sorted(by_machine[m], key=lambda item: item[1])
        for (op1, iv1), (op2, iv2) in zip(spans, spans[1:]):
            if iv1[1] > iv2[0]:
                v.append(
                    f"machine {m}: processes of ({op1[0]},{op1[1]}) and "
                    f"({op2[0]},{op2[1]}) overlap"
                )

    for m in sorted(inst.machines):
        ops = [op for op, _ in by_machine.get(m, ())]
        if _sweep_max([(sched.wait_before[op], 1) for op in ops]) > inst.buffer_in[m]:
            v.append(f"machine {m}: entry buffer capacity {inst.buffer_in[m]} exceeded")
        if _sweep_max([(sched.wait_after[op], 1) for op in ops]) > inst.buffer_out[m]:
            v.append(f"machine {m}: exit buffer capacity {inst.buffer_out[m]} exceeded")

    usage = [(sched.process[op], sched.workers_of[op]) for op in expected_ops]
    if _sweep_max(usage) > inst.workers_total:
        v.append(f"worker pool capacity {inst.workers_total} exceeded")

    if expected_ops and sched.makespan != makespan_of(sched):
        v.append(
            f"stored makespan {sched.makespan} != max wait_after end {makespan_of(sched)}"
        )
    return v


# ---------------------------------------------------------------------------
# JSON serialization.  The schemas are part of the CLI contract; unknown
# fields are rejected so silently misspelled inputs cannot pass.

_INSTANCE_FIELDS = {
    "jobs", "stages", "machines", "eligible_stages", "buffer_in", "buffer_out",
    "transport", "workers_total", "workers_min", "workers_max", "proc_time",
}
_SCHEDULE_FIELDS = {"machine_of", "workers_of", "intervals", "makespan"}

OP_KEY_SEP = "|"


def _op_key(op: Op) -> str:
    return f"{op[0]}{OP_KEY_SEP}{op[1]}"


def _parse_op_key(key: str) -> Op:
    job, sep, stage = key.partition(OP_KEY_SEP)
    if not sep or not job or not stage:
        raise ValueError(f"bad operation key {key!r} (expected 'job{OP_KEY_SEP}stage')")
    return job, stage


_KINDS = {str: "a string id", int: "an integer", list: "a JSON array", dict: "a JSON object"}


def _require(value: object, kind: type, where: str):
    """``value`` if its parsed JSON type is exactly ``kind`` (so a boolean is
    no integer), else a ValueError naming ``where``."""
    if type(value) is not kind:
        raise ValueError(f"{where}: expected {_KINDS[kind]}, got {value!r}")
    return value


def _document(text: str, what: str, fields: set[str]) -> dict:
    """The top-level object of a document with exactly ``fields``."""
    try:
        doc = json.loads(text)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ValueError(f"{what} document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    unknown = set(doc) - fields
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = fields - set(doc)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")
    return doc


def _rows(value: object, name: str, fields: set[str]) -> list[dict]:
    """The rows of an array-of-objects field, each with exactly ``fields``."""
    rows = _require(value, list, name)
    for row in rows:
        if type(row) is not dict:
            _require(row, dict, f"{name} row")
    for row in rows:
        if row.keys() != fields:
            extra = row.keys() - fields
            if extra:
                raise ValueError(f"unknown {name} fields: {sorted(extra)}")
            raise ValueError(f"{name} row misses fields: {sorted(fields - row.keys())}")
    return rows


def _check_unique(table: dict, rows: list[dict], name: str, key: itemgetter, show: str) -> None:
    """Reject a repeated ``key``: ``table`` was built from ``rows`` by it."""
    if len(table) != len(rows):
        counts = Counter(map(key, rows))
        row = next(r for r in rows if counts[key(r)] > 1)
        raise ValueError(f"duplicate {name} row " + show.format_map(row))


def _ids(value: object, where: str) -> tuple[str, ...]:
    items = _require(value, list, where)
    for item in items:
        if type(item) is not str:
            _require(item, str, where)
    return tuple(items)


def instance_to_json(inst: Instance) -> str:
    doc = {
        "jobs": list(inst.jobs),
        "stages": list(inst.stages),
        "machines": [{"id": m, "stage": s} for m, s in inst.machines.items()],
        "eligible_stages": {j: list(e) for j, e in inst.eligible_stages.items()},
        "buffer_in": dict(inst.buffer_in),
        "buffer_out": dict(inst.buffer_out),
        "transport": [
            {"from": m, "to": n, "t": t} for (m, n), t in inst.transport.items()
        ],
        "workers_total": inst.workers_total,
        "workers_min": dict(inst.workers_min),
        "workers_max": dict(inst.workers_max),
        "proc_time": [
            {"job": j, "stage": s, "w": w, "p": p}
            for (j, s, w), p in inst.proc_time.items()
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def instance_from_json(text: str) -> Instance:
    """Parse an instance document, rejecting unknown or ill-typed fields and
    repeated rows.  Values are type-tested inline; ``_require`` runs only to
    word an error."""
    doc = _document(text, "instance", _INSTANCE_FIELDS)
    rows = _rows(doc["machines"], "machine", {"id", "stage"})
    machines: dict[str, str] = {}
    for row in rows:
        m, s = row["id"], row["stage"]
        if type(m) is not str or type(s) is not str:
            _require(m, str, "machine.id")
            _require(s, str, "machine.stage")
        machines[m] = s
    _check_unique(machines, rows, "machine", itemgetter("id"), "{id}")

    rows = _rows(doc["transport"], "transport", {"from", "to", "t"})
    transport: dict[tuple[str, str], int] = {}
    for row in rows:
        m, n, t = row["from"], row["to"], row["t"]
        if type(m) is not str or type(n) is not str or type(t) is not int:
            _require(m, str, "transport.from")
            _require(n, str, "transport.to")
            _require(t, int, "transport.t")
        transport[(m, n)] = t
    _check_unique(transport, rows, "transport", itemgetter("from", "to"), "{from} -> {to}")

    rows = _rows(doc["proc_time"], "proc_time", {"job", "stage", "w", "p"})
    proc_time: dict[tuple[str, str, int], int] = {}
    for row in rows:
        j, s, w, p = row["job"], row["stage"], row["w"], row["p"]
        if type(j) is not str or type(s) is not str or type(w) is not int or type(p) is not int:
            _require(j, str, "proc_time.job")
            _require(s, str, "proc_time.stage")
            _require(w, int, "proc_time.w")
            _require(p, int, "proc_time.p")
        proc_time[(j, s, w)] = p
    key = itemgetter("job", "stage", "w")
    _check_unique(proc_time, rows, "proc_time", key, "({job},{stage},{w})")

    def ints(name: str) -> dict[str, int]:
        table = _require(doc[name], dict, name)
        for v in table.values():
            if type(v) is not int:
                _require(v, int, name)
        return table

    return Instance(
        jobs=_ids(doc["jobs"], "jobs"),
        stages=_ids(doc["stages"], "stages"),
        machines=machines,
        eligible_stages={
            j: _ids(elig, f"eligible_stages.{j}")
            for j, elig in _require(doc["eligible_stages"], dict, "eligible_stages").items()
        },
        buffer_in=ints("buffer_in"),
        buffer_out=ints("buffer_out"),
        transport=transport,
        workers_total=_require(doc["workers_total"], int, "workers_total"),
        workers_min=ints("workers_min"),
        workers_max=ints("workers_max"),
        proc_time=proc_time,
    )


def schedule_to_dict(sched: Schedule) -> dict:
    """The schedule document as plain JSON values (see ``schedule_to_json``)."""
    return {
        "machine_of": {_op_key(op): m for op, m in sched.machine_of.items()},
        "workers_of": {_op_key(op): w for op, w in sched.workers_of.items()},
        "intervals": {
            _op_key(op): {
                "wb": list(sched.wait_before[op]),
                "pr": list(sched.process[op]),
                "wa": list(sched.wait_after[op]),
            }
            for op in sched.machine_of
        },
        "makespan": sched.makespan,
    }


def schedule_to_json(sched: Schedule) -> str:
    return json.dumps(schedule_to_dict(sched), separators=(",", ":"))


def schedule_from_json(text: str) -> Schedule:
    doc = _document(text, "schedule", _SCHEDULE_FIELDS)

    machine_of = {
        _parse_op_key(k): _require(m, str, "machine_of")
        for k, m in _require(doc["machine_of"], dict, "machine_of").items()
    }
    workers_of = {
        _parse_op_key(k): _require(w, int, "workers_of")
        for k, w in _require(doc["workers_of"], dict, "workers_of").items()
    }
    wait_before: dict[Op, Interval] = {}
    process: dict[Op, Interval] = {}
    wait_after: dict[Op, Interval] = {}
    for key, triple in _require(doc["intervals"], dict, "intervals").items():
        triple = _require(triple, dict, f"intervals.{key}")
        if set(triple) != {"wb", "pr", "wa"}:
            raise ValueError(f"interval fields for {key} must be wb, pr, wa: {sorted(triple)}")
        op = _parse_op_key(key)
        for name, target in (("wb", wait_before), ("pr", process), ("wa", wait_after)):
            pair = triple[name]
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"interval {name} of {key} must be a [start, end] pair")
            target[op] = (_require(pair[0], int, name), _require(pair[1], int, name))
    return Schedule(
        machine_of=machine_of,
        workers_of=workers_of,
        wait_before=wait_before,
        process=process,
        wait_after=wait_after,
        makespan=_require(doc["makespan"], int, "makespan"),
    )

"""Independent reference implementations used only by the test suite.

Nothing here imports solver code from the package.  The brute-force optimum
enumerates integer schedules directly against occupancy arrays; the LP
oracle is a rational two-phase simplex.  Both are deliberately simple and
slow so they can serve as ground truth for the fast implementations.
"""

from __future__ import annotations

from fractions import Fraction

from hffs.model import Instance

# ------------------------------------------------------------ brute force


class _TooManyNodes(RuntimeError):
    pass


def serial_upper_bound(inst: Instance) -> int:
    """Makespan of one trivially feasible schedule: jobs strictly in series,
    first machine of every stage, minimum worker count."""
    total = 0
    for j in inst.jobs:
        elig = inst.eligible_stages[j]
        prev_m = None
        for s in elig:
            m = inst.machines_of(s)[0]
            if prev_m is not None:
                total += inst.transport[(prev_m, m)]
            total += inst.proc_time[(j, s, inst.workers_min[s])]
            prev_m = m
    return total


class _Counter:
    """Occupancy over integer time as bitmasks per usage level.

    ``occ[k]`` has bit t set when at least k units are in use at time t, so a
    weight-w request over a range fits under ``cap`` exactly when the range
    misses ``occ[cap - w + 1]``.  Updates are O(cap) big-int operations and
    undo restores the saved mask tuple.
    """

    __slots__ = ("cap", "occ", "full")

    def __init__(self, cap: int, horizon: int) -> None:
        self.cap = cap
        self.full = (1 << horizon) - 1
        self.occ = [0] * (cap + 1)

    def fits(self, mask: int, w: int) -> bool:
        if w > self.cap:
            return False
        return (self.occ[self.cap - w + 1] & mask) == 0

    def add(self, mask: int, w: int) -> tuple[int, ...]:
        saved = tuple(self.occ)
        occ = self.occ
        for k in range(self.cap, 0, -1):
            low = k - w
            occ[k] |= (self.full if low <= 0 else occ[low]) & mask
        return saved

    def undo(self, saved: tuple[int, ...]) -> None:
        self.occ[:] = saved


def brute_force_optimum(inst: Instance, node_cap: int = 60_000_000) -> int:
    """Exact optimal makespan by exhaustive depth-first enumeration.

    Searches every machine choice, worker count, integer processing start
    and integer wait split between exit and entry buffers, checking
    occupancy masks directly.  Interchangeable never-used machines of a
    stage are tried once (they are identical when their buffers match).
    Raises RuntimeError past ``node_cap`` placements.
    """
    jobs = inst.jobs
    njobs = len(jobs)
    # stage-major op order keeps each job's chain in visit order
    ops = [
        (j, s)
        for s in inst.stages
        for j in jobs
        if s in inst.eligible_stages[j]
    ]
    nops = len(ops)
    prev_of: list[int | None] = []
    pos = {}
    for k, (j, s) in enumerate(ops):
        pos[(j, s)] = k
        elig = inst.eligible_stages[j]
        i = elig.index(s)
        prev_of.append(pos[(j, elig[i - 1])] if i > 0 else None)

    min_t: dict[tuple[str, str], int] = {}
    for (m, n), t in inst.transport.items():
        key = (inst.machines[m], inst.machines[n])
        if key not in min_t or t < min_t[key]:
            min_t[key] = t

    def min_proc(j: str, s: str) -> int:
        return min(inst.proc_time[(j, s, w)] for w in inst.worker_window(s))

    # tail[k]: minimum time needed after op k completes, following j's chain
    tail = [0] * nops
    for k in range(nops - 1, -1, -1):
        j, s = ops[k]
        elig = inst.eligible_stages[j]
        i = elig.index(s)
        if i + 1 < len(elig):
            nxt = elig[i + 1]
            tail[k] = min_t[(s, nxt)] + min_proc(j, nxt) + tail[pos[(j, nxt)]]

    # two machines are interchangeable when swapping them leaves the
    # instance unchanged: same stage, same buffers, same transports
    def interchangeable(m: str, n: str) -> bool:
        if inst.machines[m] != inst.machines[n]:
            return False
        if inst.buffer_in[m] != inst.buffer_in[n]:
            return False
        if inst.buffer_out[m] != inst.buffer_out[n]:
            return False
        sw = {m: n, n: m}
        for (a, b), t in inst.transport.items():
            if inst.transport.get((sw.get(a, a), sw.get(b, b))) != t:
                return False
        return True

    interch = {
        (m, n): interchangeable(m, n)
        for m in inst.machines
        for n in inst.machines
        if m != n
    }

    ub0 = serial_upper_bound(inst)
    horizon = ub0 + 1
    W = inst.workers_total
    workers = _Counter(W, horizon)
    busy = {m: _Counter(1, horizon) for m in inst.machines}
    buf_in = {m: _Counter(inst.buffer_in[m], horizon) for m in inst.machines}
    buf_out = {m: _Counter(inst.buffer_out[m], horizon) for m in inst.machines}

    min_area = [
        min(w * inst.proc_time[(j, s, w)] for w in inst.worker_window(s))
        for (j, s) in ops
    ]
    rem_area = [0] * (nops + 1)
    for k in range(nops - 1, -1, -1):
        rem_area[k] = rem_area[k + 1] + min_area[k]
    # per-stage remaining relaxed load among ops k.. (for the load bound)
    rem_load: dict[str, list[int]] = {s: [0] * (nops + 1) for s in inst.stages}
    for s in inst.stages:
        acc = rem_load[s]
        for k in range(nops - 1, -1, -1):
            acc[k] = acc[k + 1] + (min_proc(*ops[k]) if ops[k][1] == s else 0)
    nmach = {s: len(inst.machines_of(s)) for s in inst.stages}
    # head_end[i]: earliest possible process end of op i along its chain
    head_end = [0] * nops
    for i in range(nops):
        p_i = prev_of[i]
        lead = 0 if p_i is None else head_end[p_i] + min_t[(ops[p_i][1], ops[i][1])]
        head_end[i] = lead + min_proc(*ops[i])

    best = ub0
    end_of = [0] * nops  # process end per placed op
    mach_of = [""] * nops
    used_count = {m: 0 for m in inst.machines}
    nodes = 0

    def stage_bound(k: int) -> int:
        # every remaining op of a stage needs its chain-ready time; the
        # stage's machines then carry the remaining relaxed load
        bound = 0
        for s in inst.stages:
            load = rem_load[s][k]
            if not load:
                continue
            ready = None
            for i in range(k, nops):
                if ops[i][1] != s:
                    continue
                p_i = prev_of[i]
                if p_i is None:
                    r = 0
                elif p_i < k:
                    r = end_of[p_i] + min_t[(ops[p_i][1], s)]
                else:
                    r = head_end[p_i] + min_t[(ops[p_i][1], s)]
                if ready is None or r < ready:
                    ready = r
            lb = (ready or 0) + -(-load // nmach[s])
            if lb > bound:
                bound = lb
        return bound

    def place(k: int, used_area: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_cap:
            raise _TooManyNodes(f"brute force exceeded {node_cap} moves")
        if k == nops:
            cmax = max(
                end_of[i]
                for i, (j, s) in enumerate(ops)
                if s == inst.eligible_stages[j][-1]
            )
            if cmax < best:
                best = cmax
            return
        if -(-(used_area + rem_area[k]) // W) >= best:
            return
        if stage_bound(k) >= best:
            return
        j, s = ops[k]
        p_k = prev_of[k]
        wvals = sorted(inst.worker_window(s), key=lambda w: (inst.proc_time[(j, s, w)], w))
        cands = []
        kept_virgins: list[str] = []
        for m in inst.machines_of(s):
            if used_count[m]:
                cands.append(m)
            elif not any(interch[(n, m)] for n in kept_virgins):
                kept_virgins.append(m)
                cands.append(m)
        for m in cands:
            bout_prev = None
            if p_k is None:
                arr_min, trans, c_prev, m_prev = 0, 0, 0, ""
            else:
                m_prev = mach_of[p_k]
                c_prev = end_of[p_k]
                trans = inst.transport[(m_prev, m)]
                arr_min = c_prev + trans
                bout_prev = buf_out[m_prev]
            bin_m = buf_in[m]
            vac_out = p_k is None or inst.buffer_out[m_prev] >= njobs
            vac_in = inst.buffer_in[m] >= njobs
            busy_m = busy[m]
            for w in wvals:
                p = inst.proc_time[(j, s, w)]
                pmask = (1 << p) - 1
                for b in range(arr_min, best - p - tail[k] + 1):
                    mask = pmask << b
                    c = b + p
                    if not busy_m.fits(mask, 1):
                        continue
                    if not workers.fits(mask, w):
                        continue
                    gap = b - arr_min
                    if p_k is None or gap == 0:
                        splits = (0,)
                    elif vac_out and vac_in:
                        splits = (0,)
                    elif vac_out:
                        splits = (gap,)
                    elif vac_in:
                        splits = (0,)
                    else:
                        splits = range(gap + 1)
                    for x in splits:
                        saved_out = saved_in = None
                        if p_k is not None and gap:
                            omask = ((1 << x) - 1) << c_prev
                            imask = ((1 << (gap - x)) - 1) << (c_prev + x + trans)
                            if x and not bout_prev.fits(omask, 1):
                                continue
                            if x < gap and not bin_m.fits(imask, 1):
                                continue
                            if x:
                                saved_out = bout_prev.add(omask, 1)
                            if x < gap:
                                saved_in = bin_m.add(imask, 1)
                        saved_busy = busy_m.add(mask, 1)
                        saved_w = workers.add(mask, w)
                        end_of[k] = c
                        mach_of[k] = m
                        used_count[m] += 1
                        place(k + 1, used_area + w * p)
                        used_count[m] -= 1
                        workers.undo(saved_w)
                        busy_m.undo(saved_busy)
                        if saved_in is not None:
                            bin_m.undo(saved_in)
                        if saved_out is not None:
                            bout_prev.undo(saved_out)
        return

    place(0, 0)
    return best


# ------------------------------------------------------------ exact simplex


def simplex_min(
    cost: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
) -> Fraction:
    """Minimize cost.x subject to rows.x <= rhs, x >= 0, by two-phase
    tableau simplex with Bland's rule and exact rationals.

    Raises ValueError when the program is infeasible or unbounded.
    """
    m, n = len(rows), len(cost)
    zero, one = Fraction(0), Fraction(1)
    # columns: n structural, m slack, then one artificial per negative row
    neg = [i for i in range(m) if rhs[i] < 0]
    narts = len(neg)
    width = n + m + narts
    tab = []
    basis = []
    art_col = {}
    for idx, i in enumerate(neg):
        art_col[i] = n + m + idx
    for i in range(m):
        row = list(rows[i]) + [zero] * (m + narts)
        row[n + i] = one
        b = rhs[i]
        if i in art_col:
            row = [-v for v in row]
            b = -b
            row[art_col[i]] = one
            basis.append(art_col[i])
        else:
            basis.append(n + i)
        row.append(b)
        tab.append(row)

    def pivot(r: int, c: int) -> None:
        piv = tab[r][c]
        tab[r] = [v / piv for v in tab[r]]
        for i in range(m):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        basis[r] = c

    def run(obj: list[Fraction]) -> list[Fraction]:
        # reduced-cost row for the given objective under the current basis
        z = list(obj) + [zero]
        for i in range(m):
            coeff = obj[basis[i]]
            if coeff != 0:
                z = [a - coeff * b for a, b in zip(z, tab[i])]
        while True:
            col = next((jc for jc in range(width) if z[jc] < 0), None)
            if col is None:
                return z
            row = None
            ratio = None
            for i in range(m):
                if tab[i][col] > 0:
                    r = tab[i][-1] / tab[i][col]
                    if ratio is None or r < ratio or (r == ratio and basis[i] < basis[row]):
                        ratio, row = r, i
            if row is None:
                raise ValueError("unbounded")
            pivot(row, col)
            coeff = z[col]
            z = [a - coeff * b for a, b in zip(z, tab[row])]

    if narts:
        phase1 = [zero] * width
        for i in art_col.values():
            phase1[i] = one
        z = run(phase1)
        if z[-1] != 0:
            raise ValueError("infeasible")
        for i in range(m):
            # drive leftover artificials out of the basis
            if basis[i] >= n + m:
                col = next(
                    (jc for jc in range(n + m) if tab[i][jc] != 0), None
                )
                if col is not None:
                    pivot(i, col)

    full_cost = list(cost) + [zero] * (m + narts)
    for i in art_col.values():
        full_cost[i] = Fraction(10 ** 12)  # keep artificials priced out
    z = run(full_cost)
    value = -z[-1]
    return value


def lp_lower_bound(inst: Instance) -> Fraction:
    """Exact optimum of the fractional worker-assignment program.

    Variables: one makespan variable and, per (operation, individual
    worker), the fraction of the operation given to that worker.  Each
    operation's fractions sum to at least one; each worker's total load,
    priced at single-worker durations, fits under the makespan; the
    makespan also covers every operation's duration at maximum workers.
    """
    ops = [(j, s) for j in inst.jobs for s in inst.eligible_stages[j]]
    W = inst.workers_total
    n = 1 + len(ops) * W  # C first, then x[(op k, worker u)]
    zero, one = Fraction(0), Fraction(1)

    def var(k: int, u: int) -> int:
        return 1 + k * W + u

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for k in range(len(ops)):
        row = [zero] * n
        for u in range(W):
            row[var(k, u)] = -one
        rows.append(row)
        rhs.append(-one)
    for u in range(W):
        row = [zero] * n
        row[0] = -one
        for k, (j, s) in enumerate(ops):
            row[var(k, u)] = Fraction(inst.proc_time[(j, s, 1)])
        rows.append(row)
        rhs.append(zero)
    for j, s in ops:
        row = [zero] * n
        row[0] = -one
        rows.append(row)
        rhs.append(Fraction(-inst.proc_time[(j, s, inst.workers_max[s])]))

    cost = [zero] * n
    cost[0] = one
    return simplex_min(cost, rows, rhs)


# ------------------------------------------------------- round-robin fixpoint


class RoundRobinFixpoint:
    """Reference bounds propagation: the engine's original loop, which sweeps
    every task window, offset, precedence, disjunctive and cumulative in
    turn until a whole sweep changes nothing.

    It reads an engine model by attribute only and works on plain lists
    (``s_lo``, ``s_hi``, ``e_lo``, ``e_hi``, ``domains``) indexed like the
    model's task and choice dicts, so it shares no code with the engine.
    """

    def __init__(self, model) -> None:
        self.tids = list(model.tasks)
        self.tidx = {t: i for i, t in enumerate(self.tids)}
        self.cidx = {c: i for i, c in enumerate(model.choices)}
        self.tasks = [model.tasks[t] for t in self.tids]
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
            if link.table is None:
                return (link.delta, None)
            ca, cb, table = link.table
            return (0, (self.cidx[ca], self.cidx[cb], table))

        cons = model.constraints
        self.offsets = [
            (self.tidx[l.pred], self.tidx[l.succ], *compile_delta(l)) for l in cons.offsets
        ]
        self.precedences = [
            (self.tidx[l.pred], self.tidx[l.succ], *compile_delta(l))
            for l in cons.precedences
        ]

        def compile_member(m):
            return (
                self.tidx[m.task],
                m.weight,
                None if m.weight_choice is None else self.cidx[m.weight_choice],
                None if m.guard is None else (self.cidx[m.guard[0]], m.guard[1]),
            )

        self.disjunctives = [
            (g.id, [compile_member(m) for m in g.members]) for g in cons.disjunctives
        ]
        self.cumulatives = [
            (c.id, c.capacity, [compile_member(m) for m in c.members])
            for c in cons.cumulatives
        ]
        self.obj_tasks = [self.tidx[t] for t in model.objective_tasks]

    def present_state(self, st, ti: int) -> int:
        p = self.presence[ti]
        if p is None:
            return 1
        ci, val = p
        dom = st.domains[ci]
        if val not in dom:
            return -1
        return 1 if len(dom) == 1 else 0

    def _guard_state(self, st, guard) -> int:
        if guard is None:
            return 1
        ci, val = guard
        dom = st.domains[ci]
        if val not in dom:
            return -1
        return 1 if len(dom) == 1 else 0

    def member_active(self, st, member) -> int:
        pres = self.present_state(st, member[0])
        gua = self._guard_state(st, member[3])
        if pres == -1 or gua == -1:
            return -1
        if pres == 1 and gua == 1:
            return 1
        return 0

    def duration_bounds(self, st, ti: int) -> tuple[int, int]:
        t = self.tasks[ti]
        if t.duration is not None:
            return t.duration, t.duration
        menu = self.menus[ti]
        if menu is not None:
            ci, table = menu
            durs = [table[v] for v in st.domains[ci]]
            return min(durs), max(durs)
        return 0, max(0, st.e_hi[ti] - st.s_lo[ti])

    def min_weight(self, st, member) -> int:
        if member[2] is None:
            return member[1]
        return min(st.domains[member[2]])

    def delta_bounds(self, st, const: int, table) -> tuple[int, int]:
        if table is None:
            return const, const
        ca, cb, mapping = table
        da, db = st.domains[ca], st.domains[cb]
        if len(da) == 1 and len(db) == 1:
            d = mapping[(da[0], db[0])]
            return d, d
        vals = [mapping[(va, vb)] for va in da for vb in db]
        return min(vals), max(vals)

    def propagate(self, st, obj_cap: float) -> str | None:
        """Shrink ``st`` in place to a fixpoint; return a failure id or None."""
        if obj_cap < float("inf"):
            cap = int(obj_cap)
            for ti in self.obj_tasks:
                if self.present_state(st, ti) == 1 and st.e_hi[ti] > cap:
                    st.e_hi[ti] = cap

        changed = True
        while changed:
            changed = False

            for ti in range(len(self.tasks)):
                if self.present_state(st, ti) != 1:
                    continue
                dmin, dmax = self.duration_bounds(st, ti)
                lo = max(st.e_lo[ti], st.s_lo[ti] + dmin)
                hi = min(st.e_hi[ti], st.s_hi[ti] + dmax)
                slo = max(st.s_lo[ti], lo - dmax)
                shi = min(st.s_hi[ti], hi - dmin)
                if lo != st.e_lo[ti] or hi != st.e_hi[ti]:
                    st.e_lo[ti], st.e_hi[ti] = lo, hi
                    changed = True
                if slo != st.s_lo[ti] or shi != st.s_hi[ti]:
                    st.s_lo[ti], st.s_hi[ti] = slo, shi
                    changed = True
                if st.s_lo[ti] > st.s_hi[ti] or st.e_lo[ti] > st.e_hi[ti]:
                    return f"task:{self.tids[ti]}"

            for pi, si, const, table in self.offsets:
                if self.present_state(st, pi) != 1 or self.present_state(st, si) != 1:
                    continue
                dmin, dmax = self.delta_bounds(st, const, table)
                if st.s_lo[si] < st.e_lo[pi] + dmin:
                    st.s_lo[si] = st.e_lo[pi] + dmin
                    changed = True
                if st.s_hi[si] > st.e_hi[pi] + dmax:
                    st.s_hi[si] = st.e_hi[pi] + dmax
                    changed = True
                if st.e_lo[pi] < st.s_lo[si] - dmax:
                    st.e_lo[pi] = st.s_lo[si] - dmax
                    changed = True
                if st.e_hi[pi] > st.s_hi[si] - dmin:
                    st.e_hi[pi] = st.s_hi[si] - dmin
                    changed = True
                if st.s_lo[si] > st.s_hi[si] or st.e_lo[pi] > st.e_hi[pi]:
                    return f"offset:{self.tids[pi]}->{self.tids[si]}"

            for pi, si, const, table in self.precedences:
                if self.present_state(st, pi) != 1 or self.present_state(st, si) != 1:
                    continue
                dmin, _ = self.delta_bounds(st, const, table)
                if st.s_lo[si] < st.e_lo[pi] + dmin:
                    st.s_lo[si] = st.e_lo[pi] + dmin
                    changed = True
                if st.e_hi[pi] > st.s_hi[si] - dmin:
                    st.e_hi[pi] = st.s_hi[si] - dmin
                    changed = True
                if st.s_lo[si] > st.s_hi[si] or st.e_lo[pi] > st.e_hi[pi]:
                    return f"precedence:{self.tids[pi]}->{self.tids[si]}"

            for gid, members in self.disjunctives:
                active = [m[0] for m in members if self.member_active(st, m) == 1]
                for x in range(len(active)):
                    a = active[x]
                    for y in range(x + 1, len(active)):
                        b = active[y]
                        a_first = st.e_lo[a] <= st.s_hi[b]
                        b_first = st.e_lo[b] <= st.s_hi[a]
                        if not a_first and not b_first:
                            return f"disjunctive:{gid}"
                        if a_first and not b_first:
                            if st.s_lo[b] < st.e_lo[a]:
                                st.s_lo[b] = st.e_lo[a]
                                changed = True
                            if st.e_hi[a] > st.s_hi[b]:
                                st.e_hi[a] = st.s_hi[b]
                                changed = True
                        elif b_first and not a_first:
                            if st.s_lo[a] < st.e_lo[b]:
                                st.s_lo[a] = st.e_lo[b]
                                changed = True
                            if st.e_hi[b] > st.s_hi[a]:
                                st.e_hi[b] = st.s_hi[a]
                                changed = True

            for cid, cap, members in self.cumulatives:
                fail = self._timetable(st, cid, cap, members)
                if fail is not None:
                    return fail
                if self._lift_starts(st, cap, members):
                    changed = True
        return None

    def _mandatory_events(self, st, members):
        events: list[tuple[int, int]] = []
        own: dict[int, tuple[int, int, int]] = {}
        for m in members:
            if self.member_active(st, m) != 1:
                continue
            ti = m[0]
            w = self.min_weight(st, m)
            if w <= 0:
                continue
            lo, hi = st.s_hi[ti], st.e_lo[ti]
            if lo < hi:
                events.append((lo, w))
                events.append((hi, -w))
                own[ti] = (lo, hi, w)
        events.sort()
        return events, own

    def _timetable(self, st, cid: str, cap: int, members) -> str | None:
        events, _ = self._mandatory_events(st, members)
        level = 0
        for _, delta in events:
            level += delta
            if level > cap:
                return f"cumulative:{cid}"
        return None

    def _lift_starts(self, st, cap: int, members) -> bool:
        events, own = self._mandatory_events(st, members)
        if not events:
            return False
        segs = []
        level = 0
        prev = None
        for point, delta in events:
            if prev is not None and point > prev and level > 0:
                segs.append((prev, point, level))
            level += delta
            prev = point
        if not segs:
            return False
        moved_any = False
        for m in members:
            ti = m[0]
            if st.s_lo[ti] >= st.s_hi[ti]:
                continue
            if self.member_active(st, m) != 1:
                continue
            dmin, _ = self.duration_bounds(st, ti)
            if dmin <= 0:
                continue
            w = self.min_weight(st, m)
            if w <= 0:
                continue
            mine = own.get(ti)
            t = st.s_lo[ti]
            moved = True
            while moved:
                moved = False
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
                            moved = True
                            break
                    if moved:
                        break
            if t > st.s_lo[ti]:
                st.s_lo[ti] = t
                moved_any = True
        return moved_any

"""Benchmark of the ``hffs`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every call goes in-process through ``hffs.cli.main([...])``, the entry point of
the ``hffs`` command, one call at a time (a closed loop with one client).  The
workload's instances are generated from ``--seed`` alone.  A run sets up
(import, then ``hffs generate`` of every input), repeats the workload's fixed
list of calls ("a pass") until ``--seconds`` are spent, reads the peak
memory, and then sets up again until it has at least five set-ups and two
seconds of them.  It reports the median pass and the median set-up, both
scaled to a fixed machine speed (see ``speed_probe`` and
``at_nominal_speed``).  Every call's output is checked; quality numbers (ub,
lb, best_lb) come from node budgets and repeat exactly, which each pass
verifies against the first.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced passes (see ``tracer.py``), prints the per-layer metrics, and adds
a wall-budget overshoot probe.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds a digest of the deterministic results, for comparing two processes.

Workloads, the metric each layer should move and the reserved seeds are
described in ``perfbench/manifest.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
PROBE_LIMIT_S = 1.0
SPEED_PROBE_LOOPS = 150_000
SPEED_PROBE_EVERY_S = 0.25
# The speed probe's time on a 2-vCPU VM (Python 3.11) at its faster phases;
# a fixed scale that makes wall_s and setup_s read in seconds on such a machine.
SPEED_PROBE_NOMINAL_S = 0.012

sys.path.insert(0, HERE)
from tracer import Tracer  # noqa: E402


# ------------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Instance:
    label: str
    spec: dict  # GenSpec keyword arguments


@dataclass(frozen=True)
class Solve:
    label: str
    method: str  # cp | lbbd
    node_budget: int | None
    max_iterations: int | None = None
    time_limit: float | None = None


@dataclass(frozen=True)
class Ladder:
    """``generate`` -> ``bounds`` -> ``validate`` of the serial schedule."""

    label: str


@dataclass(frozen=True)
class Workload:
    instances: tuple[Instance, ...]
    steps: tuple  # Solve | Ladder, run in order; one pass runs them all


def _spec_seed(seed: int, k: int) -> int:
    """The k-th instance seed of a workload seed (k < 1000)."""
    return seed * 1000 + k


def generate_argv(spec: dict, path: str) -> list[str]:
    argv = ["generate", "--group", str(spec["group"]), "--jobs", str(spec["jobs"]),
            "--seed", str(spec["seed"]), "-o", path]
    if spec["group"] == 2:
        argv += ["--stages", str(spec["stages"]), "--variant", str(spec["variant"])]
    return argv


def _g1(jobs: int, seed: int) -> dict:
    return {"group": 1, "jobs": jobs, "seed": seed}


def _g2(jobs: int, stages: int, variant: int, seed: int) -> dict:
    return {"group": 2, "jobs": jobs, "stages": stages, "variant": variant, "seed": seed}


def tiny_exact(seed: int) -> Workload:
    """Small group-2 instances, each solved by cp and by lbbd under one cap,
    then put through ``generate`` -> ``bounds`` -> ``validate``.  The cap is
    tight because nodes-to-proof is heavy-tailed: a loose cap makes the pass
    time depend on how many solves of a seed hit it."""
    insts, steps, k = [], [], 0
    for jobs in (3, 4):
        for stages in (2, 3):
            for _ in range(24):
                label = f"tiny{k}"
                insts.append(Instance(label, _g2(jobs, stages, 1, _spec_seed(seed, k))))
                steps.append(Solve(label, "cp", 60))
                steps.append(Solve(label, "lbbd", 60, 2))
                steps.append(Ladder(label))
                k += 1
    return Workload(tuple(insts), tuple(steps))


def lbbd_group2(seed: int) -> Workload:
    """The decomposition on the ladder's group-2 rows (3 stages, variant 2);
    many small runs, since one run's time differs by about 15% (standard
    deviation) between instances."""
    insts, steps = [], []
    for k, jobs in enumerate((20,) * 16 + (50,) * 2):
        label = f"g2_{jobs}_{k}"
        insts.append(Instance(label, _g2(jobs, 3, 2, _spec_seed(seed, k))))
        steps.append(Solve(label, "lbbd", 25, 2))
    return Workload(tuple(insts), tuple(steps))


def cp_group1(seed: int) -> Workload:
    """The monolithic model on group 1, where per-node propagation dominates.
    The time per node differs by about 15% (standard deviation) between
    instances, so a pass takes many instances at a few nodes each; at 100
    jobs the few nodes a pass could afford would leave about a quarter of
    the time to reading, bounds and encoding, so 100 jobs is left to the
    overshoot probe."""
    insts, steps = [], []
    for k in range(16):
        label = f"g1_20_{k}"
        insts.append(Instance(label, _g1(20, _spec_seed(seed, k))))
        steps.append(Solve(label, "cp", 5))
    return Workload(tuple(insts), tuple(steps))


WORKLOADS = {
    "tiny-exact": tiny_exact,
    "lbbd-group2": lbbd_group2,
    "cp-group1": cp_group1,
}

# ------------------------------------------------------------------ program


def load_hffs() -> dict:
    """(Re-)import the package from this checkout; returns its modules by
    short name.  Earlier imports are dropped so that the import is timed in
    full each time."""
    for name in [n for n in sys.modules if n == "hffs" or n.startswith("hffs.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("hffs.cli")
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"hffs was imported from {origin}, not from {SRC}")
    names = ("cli", "bounds", "engine", "full_model", "instance_gen", "lbbd",
             "master", "model", "subproblem")
    return {n: sys.modules[f"hffs.{n}"] for n in names}


def speed_probe() -> float:
    """Seconds of a fixed pure-Python loop that runs no hffs code: how fast
    the machine is at that moment.  On a shared host the speed drifts by a
    third or more over seconds to minutes, for every program alike."""
    started = time.perf_counter()
    acc = 0
    for i in range(SPEED_PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - started


def call_cli(mods: dict, argv: list[str], collect: bool = True) -> tuple[int | None, str, float]:
    """One timed CLI call; returns (exit code or None on a crash, stdout, s).
    By default the call starts with the collector emptied, as a fresh
    ``hffs`` process would, so that its collections do not depend on the
    calls before it."""
    if collect:
        gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = mods["cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed call: counted, and its traceback shown
            traceback.print_exc(file=sys.__stderr__)
            code = None
        elapsed = time.perf_counter() - started
    return code, out.getvalue(), elapsed


class Run:
    """Inputs, checks and per-pass results of one workload run."""

    def __init__(self, workload: Workload, work: str) -> None:
        self.workload = workload
        self.work = work
        self.mods: dict = {}
        self.insts: dict = {}  # label -> hffs Instance
        self.serial_makespan: dict[str, int] = {}
        self.expected_json: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def path(self, label: str, suffix: str) -> str:
        return os.path.join(self.work, f"{label}.{suffix}")

    # -- set-up

    def setup_once(self) -> float:
        """Import, then generate and write every input; returns seconds."""
        started = time.perf_counter()
        self.mods = load_hffs()
        self.write_inputs()
        return time.perf_counter() - started

    def write_inputs(self) -> None:
        model = self.mods["model"]
        for inst in self.workload.instances:
            code, _, _ = call_cli(self.mods, generate_argv(inst.spec, self.path(inst.label, "json")),
                                  collect=False)
            if code != 0:
                raise RuntimeError(f"generate failed for {inst.label}")
        for step in self.workload.steps:
            if isinstance(step, Ladder):
                with open(self.path(step.label, "json"), encoding="utf-8") as fh:
                    parsed = model.instance_from_json(fh.read())
                with open(self.path(step.label, "serial.json"), "w", encoding="utf-8") as fh:
                    fh.write(model.schedule_to_json(model.serial_schedule(parsed)) + "\n")

    def load_references(self) -> None:
        """What the checks compare against; computed outside every timing."""
        model, gen = self.mods["model"], self.mods["instance_gen"]
        for inst in self.workload.instances:
            with open(self.path(inst.label, "json"), encoding="utf-8") as fh:
                self.insts[inst.label] = model.instance_from_json(fh.read())
            spec = gen.GenSpec(**inst.spec)
            self.expected_json[inst.label] = model.instance_to_json(gen.generate(spec)) + "\n"
            self.serial_makespan[inst.label] = model.serial_schedule(self.insts[inst.label]).makespan

    # -- checks

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def solve(self, step: Solve) -> tuple[dict | None, float]:
        model = self.mods["model"]
        sched_path = self.path(step.label, f"{step.method}.sched.json")
        log_path = self.path(step.label, f"{step.method}.runlog.json")
        for stale in (sched_path, log_path):
            if os.path.exists(stale):
                os.remove(stale)
        argv = ["solve", self.path(step.label, "json"), "--method", step.method,
                "-o", sched_path]
        for flag, value in (("--node-budget", step.node_budget),
                            ("--max-iterations", step.max_iterations),
                            ("--time-limit", step.time_limit)):
            if value is not None:
                argv += [flag, str(value)]
        if step.method == "lbbd":
            argv += ["--runlog", log_path]
        self.attempted += 1
        code, out, elapsed = call_cli(self.mods, argv)
        where = f"{step.label}/{step.method}"
        if code != 0:
            self.fail(f"{where}: exit code {code}")
            return None, elapsed
        lines = out.strip().splitlines()
        fields = lines[-1].split(",")
        head = lines[-2].split(",")
        row = dict(zip(head, fields))
        rec = {
            "label": step.label,
            "method": step.method,
            "best_lb": int(row["best_lb"]),
            "lb": int(row["lb"]),
            "ub": int(row["ub"]) if row["ub"] else None,
            "nodes": int(row["nodes"]),
            "iterations": int(row["iterations"]),
            "status": row["status"],
            "jstar": [],
        }
        ub = rec["ub"]
        if ub is None or not os.path.exists(sched_path):
            self.fail(f"{where}: no upper bound or no schedule written")
            return None, elapsed
        with open(sched_path, encoding="utf-8") as fh:
            sched = model.schedule_from_json(fh.read())
        bad = model.validate_schedule(self.insts[step.label], sched)
        if bad:
            self.fail(f"{where}: invalid schedule: {bad[0]}")
        if sched.makespan != ub:
            self.fail(f"{where}: schedule makespan {sched.makespan} != ub {ub}")
        if rec["lb"] > ub or rec["best_lb"] > ub:
            self.fail(f"{where}: lb {rec['lb']} / best_lb {rec['best_lb']} above ub {ub}")
        if rec["status"] == "optimal" and rec["lb"] != ub:
            self.fail(f"{where}: optimal with lb {rec['lb']} != ub {ub}")
        if step.method == "lbbd":
            with open(log_path, encoding="utf-8") as fh:
                rec["jstar"] = [it["jstar_hash"] for it in json.load(fh)["iterations"]]
        return rec, elapsed

    def ladder(self, step: Ladder) -> float:
        label = step.label
        spec = next(i.spec for i in self.workload.instances if i.label == label)
        gen_path = self.path(label, "gen.json")
        total = 0.0
        self.attempted += 3
        code, _, elapsed = call_cli(self.mods, generate_argv(spec, gen_path))
        total += elapsed
        if code != 0:
            self.fail(f"{label}: generate exit code {code}")
        else:
            with open(gen_path, encoding="utf-8") as fh:
                if fh.read() != self.expected_json[label]:
                    self.fail(f"{label}: generate wrote other bytes than the generator")
        code, out, elapsed = call_cli(self.mods, ["bounds", self.path(label, "json")])
        total += elapsed
        best = None
        if code != 0:
            self.fail(f"{label}: bounds exit code {code}")
        else:
            best = int(out.strip().splitlines()[-1].split()[1])
            if best > self.serial_makespan[label]:
                self.fail(f"{label}: best {best} above the serial makespan")
        code, out, elapsed = call_cli(
            self.mods, ["validate", self.path(label, "json"), self.path(label, "serial.json")])
        total += elapsed
        expected = f"OK makespan={self.serial_makespan[label]}"
        if code != 0 or out.strip() != expected:
            self.fail(f"{label}: validate printed {out.strip()[:80]!r}, exit code {code}")
        return total

    def referee(self, records: list[dict]) -> None:
        """cp and lbbd on one instance: proven optima agree, and every proven
        lb of one method is at most every ub of the other."""
        by_label: dict[str, dict[str, dict]] = {}
        for rec in records:
            by_label.setdefault(rec["label"], {})[rec["method"]] = rec
        for label, pair in by_label.items():
            cp, lbbd = pair.get("cp"), pair.get("lbbd")
            if cp is None or lbbd is None:
                continue
            if cp["status"] == lbbd["status"] == "optimal" and cp["ub"] != lbbd["ub"]:
                self.fail(f"{label}: cp optimum {cp['ub']} != lbbd optimum {lbbd['ub']}")
            if cp["lb"] > lbbd["ub"] or lbbd["lb"] > cp["ub"]:
                self.fail(f"{label}: a proven lb exceeds the other method's ub")

    # -- passes

    def one_pass(self) -> tuple[list[float], list[dict], list[float]]:
        """Run every step once; returns each step's seconds, the records and
        the speed probes taken between steps, at least every
        ``SPEED_PROBE_EVERY_S`` seconds and before the first step."""
        times, records, probes = [], [], []
        last_probe = -float("inf")
        for step in self.workload.steps:
            if time.perf_counter() - last_probe >= SPEED_PROBE_EVERY_S:
                probes.append(speed_probe())
                last_probe = time.perf_counter()
            if isinstance(step, Ladder):
                times.append(self.ladder(step))
                continue
            rec, elapsed = self.solve(step)
            times.append(elapsed)
            if rec is not None:
                records.append(rec)
        self.referee(records)
        return times, records, probes


def signature(records: list[dict]) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def quality(records: list[dict]) -> dict[str, float]:
    """Means over the pass's results; zeros when every call failed."""
    if not records:
        return dict.fromkeys(
            ("ub_mean", "lb_mean", "best_lb_mean", "real_gap_pct", "optimal_frac"), 0.0)

    def mean(key: str) -> float:
        return statistics.fmean(r[key] for r in records)

    gaps = [100.0 * (r["ub"] - max(r["best_lb"], r["lb"])) / r["ub"] for r in records]
    return {
        "ub_mean": mean("ub"),
        "lb_mean": mean("lb"),
        "best_lb_mean": mean("best_lb"),
        "real_gap_pct": statistics.fmean(gaps),
        "optimal_frac": statistics.fmean(r["status"] == "optimal" for r in records),
    }


# ------------------------------------------------------------------ per layer


def layer_metrics(tracer: Tracer, passes: int, models_propagate_s: float,
                  setup_gen_s: float) -> dict[str, float]:
    spans = tracer.spans
    kids = tracer.children()
    per = 1.0 / passes
    selfs = tracer.self_times()
    m: dict[str, float] = {}
    for layer in ("cli", "lbbd", "master", "subproblem", "full_model", "engine",
                  "bounds", "model", "instance_gen"):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0) * per

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name) * per

    def count(name: str) -> float:
        return sum(1 for s in spans if s.name == name) * per

    solves = [(i, s) for i, s in enumerate(spans) if s.name == "engine.solve"]
    nodes = {"full_model": 0, "master": 0, "subproblem": 0}
    busy = {"full_model": 0.0, "master": 0.0, "subproblem": 0.0}
    improvements, first_nodes = 0, []
    leaf_checks, leaf_check_s = 0, 0.0
    for i, s in solves:
        res = s.result
        hinted = s.kwargs.get("hint") is not None
        nodes[s.context] += res.nodes
        busy[s.context] += s.duration
        found = res.ub_history[1:] if hinted else res.ub_history
        improvements += len(found)
        if found:
            first_nodes.append(found[0][0])
        checks = [c for c in kids[i] if spans[c].name == "engine.check_assignment"]
        for c in checks[1:] if hinted else checks:
            leaf_checks += 1
            leaf_check_s += spans[c].duration
    m["engine.nodes"] = sum(nodes.values()) * per
    for ctx, key in (("full_model", "full"), ("master", "master"), ("subproblem", "sub")):
        m[f"engine.node_us.{key}"] = 1e6 * busy[ctx] / nodes[ctx] if nodes[ctx] else 0.0
    m["engine.improvements"] = improvements * per
    m["engine.first_improvement_nodes"] = (
        statistics.fmean(first_nodes) if first_nodes else 0.0)
    m["engine.leaf_checks"] = leaf_checks * per
    m["engine.leaf_check_s"] = leaf_check_s * per
    m["engine.root_propagate_s"] = models_propagate_s

    runs = [s for s in spans if s.name == "lbbd.run"]
    iterations = sum(len(s.result.iterations) for s in runs)
    repeats = 0
    for s in runs:
        seen: set[str] = set()
        for it in s.result.iterations:
            repeats += it.jstar_hash in seen
            seen.add(it.jstar_hash)
    lbbd_s = total("lbbd.run")
    m["lbbd.iterations"] = iterations * per
    m["lbbd.master_share"] = total("master.solve_master") / lbbd_s if lbbd_s else 0.0
    m["lbbd.sub_share"] = total("subproblem.solve_sub") / lbbd_s if lbbd_s else 0.0
    m["lbbd.cut_yield"] = count("lbbd.BendersCut") / (iterations * per) if iterations else 0.0
    m["lbbd.repeat_fingerprint_frac"] = repeats / iterations if iterations else 0.0

    masters = [s for s in spans if s.name == "master.solve_master"]
    subs = [s for s in spans if s.name == "subproblem.solve_sub"]
    m["master.calls"] = len(masters) * per
    m["master.nodes"] = sum(s.result.nodes for s in masters) * per
    m["master.build_s"] = total("master.build_master")
    ratios = [s.result.lower_bound / spans[s.parent].result.best_lb for s in masters]
    m["master.lb_over_best_lb"] = statistics.fmean(ratios) if ratios else 0.0
    m["subproblem.calls"] = len(subs) * per
    m["subproblem.nodes"] = sum(s.result.nodes for s in subs) * per
    m["subproblem.build_s"] = total("subproblem.build_sub")
    m["subproblem.optimal_frac"] = (
        statistics.fmean(s.result.status == "optimal" for s in subs) if subs else 0.0)

    m["full_model.build_s"] = total("full_model.build_full")
    m["bounds.best_lb_calls"] = count("bounds.best_lb")
    m["bounds.lb8_s"] = total("bounds.lb8_malleable")
    m["model.validate_schedule_s"] = total("model.validate_schedule")
    m["model.validate_instance_calls"] = count("model.validate_instance")
    m["model.serial_schedule_calls"] = count("model.serial_schedule")
    m["model.json_s"] = sum(total(f"model.{n}") for n in (
        "instance_from_json", "instance_to_json", "schedule_from_json", "schedule_to_json"))
    m["instance_gen.setup_self_s"] = setup_gen_s
    return m


# ------------------------------------------------------------------ runs


def at_nominal_speed(timed: list[tuple[float, list[float]]]) -> float:
    """The median over (seconds, probes) pairs of the seconds times
    ``SPEED_PROBE_NOMINAL_S`` over the mean of the probes taken around them.
    The timed work is fixed and repeats exactly; on a shared host its time
    drifts with the machine's speed, by a third or more over minutes, so
    that a whole run can fall in a slow phase, and the probes drift with it."""
    return statistics.median(SPEED_PROBE_NOMINAL_S * seconds / statistics.fmean(probes)
                             for seconds, probes in timed)


def mean_pass(passes: list[list[float]]) -> float:
    """Mean seconds per pass; the traced run's per-layer figures are means per
    traced pass too, so its layers' self times add up to this."""
    return sum(map(sum, passes)) / len(passes)


def timed_setup(run: Run) -> tuple[float, list[float]]:
    """One set-up's seconds and the speed probes just before and after it."""
    before = speed_probe()
    took = run.setup_once()
    return took, [before, speed_probe()]


def metric_units() -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json next to this directory."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(workload: Workload, work: str, seed: int, seconds: float,
                 trace: bool) -> tuple[Run, dict, str]:
    """Set up, then measure passes for ``seconds``; returns the run (attempted
    and failed checks), its metrics and the digest of its deterministic
    results.  ``work`` is an empty directory for inputs and outputs."""
    run = Run(workload, work)
    setups = [timed_setup(run)]
    run.load_references()
    # What the benchmark holds stays out of the program's collections.
    gc.collect()
    gc.freeze()

    first_sig: str | None = None

    def checked_pass() -> tuple[list[float], list[dict], list[float]]:
        nonlocal first_sig
        times, records, probes = run.one_pass()
        sig = signature(records)
        if first_sig is None:
            first_sig = sig
        elif sig != first_sig:
            run.fail(f"pass results differ from the first pass ({sig} != {first_sig})")
        return times, records, probes

    started = time.perf_counter()
    if not trace:
        passes, records = [], []
        while True:
            times, recs, probes = checked_pass()
            passes.append((sum(times), probes))
            records = records or recs
            if time.perf_counter() - started + sum(times) > seconds:
                break
        # Read before the repeated set-ups: each re-import leaves the heap
        # about 0.45 MB larger (lbbd-group2), so their number would set the peak.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.unfreeze()
        while (len(setups) < SETUP_MIN_REPEATS
               or sum(took for took, _ in setups) < SETUP_MIN_SECONDS):
            setups.append(timed_setup(run))
        q = quality(records)
        metrics = {
            "setup_s": at_nominal_speed(setups),
            "wall_s": at_nominal_speed(passes),
            "real_gap_pct": q["real_gap_pct"],
            "lb_mean": q["lb_mean"],
            "best_lb_mean": q["best_lb_mean"],
            "peak_rss_mb": peak_rss_mb,
        }
        return run, metrics, first_sig or ""

    tracer = Tracer(run.mods)
    plain, traced, records = [], [], []
    first_pass_spans = 0
    while True:
        times, recs, _ = checked_pass()
        plain.append(times)
        records = records or recs
        tracer.install()
        try:
            times, _, _ = checked_pass()
        finally:
            tracer.uninstall()
        traced.append(times)
        first_pass_spans = first_pass_spans or len(tracer.spans)
        if time.perf_counter() - started + mean_pass(plain) + mean_pass(traced) > seconds:
            break

    # One extra root propagation of every model the first traced pass solved.
    propagate_s = 0.0
    for span in tracer.spans[:first_pass_spans]:
        if span.name == "engine.solve":
            began = time.perf_counter()
            run.mods["engine"].propagate(span.args[0])
            propagate_s += time.perf_counter() - began

    setup_tracer = Tracer(run.mods)
    setup_tracer.install()
    try:
        run.write_inputs()
    finally:
        setup_tracer.uninstall()
    setup_gen_s = setup_tracer.self_times().get("instance_gen", 0.0)

    metrics = layer_metrics(tracer, len(traced), propagate_s, setup_gen_s)
    q = quality(records)
    metrics["cli.optimal_frac"] = q["optimal_frac"]
    metrics["cli.ub_mean"] = q["ub_mean"]
    metrics["trace.wall_s"] = mean_pass(traced)
    metrics["trace.untraced_wall_s"] = mean_pass(plain)
    metrics["trace.overhead_frac"] = (
        metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]) / metrics["trace.untraced_wall_s"]
    metrics["cli.time_limit_overshoot_s"] = overshoot_probe(run, seed)
    return run, metrics, first_sig or ""


def overshoot_probe(run: Run, seed: int) -> float:
    """``solve --time-limit 1`` with cp and lbbd on group 1 at 100 jobs; the
    larger overshoot of the 1 s limit."""
    gen, model = run.mods["instance_gen"], run.mods["model"]
    label = "probe_g1_100"
    inst = gen.generate(gen.GenSpec(**_g1(100, _spec_seed(seed, 999))))
    with open(run.path(label, "json"), "w", encoding="utf-8") as fh:
        fh.write(model.instance_to_json(inst) + "\n")
    run.insts[label] = inst
    worst = 0.0
    for method in ("cp", "lbbd"):
        _, elapsed = run.solve(Solve(label, method, None, time_limit=PROBE_LIMIT_S))
        worst = max(worst, elapsed - PROBE_LIMIT_S)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hffs", "cli.py")):
        print(f"error: no hffs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run, metrics, sig = run_workload(WORKLOADS[args.workload](args.seed), work,
                                         args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = metric_units()
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"signature {sig}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

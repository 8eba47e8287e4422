"""Acceptance suite: nine end-to-end criteria, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Time-budget limits are
asserted inside the tests themselves (wall-clock seconds, generous margins).
"""

import csv
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from conftest import SUITE_SEED, sample_tiny
from hffs.bounds import _lb8_exact, best_lb, lb8_malleable
from hffs.cli import main
from hffs.full_model import solve_full
from hffs.instance_gen import GenSpec, generate
from hffs.lbbd import Budgets, BendersCut, fingerprint_of, gaps, run
from hffs.master import solve_master
from hffs.model import serial_schedule, validate_schedule
from oracles import brute_force_optimum, lp_lower_bound

DATA = Path(__file__).parent / "data"


def test_criterion_1_exact_model_matches_brute_force(suite50, suite_optima):
    started = time.perf_counter()
    for inst, opt in zip(suite50, suite_optima):
        result, sched = solve_full(inst, start=serial_schedule(inst), lb_floor=best_lb(inst).best,
                                   node_budget=2_000_000)
        assert result.status == "optimal"
        assert result.objective == opt
        assert sched.makespan == opt
        assert validate_schedule(inst, sched) == []
    assert time.perf_counter() - started < 300.0


def test_criterion_2_decomposition_closes_every_instance(suite50, suite_optima):
    started = time.perf_counter()
    for inst, opt in zip(suite50, suite_optima):
        log = run(inst)
        assert log.status == "optimal"
        assert log.lb == log.ub == opt
        assert validate_schedule(inst, log.schedule) == []
    assert time.perf_counter() - started < 600.0


def test_criterion_3_all_bounds_below_the_optimum(suite50, suite_optima):
    rng = random.Random(SUITE_SEED + 1)
    extra = [sample_tiny(rng) for _ in range(200)]
    violations = []
    for inst, opt in list(zip(suite50, suite_optima)) + [
        (inst, brute_force_optimum(inst)) for inst in extra
    ]:
        report = best_lb(inst)
        for name, value in report.values().items():
            if value is not None and value > opt:
                violations.append((name, value, opt))
        assert report.best <= opt
    assert violations == []


def test_criterion_4_lb8_equals_the_exact_lp_optimum():
    rng = random.Random(SUITE_SEED + 4)
    for _ in range(200):
        inst = sample_tiny(rng)
        exact = _lb8_exact(inst)
        oracle = lp_lower_bound(inst)
        assert isinstance(exact, Fraction)
        assert exact == oracle  # rational equality, before any rounding
        assert lb8_malleable(inst) == -(-oracle.numerator // oracle.denominator)


def _parse_report_table(out: str, title: str) -> list[dict[str, str]]:
    lines = out.splitlines()
    i = lines.index(f"== {title} ==")
    header = lines[i + 1]
    names = header.split()
    starts, pos = [], 0
    for name in names:
        pos = header.index(name, pos)
        starts.append(pos)
        pos += len(name)
    rows = []
    for line in lines[i + 2:]:
        if not line.strip():
            break
        cells = [
            line[a:b].strip()
            for a, b in zip(starts, starts[1:] + [len(line)])
        ]
        rows.append(dict(zip(names, cells)))
    return rows


def _fixture_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_criterion_5_report_reproduces_published_gap_cells(capsys):
    # the three reference triples, straight through the gap formulas
    assert f"{gaps(44, 22, 48)[0]:.2f}" == "54.17"
    assert f"{gaps(41, 36, 42)[1]:.2f}" == "2.38"

    # every row of the frozen benchmark digest follows the same arithmetic;
    # two-decimal reproduction means agreement within half a cent (exact
    # .xx5 values may round either way)
    half_cent = 0.005 + 1e-9
    for group in ("group1", "group2"):
        for method in ("cp", "lbbd"):
            for row in _fixture_rows(DATA / group / f"{method}.csv"):
                if not row["ub"]:
                    continue
                original, real = gaps(
                    int(row["best_lb"]), int(row["lb"]), int(row["ub"])
                )
                assert abs(original - float(row["original_gap"])) <= half_cent
                if (group, row["instance"]) == ("group2", "100_3_2"):
                    # this row was recorded with a best-only real gap; the
                    # max(best_lb, lb) definition gives 5.13, not 6.59
                    assert row["real_gap"] == "6.59"
                    assert f"{real:.2f}" == "5.13"
                else:
                    assert abs(real - float(row["real_gap"])) <= half_cent

    code = main(["report", str(DATA / "group1" / "cp.csv"),
                 str(DATA / "group1" / "lbbd.csv")])
    assert code == 0
    out = capsys.readouterr().out
    jobs = {
        (r["jobs"], r["method"]): r
        for r in _parse_report_table(out, "average results per number of jobs")
    }
    expected_jobs = {
        ("20", "cp"): ("25", "55.30", "9.30"),
        ("20", "lbbd"): ("25", "41.31", "3.85"),
        ("50", "cp"): ("25", "57.10", "17.09"),
        ("50", "lbbd"): ("25", "51.20", "13.23"),
        ("100", "cp"): ("25", "72.01", "37.52"),
        ("100", "lbbd"): ("25", "40.68", "13.36"),
        ("200", "cp"): ("16", "82.26", "44.01"),
        ("200", "lbbd"): ("25", "36.59", "17.72"),
        ("400", "cp"): ("0", "", ""),
        ("400", "lbbd"): ("25", "38.42", "21.35"),
    }
    for key, (solved, gap, real) in expected_jobs.items():
        row = jobs[key]
        assert (row["solved"], row["gap_solved"], row["real_gap"]) == (
            solved, gap, real)

    impact = {
        (r["jobs"], r["method"]): r
        for r in _parse_report_table(out, "lower-bound impact per number of jobs")
    }
    expected_impact = {
        ("20", "lbbd"): ("44.00", "26.72", "39.27"),
        ("50", "lbbd"): ("43.56", "24.48", "43.80"),
        ("100", "lbbd"): ("52.12", "35.68", "31.54"),
        ("200", "lbbd"): ("75.92", "58.52", "22.92"),
        ("400", "lbbd"): ("123.28", "96.52", "21.71"),
    }
    for key, (best, lb, diff) in expected_impact.items():
        row = impact[key]
        assert (row["best_lb"], row["lb"], row["diff_pct"]) == (best, lb, diff)
    # the cp diff figures shipped with the digest do not follow from their
    # own printed inputs under any gap formula; only the recomputed values
    # are checked for that column
    assert impact[("20", "cp")]["diff_pct"] == "50.82"

    code = main(["report", str(DATA / "group2" / "cp.csv"),
                 str(DATA / "group2" / "lbbd.csv")])
    assert code == 0
    out = capsys.readouterr().out
    stages = {
        (r["stages"], r["method"]): r["gap"]
        for r in _parse_report_table(out, "average gaps per number of stages")
    }
    assert stages[("2", "cp")] == "72.51"
    assert stages[("3", "cp")] == "74.12"
    assert stages[("4", "cp")] == "61.91"
    assert stages[("2", "lbbd")] == "24.96"
    assert stages[("3", "lbbd")] == "34.91"
    assert stages[("4", "lbbd")] == "49.28"
    variants = {
        (r["variant"], r["method"]): r["gap"]
        for r in _parse_report_table(out, "average gaps per machine-count variant")
    }
    assert variants[("1", "cp")] == "89.06"
    assert variants[("2", "cp")] == "52.17"
    assert variants[("1", "lbbd")] == "43.94"
    assert variants[("2", "lbbd")] == "28.83"

    # common-instance averages (both methods solved) recompute as well
    rows_cp = _fixture_rows(DATA / "group2" / "cp.csv")
    rows_lb = _fixture_rows(DATA / "group2" / "lbbd.csv")
    solved_cp = {r["instance"] for r in rows_cp if r["ub"]}

    def common_mean(selector) -> str:
        vals = [
            100.0 * (int(r["ub"]) - int(r["lb"])) / int(r["ub"])
            for r in rows_lb
            if r["ub"] and r["instance"] in solved_cp and selector(r["instance"])
        ]
        return f"{sum(vals) / len(vals):.2f}"

    assert common_mean(lambda n: n.split("_")[1] == "2") == "24.96"
    assert common_mean(lambda n: n.split("_")[1] == "3") == "39.16"
    assert common_mean(lambda n: n.split("_")[1] == "4") == "41.14"
    assert common_mean(lambda n: n.split("_")[2] == "1") == "37.72"
    assert common_mean(lambda n: n.split("_")[2] == "2") == "28.59"


def test_criterion_6_hundred_job_smoke_run():
    started = time.perf_counter()
    inst = generate(GenSpec(group=2, jobs=100, stages=3, variant=2, seed=0))
    log = run(inst, budgets=Budgets(master_nodes=400, sub_nodes=300,
                                    max_iterations=2))
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert log.schedule is not None
    assert validate_schedule(inst, log.schedule) == []
    assert log.ub >= log.best_lb
    original, real = gaps(log.best_lb, log.lb, log.ub)
    assert 0.0 <= real <= original <= 100.0


def test_criterion_7_generator_distributions():
    buffers: list[int] = []
    transports1: list[int] = []
    nominals: list[int] = []
    skip_draws = skip_hits = 0
    for seed in range(100):
        inst = generate(GenSpec(group=1, jobs=50, seed=seed))
        firsts = {route[0] for route in inst.eligible_stages.values()}
        lasts = {route[-1] for route in inst.eligible_stages.values()}
        for m, s in inst.machines.items():
            if s not in firsts:
                buffers.append(inst.buffer_in[m])
            if s not in lasts:
                buffers.append(inst.buffer_out[m])
        transports1.extend(inst.transport.values())
        for j in inst.jobs:
            for s in inst.eligible_stages[j]:
                nominals.append(inst.proc_time[(j, s, 1)])
        for j in inst.jobs:
            for s in ("s4", "s8"):
                skip_draws += 1
                skip_hits += s not in inst.eligible_stages[j]

    assert len(buffers) >= 10_000
    assert all(1 <= b <= 5 for b in buffers)
    assert {1, 5} <= set(buffers)

    assert len(transports1) >= 10_000
    assert all(1 <= t <= 9 for t in transports1)
    assert {1, 9} <= set(transports1)

    transports2: list[tuple[int, int]] = []
    skip2_draws = skip2_hits = 0
    seed = 0
    while len(transports2) < 10_000:
        inst = generate(GenSpec(group=2, jobs=50, stages=3,
                                variant=2, seed=seed))
        seed += 1
        order = {s: i for i, s in enumerate(inst.stages)}
        for (a, b), t in inst.transport.items():
            gap = order[inst.machines[b]] - order[inst.machines[a]]
            transports2.append((t, gap))
        for j in inst.jobs:
            for s in inst.stages:
                skip2_draws += 1
                skip2_hits += s not in inst.eligible_stages[j]
        for j in inst.jobs:
            for s in inst.eligible_stages[j]:
                nominals.append(inst.proc_time[(j, s, 1)])
    assert all(gap >= 1 and t % gap == 0 and gap <= t <= 9 * gap
               for t, gap in transports2)

    assert len(nominals) >= 10_000
    assert all(2 <= p <= 15 for p in nominals)
    assert {2, 15} <= set(nominals)

    assert skip_draws == 10_000
    assert 0.17 <= skip_hits / skip_draws <= 0.23
    assert skip2_draws >= 10_000
    # forced retention of one stage per job biases the rate slightly low,
    # still well inside the three-sigma window around 0.20
    assert 0.17 <= skip2_hits / skip2_draws <= 0.23


def test_criterion_8_installed_cuts_bind_the_master():
    rng = random.Random(SUITE_SEED + 8)
    repeats = 0
    for _ in range(100):
        inst = sample_tiny(rng)
        base = solve_master(inst, [], 0, node_budget=30_000, start=serial_schedule(inst))
        fp = fingerprint_of(inst, base)
        zeta = base.objective + rng.randint(1, 6)
        again = solve_master(inst, [BendersCut(fp, zeta)], 0,
                             node_budget=30_000, start=serial_schedule(inst))
        if fingerprint_of(inst, again) == fp:
            repeats += 1
            assert again.objective >= zeta
    assert repeats > 0  # single-map instances guarantee some repeats


def test_criterion_9_runlog_bytes_are_deterministic(tmp_path, capsys):
    inst_path = tmp_path / "det.json"
    code = main(["generate", "--group", "2", "--jobs", "4", "--stages", "2",
                 "--variant", "1", "--seed", "9", "-o", str(inst_path)])
    assert code == 0
    blobs = []
    for name in ("one.json", "two.json"):
        log_path = tmp_path / name
        code = main(["solve", str(inst_path), "--method", "lbbd",
                     "--seed", "7", "--node-budget", "50000",
                     "--runlog", str(log_path)])
        assert code == 0
        blobs.append(log_path.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["status"] == "optimal"
    assert payload["wall_time"] is None

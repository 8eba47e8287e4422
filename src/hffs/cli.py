"""Command-line interface: generate, bounds, solve, validate, report."""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

from .bounds import best_lb
from .full_model import solve_full
from .instance_gen import GenSpec, generate
from .lbbd import Budgets, gaps, run
from .model import (
    Instance,
    instance_from_json,
    instance_to_json,
    schedule_from_json,
    schedule_to_json,
    validate_instance,
    validate_schedule,
)

CSV_HEADER = "instance,best_lb,lb,ub,original_gap,real_gap,iterations,nodes,wall_time,status"


def _label_of(path: str) -> str:
    base = os.path.basename(path)
    return base[:-5] if base.endswith(".json") else base


def _read_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        inst = instance_from_json(fh.read())
    problems = validate_instance(inst)
    if problems:
        raise ValueError("; ".join(problems))
    return inst


def _fmt(value: float | int | None, pattern: str = "{:.2f}") -> str:
    return "" if value is None else pattern.format(value)


# ---------------------------------------------------------------- generate


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = GenSpec(
            group=args.group,
            jobs=args.jobs,
            stages=args.stages,
            variant=args.variant,
            seed=args.seed,
        )
        inst = generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))
        fh.write("\n")
    print(
        f"wrote {args.output}: {len(inst.jobs)} jobs, {len(inst.stages)} stages, "
        f"{len(inst.machines)} machines, {inst.workers_total} workers"
    )
    return 0


# ---------------------------------------------------------------- bounds


def _cmd_bounds(args: argparse.Namespace) -> int:
    try:
        inst = _read_instance(args.instance)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = best_lb(inst)
    for name, value in report.values().items():
        print(f"{name.upper():<5} {value if value is not None else '-'}")
    print(f"BEST  {report.best}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return 0


# ---------------------------------------------------------------- solve


def _solve_cp(inst: Instance, args: argparse.Namespace) -> dict[str, object]:
    started = time.perf_counter()
    best = best_lb(inst).best
    result, sched = solve_full(
        inst,
        node_budget=args.node_budget,
        time_budget=args.time_limit,
        lb_floor=best,
    )
    elapsed = time.perf_counter() - started
    row: dict[str, object] = {
        "best_lb": best,
        "lb": result.lower_bound,
        "ub": result.objective,
        "iterations": 0,
        "nodes": result.nodes,
        "wall_time": elapsed,
        "status": result.status,
        "schedule": sched,
        "runlog": None,
    }
    return row


def _solve_lbbd(inst: Instance, args: argparse.Namespace) -> dict[str, object]:
    budgets = Budgets(
        master_nodes=args.node_budget,
        master_time=args.master_time_limit,
        sub_nodes=args.node_budget,
        sub_time=None,
        total_time=args.time_limit,
        max_iterations=args.max_iterations,
    )
    started = time.perf_counter()
    log = run(inst, budgets=budgets)
    elapsed = time.perf_counter() - started
    return {
        "best_lb": log.best_lb,
        "lb": log.lb,
        "ub": log.ub,
        "iterations": len(log.iterations),
        "nodes": log.nodes,
        "wall_time": elapsed,
        "status": log.status,
        "schedule": log.schedule,
        "runlog": log,
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        inst = _read_instance(args.instance)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    row = _solve_cp(inst, args) if args.method == "cp" else _solve_lbbd(inst, args)
    ub = row["ub"]
    if ub is not None:
        original, real = gaps(row["best_lb"], row["lb"], ub)
        gap_o, gap_r = _fmt(original), _fmt(real)
    else:
        gap_o = gap_r = ""
    print(CSV_HEADER)
    print(
        ",".join(
            [
                _label_of(args.instance),
                str(row["best_lb"]),
                str(row["lb"]),
                "" if ub is None else str(ub),
                gap_o,
                gap_r,
                str(row["iterations"]),
                str(row["nodes"]),
                _fmt(row["wall_time"], "{:.3f}"),
                str(row["status"]),
            ]
        )
    )
    sched = row["schedule"]
    if args.output and sched is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(schedule_to_json(sched))
            fh.write("\n")
    if args.runlog and row["runlog"] is not None:
        with open(args.runlog, "w", encoding="utf-8") as fh:
            fh.write(row["runlog"].to_json())
            fh.write("\n")
    return 0


# ---------------------------------------------------------------- validate


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        inst = _read_instance(args.instance)
        with open(args.schedule, encoding="utf-8") as fh:
            sched = schedule_from_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = validate_schedule(inst, sched)
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"OK makespan={sched.makespan}")
    return 0


# ---------------------------------------------------------------- report


def _parse_label(label: str) -> tuple[int | None, int | None, int | None]:
    """Split an instance label into (jobs, stages, variant) group keys.

    Labels follow `jobs_rep` for the single-variant family and
    `jobs_stages_variant[_rep]` for the small-stage family.
    """
    tokens = label.split("_")

    def _num(i: int) -> int | None:
        if i >= len(tokens):
            return None
        try:
            return int(tokens[i])
        except ValueError:
            return None

    jobs = _num(0)
    if len(tokens) < 3:
        return jobs, None, None
    return jobs, _num(1), _num(2)


def _read_rows(paths: list[str]) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for path in paths:
        method = _label_of(path)
        if method.endswith(".csv"):
            method = method[:-4]
        with open(path, encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                label = (rec.get("instance") or "").strip()
                if not label:
                    continue
                jobs, stages, variant = _parse_label(label)

                def _int(key: str) -> int | None:
                    raw = (rec.get(key) or "").strip()
                    return int(raw) if raw else None

                rows.append(
                    {
                        "method": method,
                        "label": label,
                        "jobs": jobs,
                        "stages": stages,
                        "variant": variant,
                        "best_lb": _int("best_lb"),
                        "lb": _int("lb"),
                        "ub": _int("ub"),
                    }
                )
    return rows


def _row_gaps(row: dict[str, object]) -> tuple[float | None, float | None]:
    """(original, real) recomputed from the row; None where inputs are missing."""
    lb, ub, best = row["lb"], row["ub"], row["best_lb"]
    if ub is None or lb is None or ub <= 0:
        return None, None
    if best is None:
        return 100.0 * (ub - lb) / ub, None
    return gaps(best, lb, ub)


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _print_table(title: str, header: list[str], body: list[list[str]]) -> None:
    print(f"== {title} ==")
    widths = [len(h) for h in header]
    for line in body:
        widths = [max(w, len(cell)) for w, cell in zip(widths, line)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for line in body:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    print()


def _group_table(
    rows: list[dict[str, object]],
    key: str,
    title: str,
    with_solved: bool,
) -> None:
    methods = sorted({r["method"] for r in rows})
    keys = sorted({r[key] for r in rows if r[key] is not None})
    # labels every method solved, for the common-instance average
    solved_by: dict[str, set[str]] = {m: set() for m in methods}
    for r in rows:
        if r["method"] in solved_by and r["ub"] is not None:
            solved_by[r["method"]].add(r["label"])
    common = set.intersection(*solved_by.values()) if solved_by else set()

    header = [key, "method", "n", "solved", "gap_common", "gap_solved", "real_gap"]
    if not with_solved:
        header = [key, "method", "n", "gap", "real_gap"]
    body: list[list[str]] = []
    for value in keys:
        for method in methods:
            sub = [r for r in rows if r[key] == value and r["method"] == method]
            if not sub:
                continue
            solved = [r for r in sub if r["ub"] is not None]
            pairs = [(_row_gaps(r), r) for r in solved]
            orig_all = _mean([g[0] for g, _ in pairs if g[0] is not None])
            real_all = _mean([g[1] for g, _ in pairs if g[1] is not None])
            orig_common = _mean(
                [g[0] for g, r in pairs if g[0] is not None and r["label"] in common]
            )
            if with_solved:
                body.append(
                    [
                        str(value),
                        method,
                        str(len(sub)),
                        str(len(solved)),
                        _fmt(orig_common),
                        _fmt(orig_all),
                        _fmt(real_all),
                    ]
                )
            else:
                body.append(
                    [str(value), method, str(len(sub)), _fmt(orig_all), _fmt(real_all)]
                )
    _print_table(title, header, body)


def _impact_table(rows: list[dict[str, object]]) -> None:
    methods = sorted({r["method"] for r in rows})
    keys = sorted({r["jobs"] for r in rows if r["jobs"] is not None})
    header = ["jobs", "best_lb", "method", "lb", "diff_pct"]
    body: list[list[str]] = []
    for value in keys:
        sub = [r for r in rows if r["jobs"] == value]
        by_label: dict[str, int] = {}
        for r in sub:
            if r["best_lb"] is not None:
                by_label.setdefault(r["label"], r["best_lb"])
        best_avg = _mean([float(v) for v in by_label.values()])
        for method in methods:
            own = [float(r["lb"]) for r in sub if r["method"] == method and r["lb"] is not None]
            lb_avg = _mean(own)
            if best_avg is None or lb_avg is None or best_avg <= 0:
                diff = None
            else:
                diff = 100.0 * (best_avg - lb_avg) / best_avg
            body.append(
                [
                    str(value),
                    _fmt(best_avg),
                    method,
                    _fmt(lb_avg),
                    _fmt(diff),
                ]
            )
    _print_table("lower-bound impact per number of jobs", header, body)


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        rows = _read_rows(args.results)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print("error: no result rows found", file=sys.stderr)
        return 1
    _group_table(rows, "jobs", "average results per number of jobs", True)
    _group_table(rows, "stages", "average gaps per number of stages", False)
    _group_table(rows, "variant", "average gaps per machine-count variant", False)
    _impact_table(rows)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hffs",
        description="Hybrid flexible flowshop scheduling with worker-dependent "
        "durations, transport times and finite buffers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a random instance as JSON")
    p_gen.add_argument("--group", type=int, choices=(1, 2), required=True)
    p_gen.add_argument("--jobs", type=int, required=True)
    p_gen.add_argument("--stages", type=int, default=None)
    p_gen.add_argument("--variant", type=int, choices=(1, 2), default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_bounds = sub.add_parser("bounds", help="print all makespan lower bounds")
    p_bounds.add_argument("instance")
    p_bounds.add_argument("-o", "--output", default=None)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_solve = sub.add_parser("solve", help="solve an instance and print a CSV row")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", choices=("cp", "lbbd"), default="lbbd")
    p_solve.add_argument("--time-limit", type=float, default=None)
    p_solve.add_argument("--master-time-limit", type=float, default=None)
    p_solve.add_argument("--node-budget", type=int, default=None)
    p_solve.add_argument("--max-iterations", type=int, default=None)
    p_solve.add_argument(
        "--seed", type=int, default=0,
        help="accepted for compatibility; the search is deterministic and ignores it",
    )
    p_solve.add_argument("-o", "--output", default=None)
    p_solve.add_argument("--runlog", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_val = sub.add_parser("validate", help="check a schedule against an instance")
    p_val.add_argument("instance")
    p_val.add_argument("schedule")
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("report", help="aggregate solve CSVs into summary tables")
    p_rep.add_argument("results", nargs="+", help="CSV files, one per method")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

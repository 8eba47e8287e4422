"""Command-line interface: subcommands, exit codes, CSV and table output."""

import gc
import json
import time

import pytest

import hffs.cli as cli
import hffs.engine as engine
import hffs.lbbd as lbbd
from hffs.bounds import best_lb
from hffs.cli import CSV_HEADER, main
from hffs.instance_gen import GenSpec, generate
from hffs.lbbd import Budgets, run
from hffs.model import instance_from_json, instance_to_json, schedule_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(tmp_path, capsys, name="inst", jobs=3, seed=3):
    path = tmp_path / f"{name}.json"
    code, out, _ = run_cli(
        capsys, "generate", "--group", "2", "--jobs", str(jobs), "--stages", "2",
        "--variant", "1", "--seed", str(seed), "-o", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    return path


def test_generate_writes_a_valid_instance_file(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    payload = json.loads(path.read_text())
    assert len(payload["jobs"]) == 3
    assert len(payload["stages"]) == 2


def test_generate_rejects_incomplete_group_two_requests(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "generate", "--group", "2", "--jobs", "3",
        "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in err


def test_bounds_prints_every_bound_and_the_best(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    out_json = tmp_path / "bounds.json"
    code, out, _ = run_cli(capsys, "bounds", str(path), "-o", str(out_json))
    assert code == 0
    for name in ("LB1", "LB2", "LB3", "LB8", "BEST"):
        assert name in out
    payload = json.loads(out_json.read_text())
    assert payload["best"] >= payload["lb1"]


def test_written_files_are_one_line_that_parses_back(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    inst = generate(GenSpec(group=2, jobs=3, stages=2, variant=1, seed=3))
    sched_path, bounds_path = tmp_path / "sched.json", tmp_path / "bounds.json"
    assert run_cli(capsys, "solve", str(path), "-o", str(sched_path))[0] == 0
    assert run_cli(capsys, "bounds", str(path), "-o", str(bounds_path))[0] == 0
    texts = [p.read_text() for p in (path, sched_path, bounds_path)]
    assert all(text.count("\n") == 1 and text.endswith("\n") for text in texts)
    assert instance_from_json(texts[0]) == inst
    assert schedule_from_json(texts[1]) == run(inst, budgets=Budgets()).schedule
    report = best_lb(inst)
    assert json.loads(texts[2]) == {
        **report.values(),
        "best": report.best,
        "relaxed_times": {f"{j}|{s}": p for (j, s), p in report.relaxed_times.items()},
        "transport_min": report.transport_min,
        "per_stage_head": {f"{j}|{s}": list(h) for (j, s), h in report.per_stage_head.items()},
    }


def test_bounds_on_a_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "bounds", "/nonexistent/instance.json")
    assert code == 1
    assert "error:" in err


def test_solve_prints_the_csv_header_and_one_row(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "lbbd")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "inst"
    assert fields[-1] == "optimal"
    assert int(fields[2]) == int(fields[3])  # lb == ub at optimality
    assert fields[4] == fields[5] == "0.00"


def test_solve_round_trip_through_validate(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    sched_path = tmp_path / "sched.json"
    code, _, _ = run_cli(
        capsys, "solve", str(path), "--method", "lbbd", "-o", str(sched_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", str(path), str(sched_path))
    assert code == 0
    assert out.startswith("OK makespan=")


def test_validate_flags_a_corrupted_schedule(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    sched_path = tmp_path / "sched.json"
    run_cli(capsys, "solve", str(path), "-o", str(sched_path))
    payload = json.loads(sched_path.read_text())
    payload["makespan"] += 1
    sched_path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "validate", str(path), str(sched_path))
    assert code == 1
    assert "makespan" in out


def test_cp_and_lbbd_agree_on_a_tiny_instance(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys, name="duo", jobs=2, seed=5)
    _, out_cp, _ = run_cli(capsys, "solve", str(path), "--method", "cp")
    _, out_lb, _ = run_cli(capsys, "solve", str(path), "--method", "lbbd")
    row_cp = out_cp.splitlines()[1].split(",")
    row_lb = out_lb.splitlines()[1].split(",")
    assert row_cp[-1] == row_lb[-1] == "optimal"
    assert row_cp[3] == row_lb[3]  # same optimum makespan


@pytest.mark.parametrize("method", ["cp", "lbbd"])
def test_runlog_files_are_byte_identical_across_runs(tmp_path, capsys, method):
    path = gen_instance(tmp_path, capsys)
    logs = []
    for name in ("a.json", "b.json"):
        log_path = tmp_path / name
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--method", method, "--seed", "7",
            "--node-budget", "50000", "--runlog", str(log_path))
        assert code == 0
        logs.append(log_path.read_bytes())
    assert logs[0] == logs[1]
    payload = json.loads(logs[0])
    assert payload["wall_time"] is None  # node budgets keep the log clock-free
    row = dict(zip(CSV_HEADER.split(","), out.splitlines()[1].split(",")))
    for key in ("best_lb", "lb", "ub", "nodes", "status"):
        assert str(payload[key]) == row[key]
    assert len(payload["iterations"]) == int(row["iterations"])
    if method == "cp":
        assert payload["iterations"] == []


def test_report_aggregates_rows_per_method(tmp_path, capsys):
    cp = tmp_path / "cp.csv"
    lbbd = tmp_path / "lbbd.csv"
    cp.write_text(CSV_HEADER + "\n25_1,14,14,25,44.00,44.00,0,10,0.5,feasible\n")
    lbbd.write_text(CSV_HEADER + "\n25_1,14,20,25,20.00,20.00,3,9,0.4,feasible\n")
    code, out, _ = run_cli(capsys, "report", str(cp), str(lbbd))
    assert code == 0
    assert "average results per number of jobs" in out
    assert "lower-bound impact per number of jobs" in out
    assert "44.00" in out  # cp gap recomputed from lb/ub, not trusted from file
    assert "20.00" in out
    assert "-42.86" in out  # lbbd lb average sits above the seed bound
    assert "cp" in out and "lbbd" in out


def test_report_with_no_rows_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    code, _, err = run_cli(capsys, "report", str(empty))
    assert code == 1
    assert "no result rows" in err


def _broken_instance(tmp_path, capsys, mutate):
    path = gen_instance(tmp_path, capsys)
    blob = json.loads(path.read_text())
    mutate(blob)
    path.write_text(json.dumps(blob))
    return path


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b["transport"][0].pop("t"),
        lambda b: b["machines"][0].pop("id"),
        lambda b: b["proc_time"][0].pop("w"),
        lambda b: b.__setitem__("jobs", "abc"),
        lambda b: b.__setitem__("buffer_in", [2]),
        lambda b: b.__setitem__("eligible_stages", "s1"),
    ],
    ids=["transport-t", "machine-id", "proc-w", "jobs-string", "buffer-list", "elig-string"],
)
@pytest.mark.parametrize("command", ["bounds", "solve", "validate"])
def test_bad_instance_gives_one_error_line(tmp_path, capsys, mutate, command):
    path = _broken_instance(tmp_path, capsys, mutate)
    argv = [command, str(path)]
    if command == "validate":
        argv.append(str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "array, value, message",
    [
        ("machines", "stage", "duplicate machine row {id}"),
        ("transport", "t", "duplicate transport row {from} -> {to}"),
        ("proc_time", "p", "duplicate proc_time row ({job},{stage},{w})"),
    ],
    ids=["machines", "transport", "proc_time"],
)
@pytest.mark.parametrize("conflicting", [False, True], ids=["exact", "conflicting"])
@pytest.mark.parametrize("command", ["bounds", "solve", "validate"])
def test_a_duplicate_row_gives_one_error_line(
    tmp_path, capsys, array, value, message, conflicting, command
):
    path = gen_instance(tmp_path, capsys)
    blob = json.loads(path.read_text())
    row = dict(blob[array][0])
    if conflicting:
        row[value] = "s2" if array == "machines" else row[value] + 40
    blob[array].append(row)
    path.write_text(json.dumps(blob))
    argv = [command, str(path)] + ([str(path)] if command == "validate" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: " + message.format(**row)]


def test_bad_schedule_gives_one_error_line(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    bad = tmp_path / "sched.json"
    blob = {"machine_of": [], "workers_of": {}, "intervals": {}, "makespan": 1}
    bad.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "validate", str(path), str(bad))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["generate", "bounds", "solve", "solve-runlog"])
def test_an_unwritable_output_gives_one_error_line(tmp_path, capsys, command):
    path = gen_instance(tmp_path, capsys)
    unwritable = str(tmp_path / "missing" / "out.json")
    argv = {
        "generate": ["generate", "--group", "1", "--jobs", "2", "-o", unwritable],
        "bounds": ["bounds", str(path), "-o", unwritable],
        "solve": ["solve", str(path), "-o", unwritable],
        "solve-runlog": ["solve", str(path), "--runlog", unwritable],
    }[command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert one_error_line(err)


@pytest.mark.parametrize(
    "budget",
    [("--node-budget", "0"), ("--node-budget", "-3"), ("--max-iterations", "-1"),
     ("--time-limit", "0"), ("--time-limit", "-1"), ("--max-iterations", "0")])
@pytest.mark.parametrize("method", ["cp", "lbbd"])
def test_solve_rejects_a_budget_that_cannot_double(tmp_path, capsys, method, budget):
    path = gen_instance(tmp_path, capsys)
    code, out, err = run_cli(capsys, "solve", str(path), "--method", method, *budget)
    assert code == 1
    assert out == ""
    assert one_error_line(err)


@pytest.mark.parametrize(
    "content, names_the_file",
    [
        ((CSV_HEADER + "\n25_1,14,x,25,44.00,44.00,0,10,0.5,feasible\n").encode(), True),
        (b"\xff\xfe" + CSV_HEADER.encode(), False),
        ((CSV_HEADER + "\n25_1," + "9" * 140_000 + "\n").encode(), True),  # over the field limit
    ],
    ids=["non-integer", "non-utf8", "field-over-limit"],
)
def test_an_unreadable_report_gives_one_error_line(tmp_path, capsys, content, names_the_file):
    good, bad = tmp_path / "cp.csv", tmp_path / "lbbd.csv"
    good.write_text(CSV_HEADER + "\n25_1,14,14,25,44.00,44.00,0,10,0.5,feasible\n")
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "report", str(good), str(bad))
    assert code == 1
    assert out == ""
    assert one_error_line(err)
    if names_the_file:
        assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("command, document", [
    ("bounds", "instance"), ("solve", "instance"), ("validate", "instance"),
    ("validate", "schedule"),
])
def test_a_deeply_nested_document_gives_one_error_line(tmp_path, capsys, command, document):
    """200,000 nested arrays: deeper than the JSON decoder can recurse."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    inst = deep if document == "instance" else gen_instance(tmp_path, capsys)
    argv = [command, str(inst)] + ([str(deep)] if command == "validate" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert one_error_line(err) and f"{document} document is nested too deeply" in err


@pytest.mark.parametrize("budget", ["1", "10"])
def test_solve_ends_optimal_where_the_master_repeats_a_cut_assignment(tmp_path, capsys, budget):
    """At these budgets the master proposes an assignment whose subproblem was
    already solved; the loop skips that subproblem and doubles the master's
    budget until the bound closes."""
    path = gen_instance(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "solve", str(path), "--node-budget", budget)
    assert code == 0
    assert out.splitlines()[1].split(",")[-1] == "optimal"


def solve_row(tmp_path, capsys, spec, *argv):
    """Solve a generated instance; the CSV row as a dict."""
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate(spec)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", str(path), *argv)
    assert code == 0
    header, row = out.splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_the_time_limit_counts_from_the_start_of_solve(tmp_path, capsys, monkeypatch):
    """Bounds that outlast the limit leave the search its root only, and the
    reported wall time includes them."""
    best_lb = cli.best_lb

    def slow_best_lb(inst):
        time.sleep(0.3)
        return best_lb(inst)

    monkeypatch.setattr(cli, "best_lb", slow_best_lb)
    row = solve_row(tmp_path, capsys, GenSpec(group=1, jobs=20, seed=0),
                    "--method", "cp", "--time-limit", "0.2")
    assert row["nodes"] == "1"
    assert float(row["wall_time"]) >= 0.3


def test_lbbd_under_a_time_limit_reaches_its_subproblem(tmp_path, capsys):
    """The first master stops halfway to the deadline, so the subproblem
    improves on the serial makespan (329) that a master holding the whole
    budget used to return."""
    row = solve_row(tmp_path, capsys, GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0),
                    "--method", "lbbd", "--time-limit", "2")
    assert int(row["ub"]) < 329


@pytest.mark.parametrize("method", ["cp", "lbbd"])
def test_the_runlog_wall_time_is_the_rows(tmp_path, capsys, method):
    """Under a deadline the run log holds the row's wall time, not the time of
    the search loop alone."""
    log_path = tmp_path / "log.json"
    row = solve_row(tmp_path, capsys, GenSpec(group=1, jobs=20, seed=1), "--method", method,
                    "--time-limit", "0.3", "--runlog", str(log_path))
    log = json.loads(log_path.read_text())
    assert f"{log['wall_time']:.3f}" == row["wall_time"]
    for key in ("best_lb", "lb", "ub", "nodes", "status"):
        assert str(log[key]) == row[key]


@pytest.mark.parametrize("method", ["cp", "lbbd"])
def test_a_start_at_the_best_bound_is_returned_without_a_search(
        tmp_path, capsys, monkeypatch, method):
    """The bounds (9) meet the insertion start's makespan, so both methods
    return the start as optimal with 0 nodes: cp builds no model and lbbd
    runs no iteration.  The written schedule validates."""
    def no_search(*args, **kwargs):
        raise AssertionError("no search was needed")

    monkeypatch.setattr(cli, "solve_full", no_search)
    monkeypatch.setattr(lbbd, "solve_master", no_search)
    sched_path = tmp_path / "sched.json"
    row = solve_row(tmp_path, capsys, GenSpec(group=2, jobs=3, stages=2, variant=1, seed=0),
                    "--method", method, "-o", str(sched_path))
    assert [row[k] for k in ("best_lb", "lb", "ub", "iterations", "nodes", "status")] == [
        "9", "9", "9", "0", "0", "optimal"]
    code, out, _ = run_cli(capsys, "validate", str(tmp_path / "inst.json"), str(sched_path))
    assert (code, out.strip()) == (0, "OK makespan=9")


@pytest.mark.parametrize("method", ["cp", "lbbd"])
def test_a_search_stopped_at_its_budget_is_freed_by_the_end_of_solve(
        tmp_path, capsys, method):
    """Both methods stop a search at its 25-node budget (lbbd's one
    subproblem stays paused when its one iteration ends); once ``solve``
    returns, no engine search is left in memory, not even as garbage that
    waits for the cycle collector."""
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, engine._Search)}
    row = solve_row(tmp_path, capsys, GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0),
                    "--method", method, "--node-budget", "25", "--max-iterations", "1")
    assert row["status"] == "feasible"
    assert [o for o in gc.get_objects()
            if isinstance(o, engine._Search) and id(o) not in before] == []

"""Smoke test of the benchmark itself, on a minimal workload.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

if bench.SRC not in sys.path:
    sys.path.insert(0, bench.SRC)

# One instance solved by both methods, and one generate -> bounds -> validate
# step.  The node cap stops both searches short of a proof, as it stops most
# solves of the real workloads, so that the real gap is not 0.
MINIMAL = bench.Workload(
    instances=(
        bench.Instance("tiny", bench._g2(3, 2, 1, 0)),
        bench.Instance("ladder", bench._g2(5, 2, 2, 1)),
    ),
    steps=(
        bench.Solve("tiny", "cp", 20),
        bench.Solve("tiny", "lbbd", 20, 2),
        bench.Ladder("ladder"),
    ),
)


def _names(kind: str) -> set[str]:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for trace in (False, True):
        work = tmp_path_factory.mktemp(f"trace{int(trace)}")
        out[trace] = bench.run_workload(MINIMAL, str(work), 0, 0.0, trace)
    return out


def test_plain_run_emits_every_end_to_end_metric(runs):
    run, metrics, _ = runs[False]
    assert run.failed == 0, run.problems
    assert run.attempted == 5
    assert set(metrics) == _names("end_to_end")
    assert all(value > 0 for value in metrics.values()), metrics


def test_traced_run_emits_every_per_layer_metric(runs):
    run, metrics, _ = runs[True]
    assert run.failed == 0, run.problems
    assert set(metrics) == _names("per_layer")


def test_self_times_sum_to_the_traced_wall(runs):
    _, m, _ = runs[True]
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    overhead_s = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    # A single traced pass: the root spans are the timed CLI calls, so the
    # self times may miss only the timer's own cost around each call.
    assert abs(m["trace.wall_s"] - self_sum) <= abs(overhead_s) + 1e-3


def test_tracing_does_not_change_results(runs):
    assert runs[False][2] == runs[True][2]


def test_results_repeat_across_processes(tmp_path):
    """Same seed, different hash seeds: the deterministic digest must match."""
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import test_smoke as t; "
        "print(t.bench.run_workload(t.MINIMAL, sys.argv[1], 0, 0.0, False)[2])"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        work = tmp_path / hash_seed
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", code, str(work)], cwd=bench.ROOT,
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        digests.add(done.stdout.strip().splitlines()[-1])
    assert len(digests) == 1


def test_refuses_to_run_without_sources(tmp_path):
    """A directory holding only the benchmark must exit nonzero, printing no result."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in Path(bench.HERE).glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cp-group1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""

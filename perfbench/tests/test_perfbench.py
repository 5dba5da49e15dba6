"""Self-test of the benchmark harness.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.01


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--scale", str(TINY)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def compute(plan: workloads.Plan, out: Path) -> int:
    cmd = [sys.executable, "-c", run.CLI, "compute", *plan.args, "--out", str(out)]
    return subprocess.run(cmd, env=run.child_env(), cwd=run.ROOT,
                          capture_output=True, timeout=120).returncode


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, group):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES[1:])
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    def files(seed, name):
        workloads.build(workload, run.ROOT, tmp_path / name, seed, TINY)
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    first = files(3, "a")
    assert first == files(3, "b")
    assert first != files(4, "c")


@pytest.fixture(scope="module")
def tiny_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    plan = workloads.build("roster-charts", run.ROOT, work / "inputs", 5, TINY)
    assert compute(plan, work / "out") == 0
    return plan, work / "out"


def test_checker_accepts_correct_output(tiny_output):
    plan, out = tiny_output
    assert {p.name for p in out.iterdir()} == plan.expected_files()
    assert checker.check_outputs(plan, out) == []


@pytest.mark.parametrize("column", ["complexity_spectral", "complexity_iterative"])
def test_checker_rejects_one_corrupted_digit(tiny_output, tmp_path, column):
    plan, out = tiny_output
    broken = tmp_path / "out"
    broken.mkdir()
    for path in out.iterdir():
        (broken / path.name).write_bytes(path.read_bytes())
    table = broken / f"scores_entities_{plan.years[0]}.csv"
    lines = table.read_text().splitlines()
    index = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    whole, decimals = cells[index].split(".")
    cells[index] = whole + "." + str((int(decimals[0]) + 1) % 10) + decimals[1:]
    lines[1] = ",".join(cells)
    table.write_text("\n".join(lines) + "\n")
    assert checker.check_outputs(plan, broken) != []


def test_session_counts_a_nonzero_exit_as_failed(tmp_path):
    plan = workloads.build("roster-charts", run.ROOT, tmp_path / "inputs", 5, TINY)
    plan.args = ["--panel", f"2020={tmp_path / 'absent.csv'}"]
    session = run.Session(plan, tmp_path, run.child_env())
    session.invoke()
    assert session.attempted == 1
    assert len(session.failures) == 1 and session.failures[0].startswith("exit 1")

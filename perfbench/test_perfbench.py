"""Tests of the benchmark itself, on the --smoke inputs (grid5 and p4).

    python3 -m pytest -q perfbench

Each test starts the benchmark as a separate process, exactly as it is run
for real, and reads the JSON object on its last line of output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

# verify_mc_grid13 is left out: its smoke input is verify_mc_grid5's.
WORKLOADS = ("verify_mc_grid5", "verify_exact_grid31", "sample_tree8w")

# Public functions that none of the workloads calls: the other
# subcommands (validate runs untraced, as set-up), the numba twins of the
# kernels, and single-sample helpers that only the unit tests use.
OFF_WORKLOAD_PATH = {
    "cli.cmd_foliate", "cli.cmd_green", "cli.cmd_hadamard", "cli.cmd_poisson",
    "cli.cmd_validate", "foliation.load_foliation", "foliation.parse_foliation",
    "graph.coboundary", "graph.delta", "graph.dirichlet_inner", "graph.divergence",
    "graph.graph_to_json", "graph.recompute_pi", "hadamard.solve_growth",
    "kernels.cholesky_numba", "kernels.cholesky_solve_numba",
    "kernels.jacobi_sweeps_numba", "kernels.njit", "kernels.normal_block_numba",
    "kernels.warmup", "linalg.spd_inverse", "operators.embed_matrix",
    "operators.embed_vector", "sampling.grow_dgff", "sampling.increment",
    "sampling.increment_via_layer_noise", "sampling.oracle_dgff",
    "sampling.random_orthogonal", "sampling.sample_wnf",
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    for metric in doc["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return doc


def run_record(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".perfbench" / f"{workload}-s{seed}-t{trace}-smoke" / "results.json"
    return json.loads(path.read_text())


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_reports_every_end_to_end_metric(workload):
    doc = result_line(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", "0", "--smoke"))
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_traced_runs_repeat_counts_and_reach_every_wrapper():
    expected = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    first, second, records = {}, {}, []
    for seed_run in (first, second):
        for workload in WORKLOADS:
            doc = result_line(bench("--workload", workload, "--seed", "9", "--seconds", "1",
                                    "--trace", "1", "--smoke"))
            assert {name: m["unit"] for name, m in doc["metrics"].items()} == expected
            seed_run[workload] = {k: doc["metrics"][k]["value"] for k in run.EXACT
                                  if k in expected}
            records.append(run_record(workload, 9, 1))
    assert first == second

    wrapped = set(records[0]["wrapped"])
    assert {"kernels.normal_block", "operators.green", "verify._Ladder.run",
            "hadamard.OperatorStack._memo"} <= wrapped
    called = {name for r in records for name, n in r["calls"].items() if n > 0}
    assert sorted(wrapped - called - OFF_WORKLOAD_PATH) == []


def test_sample_outputs_match_across_operations_and_tracing():
    proc = bench("--workload", "sample_tree8w", "--seed", "4", "--seconds", "5",
                 "--trace", "1", "--smoke")
    result_line(proc)
    record = run_record("sample_tree8w", 4, 1)
    kinds = [op["kind"] for op in record["ops"]]
    assert kinds.count("plain") >= 2 and kinds.count("traced") >= 2
    assert record["problems"] == []


def test_span_times_split_nested_and_recursive_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["a", 5.0, 7.0, 0],   # recursion: inside the outer "a"
        ["c", 5.5, 6.0, 2],
    ]
    inclusive, self_s = tracer.span_times(spans)
    assert inclusive == {"a": 10.0, "b": 3.0, "c": 0.5}
    assert self_s == {"a": (10.0 - 3.0 - 2.0) + (2.0 - 0.5), "b": 3.0, "c": 0.5}


def test_verify_check_fails_any_rung_that_fails():
    def report(stat_z: float, exact_ok: bool = True) -> run.Op:
        rows = [{"name": f"e{i}", "kind": "exact", "statistic": 0.0,
                 "passed": exact_ok or i > 0} for i in range(run.EXACT_RUNGS)]
        rows += [{"name": f"s{i}", "kind": "statistical", "statistic": stat_z if i == 0 else 1.0,
                  "passed": (stat_z if i == 0 else 1.0) <= 5.0}
                 for i in range(run.STATISTICAL_RUNGS)]
        ok = all(r["passed"] for r in rows)
        doc = {"seed": 1, "trials": 10, "checks": rows, "pass": ok}
        return run.Op("plain", 1.0, 1.0, 1.0, 0 if ok else 3, json.dumps(doc), "")

    for z, exact_ok, error in [(4.0, True, False), (5.4, True, True), (9.0, True, True),
                               (4.0, False, True)]:
        op = report(z, exact_ok)
        run.check_verify(op, trials=10, seed=1)
        assert (op.error is not None) == error


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sample_tree8w", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

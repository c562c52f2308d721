"""Benchmark of the dgff command line: fixed workloads timed end to end,
and a traced run that reports per-layer time and counts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a checkout of the repository: it needs
``src/dgff`` and ``fixtures`` at the checkout root and exits 2 without a
result when they are missing. NAME is a workload below, or ``all`` to run
each in turn and end with a table of the end-to-end metrics.
BENCHMARK.json lists verify_mc_grid5 and verify_exact_grid31. The other two
still run by name and under ``all``, with the same output checks:

* sample_tree8w: its wall time, a 3 s command, spread by 17-23%
  (IQR/median over ten seeds) on a shared 2-vCPU machine, too close to a
  25% bound.
* verify_mc_grid13: the ladder's fixed gate (max |z| <= 5, taken over
  every covariance entry of every level, tens of thousands of them on this
  grid) fails on some seeds: 3, 30 and 2020156356 of those tried, where
  oracle_agreement reached 5.10 on the last. Every operation of such a seed
  fails its check, so the run reports "correct": false.

Every operation is one ``python -m dgff.cli`` command in a fresh child
process, started one at a time from this process (a closed loop with one
client). Operations repeat until the next one would end after S seconds;
at least one always runs. Each child gets the checkout's ``src`` as
PYTHONPATH and BLAS_THREADS BLAS and OpenMP threads.

With --trace 0 the last line of stdout carries the end-to-end metrics,
each a median over the run: wall_s (one operation, spawn to exit),
setup_s (``dgff validate`` on the same graph and roots, which is import,
parse, validation and BFS foliation; after one untimed warm-up it runs
before each operation, at least SETUP_MIN times) and peak_rss_mb (the
child's ru_maxrss). With --trace 1 every operation runs twice, plain and
then under perfbench/tracer.py, and the last line carries the per-layer
metrics (medians over the traced operations), the plain children's CPU
seconds and the tracing overhead. The lines before it give sample counts,
fail_frac and the environment. Each run keeps results.json (and, when
traced, spans.json) in ``.perfbench/<workload>-s<seed>-t<trace>/`` at the
checkout root. It exits 0 once it has printed a result, whether or not the
outputs checked out: that verdict is in the result line ("correct",
"failed").

--smoke runs the same commands on tiny inputs (grid5 and p4), for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import tracer  # perfbench/ is on sys.path when this file runs as a script

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_MIN = 7
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# One thread. On 2 vCPUs a second BLAS thread cut verify_exact_grid31's wall
# time by about 6% (4 alternating pairs) at 1.75 times the CPU time, and its
# wall time then spread more over ten seeds (IQR/median 9-13% against 6-7%).
BLAS_THREADS = 1
EXACT_RUNGS = 11
STATISTICAL_RUNGS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_graph: Callable[[int, Path], Path]   # (seed, run dir) -> graph file
    roots: str
    subcommand: str                           # "verify" or "sample"
    size: int                                 # --trials or --n-samples
    shape: tuple[int, int, int]               # interior vertices, depth, widest layer


def _fixture(name: str) -> Callable[[int, Path], Path]:
    return lambda seed, run_dir: ROOT / "fixtures" / f"{name}.json"


def _generated(label: str, build) -> Callable[[int, Path], Path]:
    def make(seed: int, run_dir: Path) -> Path:
        from dgff.graph import graph_to_json

        path = run_dir / f"{label}.json"
        path.write_text(json.dumps(graph_to_json(build(seed))))
        return path
    return make


def _grid(side: int):
    from dgff.fixtures import grid_graph
    return _generated(f"grid{side}", lambda seed: grid_graph(side))


def _weighted(label: str, base):
    from dgff.fixtures import weighted
    return _generated(label, lambda seed: weighted(base(), seed))


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The four workloads by name; `smoke` swaps in tiny inputs.

    Each stresses a different layer, so that a change aimed at one shows
    where it helps and where it should change nothing:

    * verify_mc_grid5 is the Monte Carlo workload: 10^6 trials on the
      shipped 5x5 grid, where normal draws take about 80% of the time.
      Streamed statistics, reuse of the oracle block and a faster normal
      generator move it; a LAPACK backend or the one-layer recursion should
      barely move it. verify_mc_grid13 is the same ladder on a bigger grid.
    * verify_exact_grid31 is the build workload (many levels, thin layers,
      almost no draws). LAPACK and the one-layer recursion move it; changes
      to the Monte Carlo should not.
    * sample_tree8w uses the same build with the opposite shape: few wide
      layers, where |layer_n| is about k_n / 2 so the recursion gains
      little, and the sampling layer writing files instead of statistics.
    """
    from dgff.fixtures import binary_tree, path_graph

    full = [
        Workload(
            "verify_mc_grid5",
            "Monte Carlo ladder, 10^6 trials on the shipped 5x5 grid: normal draws "
            "take about 80% of the time; the operator build is negligible",
            _fixture("grid5"), "r2c2", "verify", 1_000_000, (9, 2, 4)),
        Workload(
            "verify_mc_grid13",
            "Monte Carlo ladder on the shipped grid: normal draws and covariance "
            "products dominate; the operator build is under 2%",
            _fixture("grid13"), "r6c6", "verify", 100_000, (121, 10, 20)),
        Workload(
            "verify_exact_grid31",
            "exact ladder on a 31x31 grid: many thin layers, so the dense "
            "eigen/Cholesky build dominates and almost nothing is drawn",
            _grid(31), "r15c15", "verify", 0, (841, 28, 56)),
        Workload(
            "sample_tree8w",
            "sampling a weighted binary tree: few wide layers (top layer 128 "
            "of 255) and CSV writing instead of statistics",
            _weighted("tree8w", lambda: binary_tree(8)), "t1", "sample", 200, (255, 7, 128)),
    ]
    if smoke:
        tiny = {
            "verify_mc_grid5": dict(size=2000),
            "verify_mc_grid13": dict(make_graph=_fixture("grid5"), roots="r2c2", size=2000,
                                     shape=(9, 2, 4)),
            "verify_exact_grid31": dict(make_graph=_grid(5), roots="r2c2", shape=(9, 2, 4)),
            "sample_tree8w": dict(make_graph=_weighted("p4w", lambda: path_graph(4)),
                                  roots="v1", size=5, shape=(2, 1, 1)),
        }
        full = [replace(w, **tiny[w.name]) for w in full]
    return {w.name: w for w in full}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str            # "setup", "plain" or "traced"
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    stdout: str
    stderr: str
    error: str | None = None      # why the output check failed

    def record(self) -> dict:
        return {"kind": self.kind, "wall_s": self.wall_s, "peak_rss_mb": self.peak_rss_mb,
                "cpu_s": self.cpu_s, "exit_code": self.exit_code, "error": self.error}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The children's environment: the checkout's sources, compiled afresh
    by every child so that nothing is written under src/, and BLAS_THREADS
    BLAS and OpenMP threads."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


class Spawner:
    """Runs children one at a time and reaps each with its own rusage."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, kind: str, argv: list[str]) -> Op:
        self.count += 1
        out_path = self.run_dir / f"child{self.count}.out"
        err_path = self.run_dir / f"child{self.count}.err"
        reaped = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0),
                                    self._kill, (proc.pid, reaped))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                reaped.set()
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(kind=kind, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                cpu_s=usage.ru_utime + usage.ru_stime, exit_code=proc.returncode,
                stdout=out_path.read_text(), stderr=err_path.read_text())
        out_path.unlink()
        err_path.unlink()
        if op.exit_code < 0:
            op.error = f"killed by signal {-op.exit_code}"
        return op

    @staticmethod
    def _kill(pid: int, reaped: threading.Event) -> None:
        if not reaped.is_set():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def dgff_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "dgff.cli", *args]


def traced_argv(spans_path: Path, op_id: str, args: list[str]) -> list[str]:
    return [sys.executable, str(Path(tracer.__file__).resolve()), str(spans_path), op_id,
            "--", *args]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def checked(check, op: Op, *args):
    """Runs an output check; output it cannot read fails the operation."""
    try:
        return check(op, *args)
    except (ValueError, KeyError, TypeError, OSError) as e:
        op.error = op.error or f"unreadable output: {type(e).__name__}: {e}"
        return None


def check_validate(op: Op, shape: tuple[int, int, int]) -> None:
    if op.exit_code != 0:
        op.error = op.error or f"validate exited {op.exit_code}: {op.stderr.strip()[-200:]}"
        return
    layers = json.loads(op.stdout)["foliation"]["layers"]
    got = (sum(layers), len(layers) - 1, max(layers))
    if got != shape:
        op.error = f"foliation (interior, depth, widest) is {got}, expected {shape}"


def check_verify(op: Op, trials: int, seed: int) -> None:
    """Every rung must pass: exit 0 and ``"pass": true``. A statistical rung
    that exceeds the program's own gate fails the operation too."""
    if op.exit_code not in (0, 3):
        op.error = op.error or f"verify exited {op.exit_code}: {op.stderr.strip()[-200:]}"
        return
    doc = json.loads(op.stdout)
    rows = doc.get("checks", [])
    expected = EXACT_RUNGS + (STATISTICAL_RUNGS if trials else 0)
    errors = [row["name"] for row in rows if "error" in row]
    if len(rows) != expected:
        op.error = f"{len(rows)} rungs, expected {expected}"
    elif errors:
        op.error = f"rungs with an error: {errors}"
    elif doc.get("trials") != trials or doc.get("seed") != seed:
        op.error = f"report is for trials={doc.get('trials')} seed={doc.get('seed')}"
    elif doc.get("pass") is not True or op.exit_code != 0:
        failing = [row["name"] for row in rows if not row["passed"]]
        op.error = f"verify failed: {failing} (exit {op.exit_code})"


def check_sample(op: Op, out_dir: Path, n_samples: int, rows: int) -> str | None:
    """Checks one sample command; returns the SHA-256 of everything it wrote."""
    if op.exit_code != 0:
        op.error = op.error or f"sample exited {op.exit_code}: {op.stderr.strip()[-200:]}"
        return None
    manifest = json.loads((out_dir / "manifest.json").read_text())
    files = manifest.get("files", [])
    if len(files) != n_samples or len(set(files)) != n_samples:
        op.error = f"manifest lists {len(files)} files, expected {n_samples}"
        return None
    digest = hashlib.sha256()
    for name in ["manifest.json", *files]:
        data = (out_dir / name).read_bytes()
        lines = data.count(b"\n")
        if name != "manifest.json" and lines != rows + 1:
            op.error = f"{name} has {lines} lines, expected {rows + 1}"
            return None
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

INCLUSIVE = (
    "graph.load_graph", "foliation.bfs_foliate",
    "kernels.normal_block", "kernels.jacobi_sweeps", "kernels.cholesky",
    "kernels.cholesky_solve",
    "sampling.oracle_block", "sampling.dgff_block", "sampling.known_mean_covariance",
    "sampling.cross_covariance_zmax",
    "linalg.jacobi_eigen", "linalg.cholesky", "linalg.cholesky_solve",
    "linalg.write_matrix_csv",
    "operators.green", "operators.poisson", "operators.boundary_green",
    "hadamard.layer_sqrt", "hadamard.dirichlet_gram", "hadamard.hadamard_Q",
)
NESTED = (  # spans with traced children: their self time is reported too
    "sampling.oracle_block", "sampling.dgff_block", "linalg.jacobi_eigen",
    "linalg.cholesky", "operators.green", "operators.poisson",
    "operators.boundary_green", "hadamard.layer_sqrt",
)
RUNGS = (
    "green_inverse", "green_symmetry", "green_positive", "poisson_bounds",
    "poisson_harmonic", "green_variation", "green_monotone", "hadamard_identity",
    "isometry", "increment_identity", "increment_harmonic", "dgff_covariance",
    "oracle_covariance", "oracle_agreement", "increment_independence",
    "brownian_moments", "sweep_moments",
)
CALLS = ("sampling.dgff_block", "linalg.jacobi_eigen", "linalg.cholesky", "operators.laplacian")
COUNTS = (
    ("kernels.normal_block.draws", "count"),
    ("sampling.oracle_block.draws", "count"),
    ("linalg.jacobi_eigen.n3", "count"),
    ("linalg.cholesky.n3", "count"),
    ("linalg.write_matrix_csv.bytes", "B"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.s": "s" for name in INCLUSIVE}
    units.update({f"{name}.self_s": "s" for name in NESTED})
    units.update({f"layer.{layer}.self_s": "s" for layer in tracer.LAYERS})
    units.update({f"verify.rung.{rung}.s": "s" for rung in RUNGS})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update(dict(COUNTS))
    units.update({
        "kernels.normal_block.draws_per_s": "1/s",
        "sampling.normals_per_trial": "ratio",
        "sampling.block_bytes_max": "B",
        "hadamard.OperatorStack.memo_hit_ratio": "ratio",
        "process.cpu_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# Per-layer figures that count work and must repeat exactly for one seed;
# trace.spans is checked but not reported.
EXACT = tuple(sorted(
    {f"{name}.calls" for name in CALLS} | {name for name, _ in COUNTS}
    | {"sampling.normals_per_trial", "sampling.block_bytes_max",
       "hadamard.OperatorStack.memo_hit_ratio", "trace.spans"}))


def traced_metrics(doc: dict, trials: int, top_size: int) -> dict[str, float]:
    """Per-layer figures of one traced command."""
    inclusive, self_s = tracer.span_times(doc["spans"])
    calls, counts = doc["calls"], doc["counts"]
    m: dict[str, float] = {f"{name}.s": inclusive.get(name, 0.0) for name in INCLUSIVE}
    m.update({f"{name}.self_s": self_s.get(name, 0.0) for name in NESTED})
    for layer in tracer.LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            (t for name, t in self_s.items() if name.split(".")[0] == layer), 0.0)
    m.update({f"verify.rung.{rung}.s": inclusive.get(f"verify.rung.{rung}", 0.0)
              for rung in RUNGS})
    m.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    m.update({name: counts.get(name, 0) for name, _ in COUNTS})
    draws = counts.get("kernels.normal_block.draws", 0)
    busy = inclusive.get("kernels.normal_block", 0.0)
    m["kernels.normal_block.draws_per_s"] = draws / busy if busy > 0 else 0.0
    m["sampling.normals_per_trial"] = draws / (trials * top_size) if trials else 0.0
    m["sampling.block_bytes_max"] = doc["maxima"].get("sampling.block_bytes_max", 0)
    hits = counts.get("hadamard.OperatorStack.memo_hits", 0)
    lookups = hits + counts.get("hadamard.OperatorStack.memo_misses", 0)
    m["hadamard.OperatorStack.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    m["trace.spans"] = len(doc["spans"])
    return m


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "dgff").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": usable_cores(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "numba": importlib.util.find_spec("numba") is not None,
            "commit": commit, "source_sha256": source.hexdigest(),
            "DGFF_PURE_NUMPY": os.environ.get("DGFF_PURE_NUMPY")}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    run_dir = OUT / f"{w.name}-s{seed}-t{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    graph = w.make_graph(seed, run_dir)
    base = ["--graph", str(graph), "--roots", w.roots]
    spawner = Spawner(run_dir, deadline)
    ops: list[Op] = []
    problems: list[str] = []

    def setup(kind: str) -> None:
        op = spawner.run(kind, dgff_argv(["validate", *base]))
        checked(check_validate, op, w.shape)
        ops.append(op)

    # A warm-up validate brings the interpreter and libraries into the page
    # cache and checks the input's shape. Timed set-up runs are interleaved
    # with the operations, so that both see the same load on a shared machine.
    setup("warmup")

    digests: set[str] = set()
    traced_docs: list[dict] = []

    def command(out_dir: Path) -> list[str]:
        args = [w.subcommand, *base, "--seed", str(seed)]
        if w.subcommand == "verify":
            return args + ["--trials", str(w.size)]
        return args + ["--n-samples", str(w.size), "--out", str(out_dir)]

    def one(kind: str) -> None:
        index = len(ops)
        out_dir = run_dir / f"out{index}"
        spans_path = run_dir / f"spans{index}.json"
        args = command(out_dir)
        if kind == "traced":
            op = spawner.run(kind, traced_argv(spans_path, f"op{index}", args))
        else:
            op = spawner.run(kind, dgff_argv(args))
        if w.subcommand == "verify":
            checked(check_verify, op, w.size, seed)
        else:
            digest = checked(check_sample, op, out_dir, w.size, w.shape[0])
            if digest:
                digests.add(digest)
            shutil.rmtree(out_dir, ignore_errors=True)
        if kind == "traced" and not spans_path.exists():
            op.error = op.error or "the traced command wrote no spans"
        elif kind == "traced":
            doc = json.loads(spans_path.read_text())
            spans_path.unlink()
            if doc["bypassed"]:
                op.error = op.error or f"wrappers bypassed: {doc['bypassed']}"
            traced_docs.append(doc)
        ops.append(op)

    loop_start = time.monotonic()
    rounds = 0
    while True:
        if not trace:
            setup("setup")
        one("plain")
        if trace:
            one("traced")
        rounds += 1
        now = time.monotonic()
        per_round = (now - loop_start) / rounds
        if now + per_round > min(loop_start + seconds, deadline):
            break
    while not trace and sum(op.kind == "setup" for op in ops) < SETUP_MIN:
        setup("setup")

    if len(digests) > 1:
        problems.append(f"sample outputs differ between operations: {len(digests)} digests")

    plain = [op for op in ops if op.kind == "plain"]
    traced = [op for op in ops if op.kind == "traced"]
    setups = [op for op in ops if op.kind == "setup"]
    failed = sum(op.error is not None for op in ops)
    result = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "why": w.why, "graph": str(graph.relative_to(ROOT)),
        "roots": w.roots, "command": command(run_dir / "out"),
        "shape": {"interior": w.shape[0], "depth": w.shape[1], "widest_layer": w.shape[2]},
        "env": environment(), "ops": [op.record() for op in ops],
        "attempted": len(ops), "failed": failed,
        "problems": problems + [op.error for op in ops if op.error],
    }
    if not trace:
        result["metrics"] = {
            "wall_s": (median([op.wall_s for op in plain]), "s", len(plain)),
            "setup_s": (median([op.wall_s for op in setups]), "s", len(setups)),
            "peak_rss_mb": (median([op.peak_rss_mb for op in plain]), "MB", len(plain)),
        }
    else:
        per_op = [traced_metrics(doc, w.size, w.shape[0]) for doc in traced_docs]
        units = per_layer_units()
        for key in EXACT:
            if len({m[key] for m in per_op}) > 1:
                result["problems"].append(f"{key} differs between traced operations")
        metrics = {name: (median([m[name] for m in per_op if name in m]), unit, len(per_op))
                   for name, unit in units.items()}
        metrics["process.cpu_s"] = (median([op.cpu_s for op in plain]), "s", len(plain))
        metrics["trace.overhead_s"] = (
            median([op.wall_s for op in traced]) - median([op.wall_s for op in plain]),
            "s", len(traced))
        result["metrics"] = metrics
        spans = [{"op": doc["op"], "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                 for doc in traced_docs for s in doc["spans"]]
        (run_dir / "spans.json").write_text(json.dumps(spans))
        result["wrapped"] = traced_docs[0]["wrapped"] if traced_docs else []
        result["calls"] = {name: sum(doc["calls"].get(name, 0) for doc in traced_docs)
                           for name in result["wrapped"]}
    result["correct"] = not result["problems"]
    result["elapsed_s"] = time.monotonic() - started
    (run_dir / "results.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def summary_lines(result: dict) -> list[str]:
    shape = result["shape"]
    lines = [f"{result['workload']}  seed {result['seed']}  trace {result['trace']}"
             f"{'  smoke' if result['smoke'] else ''}: interior {shape['interior']}, "
             f"depth {shape['depth']}, widest layer {shape['widest_layer']}"]
    for name, (value, unit, count) in result["metrics"].items():
        lines.append(f"  {name:42s} {value:16.6g} {unit:6s} median of {count}")
    frac = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_frac':42s} {frac:16.6g} {'ratio':6s} "
                 f"{result['failed']} of {result['attempted']} operations failed")
    for problem in result["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    lines.append("env " + json.dumps(result["env"]))
    return lines


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (grid5, p4) for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "dgff" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no dgff sources under {ROOT}; run it in a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = workloads(args.smoke)
    names = list(table) if args.workload == "all" else [args.workload]
    if any(name not in table for name in names):
        parser.error(f"--workload must be one of {', '.join(table)} or all")
    results = []
    for name in names:
        result = run_workload(table[name], args.seed, args.seconds, bool(args.trace),
                              args.smoke)
        results.append(result)
        print("\n".join(summary_lines(result)))
        print(contract_line(result), flush=True)
    if len(results) > 1 and not args.trace:
        print(f"\n{'workload':22s}" + "".join(
            f"{name:>16s}" for name in ("wall_s", "setup_s", "peak_rss_mb", "fail_frac")))
        for r in results:
            cells = [f"{value:.4g} {unit}" for value, unit, _ in r["metrics"].values()]
            cells.append(f"{r['failed'] / r['attempted']:.3g}")
            print(f"{r['workload']:22s}" + "".join(f"{c:>16s}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())

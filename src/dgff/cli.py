"""Command-line front end.

Subcommands: validate, foliate, green, poisson, hadamard, sample, verify.
Reports are JSON (schema version 1) on stdout; matrices are CSV with vertex
ids in the first row and column, or with --format json a JSON document of
the ids and the rows of entries, a non-finite entry as null. Exit codes:
0 success, 1 I/O failure, 2 invalid input (parse or validation, with the
error code in the JSON diagnostic), 3 verification checks failed. All
randomness derives from --seed; nothing reads ambient entropy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DGFFError, GraphError
from .foliation import GrowthCluster, bfs_foliate, cluster as make_cluster, load_foliation
from .graph import load_graph
from .hadamard import OperatorStack, dirichlet_rows
from .kernels import STREAM_VERSION
from .linalg import write_matrix_csv
from .sampling import GaussianStream, dgff_block, wnf_block
from .verify import (TOL_EXACT, Z_MAX, isometry_readings, layer_identity, layer_variation,
                     provenance, run_ladder)


def _flags(p: argparse.ArgumentParser, foliation=True, out=True, matrix=False) -> None:
    """Register the flags a subcommand reads: the graph and its layering,
    the output directory, and for the one-matrix commands the cluster and
    the matrix format."""
    p.add_argument("--graph", required=True, help="graph file (.json or edge list)")
    if foliation:
        p.add_argument("--foliation", help="foliation JSON file")
    p.add_argument("--roots", help="comma-separated root vertex ids for BFS layering")
    if matrix:
        p.add_argument("--cluster", type=int, default=None,
                       help="cluster index n (default: the deepest)")
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="matrix output format")
    if out:
        p.add_argument("--out", help="output directory (default: stdout)")


def _layering(args, g):
    """The foliation of g read from --foliation, else grown from --roots."""
    if args.foliation is not None:
        return load_foliation(g, args.foliation)
    if args.roots is not None:
        return bfs_foliate(g, tuple(args.roots.split(",")))
    raise GraphError("need --foliation or --roots", code="BadFormat")


def _resolve(args):
    g = load_graph(args.graph)
    return g, _layering(args, g)


def _emit(args, name: str, write) -> None:
    """Call `write` on the output stream: the file `name` under --out, else
    stdout."""
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / name, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _write_matrix_json(fh, row_ids, col_ids, m: np.ndarray) -> None:
    """Matrix JSON (schema 1): the ids, then the entries a row at a time,
    one line each; a non-finite entry is written as null."""
    fh.write('{"schema": 1, "rows": %s, "cols": %s, "entries": ['
             % (json.dumps(list(row_ids)), json.dumps(list(col_ids))))
    for i, row in enumerate(np.atleast_2d(m)):
        values = row.tolist()
        if not np.isfinite(row).all():
            values = [x if math.isfinite(x) else None for x in values]
        fh.write(("," if i else "") + "\n" + json.dumps(values, allow_nan=False))
    fh.write("\n]}\n")


def _emit_matrix(args, stem: str, row_ids, col_ids, m) -> None:
    """Emit a matrix in --format, CSV or JSON, to `stem`.csv or `stem`.json
    under --out; either is written a row at a time."""
    write = _write_matrix_json if args.format == "json" else write_matrix_csv
    _emit(args, f"{stem}.{args.format}", lambda fh: write(fh, row_ids, col_ids, m))


def _finite(doc):
    """`doc` with every non-finite number in it as None, for strict JSON."""
    if isinstance(doc, dict):
        return {key: _finite(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_finite(value) for value in doc]
    return None if isinstance(doc, float) and not np.isfinite(doc) else doc


def cmd_validate(args) -> int:
    g = load_graph(args.graph)
    doc = {"schema": 1, "graph": {"vertices": g.n_vertices, "edges": len(g.edge_list),
                                  "exterior": len(g.exterior)}}
    if args.foliation is not None or args.roots is not None:
        doc["foliation"] = {"layers": [len(l) for l in _layering(args, g).layers]}
    print(json.dumps(doc))
    return 0


def cmd_foliate(args) -> int:
    g = load_graph(args.graph)
    if args.roots is None:
        raise GraphError("foliate needs --roots", code="BadFormat")
    fol = bfs_foliate(g, tuple(args.roots.split(",")))
    _emit(args, "foliation.json", lambda fh: fh.write(json.dumps(fol.to_json()) + "\n"))
    return 0


def _pick_cluster(args, fol) -> GrowthCluster:
    return make_cluster(fol, args.cluster if args.cluster is not None else fol.depth)


def _walk(g, fol, n: int, read):
    """read(stack, n) on a stack walked up by read(stack, m), m = 0..n, each
    followed by the release of level m-1: two levels are cached at a time."""
    stack = OperatorStack(g, fol)
    for m in range(n + 1):
        out = read(stack, m)
        stack.release(m - 1)
    return out


def cmd_green(args) -> int:
    g, fol = _resolve(args)
    kern = _walk(g, fol, _pick_cluster(args, fol).n, OperatorStack.green)
    ids = g.ids(kern.cluster.vertices)
    _emit_matrix(args, f"green_{kern.cluster.n}", ids, ids, kern.normalized)
    return 0


def cmd_poisson(args) -> int:
    g, fol = _resolve(args)
    clu = _pick_cluster(args, fol)
    _emit_matrix(args, f"poisson_{clu.n}", g.ids(clu.vertices), g.ids(clu.top_layer),
                 _walk(g, fol, clu.n, OperatorStack.poisson))
    return 0


def cmd_hadamard(args) -> int:
    g, fol = _resolve(args)
    stack = OperatorStack(g, fol)
    n = _pick_cluster(args, fol).n
    levels, readings = isometry_readings(stack, n), []
    for m in range(n + 1):  # the ladder's readings, holding layer steps m - 1 and m only
        readings.append((layer_identity(stack, m), layer_variation(stack, m) if m else 0.0,
                         next(levels)))
        stack.release(m - 1)
        if not args.out:  # --out writes Q_n, every kernel
            stack.release_kernel(m)
    identity, variation, isometry = np.max(readings, axis=0)  # np.max keeps a NaN; max drops it
    if args.out:
        clu = stack.cluster(n)
        ids, q = g.ids(clu.vertices), stack.growth(n)
        rows, gram = [d for d, _ in dirichlet_rows(stack, n)], np.empty_like(q)
        for m, d in enumerate(rows):
            for p in range(m + 1):  # the Gram's layer block (p, m)
                b = rows[p].T @ d[: len(rows[p])]
                gram[clu.layer_slice(p), clu.layer_slice(m)] = b
                gram[clu.layer_slice(m), clu.layer_slice(p)] = b.T
        _emit_matrix(args, f"growth_{n}", ids, ids, q)
        _emit_matrix(args, f"growth_{n}_square", ids, ids, q @ q.T)
        _emit_matrix(args, f"growth_{n}_gram", ids, ids, gram)
    residuals = {"identity_residual": float(identity), "isometry_residual": float(isometry),
                 "variation_residual": float(variation)}
    print(json.dumps(_finite({"schema": 1, "cluster": n, **residuals}), allow_nan=False))
    return 0


def cmd_sample(args) -> int:
    if args.n_samples < 0:
        raise DGFFError("--n-samples must be nonnegative", code="BadFormat")
    g, fol = _resolve(args)
    stack = OperatorStack(g, fol)
    depth = stack.depth
    top = stack.cluster(depth)
    stream = GaussianStream(args.seed)
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    ids = g.ids(top.vertices)
    files, fields = [], []
    for n, psi in enumerate(dgff_block(stack, wnf_block(top.vertices, stream, args.n_samples))):
        fields.append(psi)
        stack.release(n - 1)  # two layer steps and one kernel are cached at a time
        stack.release_kernel(n)
    del stack  # the writing below reads the fields alone
    cols = [f"psi_{n}" for n in range(depth + 1)] + [f"inc_{n}" for n in range(1, depth + 1)]
    for s in range(args.n_samples):
        rows = np.zeros((top.size, len(cols)))
        for n in range(depth + 1):
            rows[: fields[n].shape[1], n] = fields[n][s]
        # the psi columns are zero-padded, so inc_n is a column difference
        rows[:, depth + 1:] = rows[:, 1:depth + 1] - rows[:, :depth]
        name = f"sample_{s:03d}.csv"
        with open(outdir / name, "w") as fh:
            write_matrix_csv(fh, ids, cols, rows)
        files.append(name)
    manifest = {"schema": 1, "stream_version": STREAM_VERSION, "provenance": provenance(),
                "seed": args.seed, "n_samples": args.n_samples, "levels": depth + 1, "files": files}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(json.dumps({"schema": 1, "written": len(files), "out": str(outdir)}))
    return 0


def cmd_verify(args) -> int:
    g, fol = _resolve(args)
    report = run_ladder(g, fol, seed=args.seed, trials=args.trials,
                        tol_exact=args.tol_exact, z_max=args.z_max,
                        collect_reports=bool(args.out))
    detail = report.pop("reports", {})
    text = json.dumps(report, indent=1, allow_nan=False)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "verify.json").write_text(text + "\n")
        for name, doc in detail.items():
            (outdir / f"report_{name}.json").write_text(
                json.dumps(_finite({"schema": 1, **doc}), indent=1, allow_nan=False) + "\n")
    print(text)
    return 0 if report["pass"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgff",
        description="Grow and verify discrete Gaussian free fields on weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a graph (and foliation)")
    _flags(p, out=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("foliate", help="emit the BFS layering from --roots")
    _flags(p, foliation=False)
    p.set_defaults(fn=cmd_foliate)

    p = sub.add_parser("green", help="emit the normalized Green matrix of a cluster")
    _flags(p, matrix=True)
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("poisson", help="emit the Poisson kernel of a cluster")
    _flags(p, matrix=True)
    p.set_defaults(fn=cmd_poisson)

    p = sub.add_parser("hadamard", help="emit the growth operator and residual summary")
    _flags(p, matrix=True)
    p.set_defaults(fn=cmd_hadamard)

    p = sub.add_parser("sample", help="write reproducible field samples as CSV")
    _flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, default=1)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="run the full verification ladder")
    _flags(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--tol-exact", type=float, default=TOL_EXACT)
    p.add_argument("--z-max", type=float, default=Z_MAX)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        print(json.dumps({"schema": 1, "error": {"code": "IoError", "message": str(e)}}),
              file=sys.stderr)
        return 1
    except DGFFError as e:
        print(json.dumps({"schema": 1, "error": {"code": e.code, "message": str(e)}}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

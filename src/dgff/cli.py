"""Command-line front end.

Subcommands: validate, foliate, green, poisson, hadamard, sample, verify.
Reports are JSON (schema version 1) on stdout; matrices are CSV with vertex
ids in the first row and column. Exit codes: 0 success, 1 I/O failure,
2 invalid input (parse or validation, with the error code in the JSON
diagnostic), 3 verification checks failed. All randomness derives from
--seed; nothing reads ambient entropy.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import DGFFError, GraphError
from .foliation import GrowthCluster, bfs_foliate, cluster as make_cluster, load_foliation
from .graph import load_graph
from .hadamard import OperatorStack, dirichlet_gram, verify_hadamard_identity, verify_isometry
from .kernels import STREAM_VERSION
from .linalg import write_matrix_csv
from .operators import layer_step, stencil
from .sampling import GaussianStream, dgff_block, wnf_block
from .verify import TOL_EXACT, Z_MAX, run_ladder


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


def _resolve(args):
    g = load_graph(args.graph)
    if args.foliation:
        fol = load_foliation(g, args.foliation)
    elif args.roots:
        fol = bfs_foliate(g, tuple(args.roots.split(",")))
    else:
        raise GraphError("need --foliation or --roots", code="BadFormat")
    return g, fol


def _emit(args, name: str, text: str) -> None:
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / name).write_text(text)
    else:
        sys.stdout.write(text)


def _matrix_text(args, row_ids, col_ids, m) -> str:
    if args.format == "json":
        return json.dumps({"schema": 1, "rows": list(row_ids), "cols": list(col_ids),
                           "entries": np.asarray(m).tolist()}, indent=1) + "\n"
    buf = io.StringIO()
    write_matrix_csv(buf, row_ids, col_ids, m)
    return buf.getvalue()


def cmd_validate(args) -> int:
    g = load_graph(args.graph)
    doc = {"schema": 1, "graph": {"vertices": g.n_vertices, "edges": len(g.edge_list),
                                  "exterior": len(g.exterior)}}
    if args.foliation or args.roots:
        _, fol = _resolve(args)
        doc["foliation"] = {"layers": [len(l) for l in fol.layers]}
    print(json.dumps(doc))
    return 0


def cmd_foliate(args) -> int:
    g = load_graph(args.graph)
    if not args.roots:
        raise GraphError("foliate needs --roots", code="BadFormat")
    fol = bfs_foliate(g, tuple(args.roots.split(",")))
    _emit(args, "foliation.json", json.dumps(fol.to_json()) + "\n")
    return 0


def _pick_cluster(args, fol) -> GrowthCluster:
    return make_cluster(fol, args.cluster if args.cluster is not None else fol.depth)


# `green` and `poisson` emit one level, so they take the recursion's base
# step on one cluster (its whole Laplacian inverted at once) instead of the
# one-layer chain: the same O(k^3) for a cluster of size k, holding one
# k x k matrix instead of every lower level's. The Poisson kernel is one
# layer step from the base step's layer columns of the cluster minus the
# top layer.

def cmd_green(args) -> int:
    g, fol = _resolve(args)
    clu = _pick_cluster(args, fol)
    ids = g.ids(clu.vertices)
    _emit(args, f"green_{clu.n}.csv",
          _matrix_text(args, ids, ids, layer_step(clu, stencil(g, clu), None)[1]))
    return 0


def cmd_poisson(args) -> int:
    g, fol = _resolve(args)
    clu = _pick_cluster(args, fol)
    st, cols = stencil(g, clu), None
    if clu.n:
        inner = make_cluster(fol, clu.n - 1)
        cols = layer_step(inner, st.leading(inner.size), None)[1][:, inner.layer_slice(inner.n)]
    _emit(args, f"poisson_{clu.n}.csv",
          _matrix_text(args, g.ids(clu.vertices), g.ids(clu.top_layer),
                       layer_step(clu, st, cols)[0]))
    return 0


def cmd_hadamard(args) -> int:
    g, fol = _resolve(args)
    stack = OperatorStack(g, fol)
    n = _pick_cluster(args, fol).n
    clu = stack.cluster(n)
    ids = g.ids(clu.vertices)
    variation = []
    for m in range(n + 1):  # up to level n, holding G_{m-1} and G_m only
        stack.kernel(m)
        if m:
            variation.append(stack.variation_residual(m) / stack.green(m).scale())
        stack.release_green(m - 1)
    q = stack.growth(n)
    gram = dirichlet_gram(g, clu, q)
    if args.out:
        _emit(args, f"growth_{n}.csv", _matrix_text(args, ids, ids, q))
        _emit(args, f"growth_{n}_square.csv", _matrix_text(args, ids, ids, q @ q.T))
        _emit(args, f"growth_{n}_gram.csv", _matrix_text(args, ids, ids, gram))
    gn = stack.green(n).normalized
    residuals = {
        "identity_residual": verify_hadamard_identity(q, gn)
                             / float(np.max((gn.max(), -gn.min(), 1.0))),
        "isometry_residual": verify_isometry(gram),
        # np.max keeps a NaN, which Python's max drops
        "variation_residual": float(np.max(variation, initial=0.0)),
    }
    # a non-finite residual is written as null, so the line stays strict JSON
    print(json.dumps({"schema": 1, "cluster": n, **{
        name: value if np.isfinite(value) else None for name, value in residuals.items()}},
        allow_nan=False))
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
    files = []
    phi = wnf_block(top.vertices, stream, args.n_samples)
    fields = dgff_block(stack, phi)
    cols = [f"psi_{n}" for n in range(depth + 1)] + [f"inc_{n}" for n in range(1, depth + 1)]
    for s in range(args.n_samples):
        rows = np.zeros((top.size, len(cols)))
        for n in range(depth + 1):
            rows[: fields[n].shape[1], n] = fields[n][s]
        # the psi columns are zero-padded, so inc_n is a column difference
        rows[:, depth + 1:] = rows[:, 1:depth + 1] - rows[:, :depth]
        name = f"sample_{s:03d}.csv"
        buf = io.StringIO()
        write_matrix_csv(buf, ids, cols, rows)
        (outdir / name).write_text(buf.getvalue())
        files.append(name)
    manifest = {"schema": 1, "stream_version": STREAM_VERSION, "seed": args.seed,
                "n_samples": args.n_samples, "levels": depth + 1, "files": files}
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
                json.dumps({"schema": 1, **doc}, indent=1) + "\n")
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

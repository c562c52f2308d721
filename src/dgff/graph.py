"""Weighted-graph data model.

A graph is a connected, loop-free vertex/edge structure with strictly
positive symmetric conductances. Vertices carry string ids; a dense integer
ordering is fixed at parse time and every array in the package is indexed by
it. The stationary weight pi(x) is the sum of conductances incident to x.

Two input formats are supported:

* edge list - UTF-8 lines ``u v c``, ``#`` starts a comment, and a header
  line ``!exterior u1 u2 ...`` declares grounded vertices;
* JSON - ``{"vertices": [...], "exterior": [...],
  "edges": [{"u":.., "v":.., "c":..}]}`` (``vertices`` may be omitted, in
  which case ids are ordered by first appearance in ``edges``).

The Dirichlet energy of a vertex function f is the sum over unordered
edges of c (f(x) - f(y))^2; the package reads it from the edge list
(`dgff.hadamard.dirichlet_rows`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph. Build via `parse_graph` / `from_edges`.

    The raw constructor trusts its inputs; all validation lives in the
    factories.
    """

    vertices: tuple[str, ...]
    exterior: frozenset[str]
    edge_list: tuple[tuple[int, int], ...]      # one orientation per edge, i < j
    conductances: np.ndarray                    # aligned with edge_list
    cond: dict[tuple[int, int], float]          # both orientations
    pi: np.ndarray
    index: dict[str, int] = field(repr=False)
    adj: tuple[tuple[int, ...], ...] = field(repr=False)  # sorted neighbor ids

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def exterior_indices(self) -> frozenset[int]:
        return frozenset(self.index[v] for v in self.exterior)

    def ids(self, indices) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in indices)

    def indices_of(self, ids) -> tuple[int, ...]:
        out = []
        for v in ids:
            if v not in self.index:
                raise GraphError(f"unknown vertex id {v!r}", code="UnknownVertex")
            out.append(self.index[v])
        return tuple(out)


def from_edges(vertex_ids, exterior_ids, edges) -> Graph:
    """Validated construction from (u, v, c) triples.

    vertex_ids fixes the dense ordering; pass the ids in the order the
    matrices should use.
    """
    vertices = tuple(vertex_ids)
    index: dict[str, int] = {}
    for v in vertices:
        if not v or any(ch.isspace() for ch in v):
            raise GraphError(f"bad vertex id {v!r}", code="BadFormat")
        if v in index:
            raise GraphError(f"duplicate vertex id {v!r}", code="DuplicateVertex")
        index[v] = len(index)
    exterior = frozenset(exterior_ids)
    for v in exterior:
        if v not in index:
            raise GraphError(f"exterior vertex {v!r} not declared", code="UnknownVertex")

    cond: dict[tuple[int, int], float] = {}
    edge_list: list[tuple[int, int]] = []
    for u, v, c in edges:
        for w in (u, v):
            if w not in index:
                raise GraphError(f"edge endpoint {w!r} not declared", code="UnknownVertex")
        i, j = index[u], index[v]
        if i == j:
            raise GraphError(f"self-loop at {u!r}", code="SelfLoop")
        try:
            c = float(c)
        except (TypeError, ValueError):
            raise GraphError(f"conductance {c!r} on ({u!r}, {v!r}) is not a number",
                             code="BadFormat") from None
        except OverflowError:  # an integer beyond the float range
            raise GraphError(f"conductance on ({u!r}, {v!r}) must be positive and finite",
                             code="NonPositiveConductance") from None
        if not (c > 0.0 and math.isfinite(c)):
            raise GraphError(f"conductance {c} on ({u!r}, {v!r}) must be positive and finite",
                             code="NonPositiveConductance")
        if (i, j) in cond:
            if cond[(i, j)] != c:
                raise GraphError(f"edge ({u!r}, {v!r}) repeated with conductance "
                                 f"{c} != {cond[(i, j)]}", code="ConflictingConductance")
            continue
        cond[(i, j)] = c
        cond[(j, i)] = c
        edge_list.append((min(i, j), max(i, j)))

    n = len(vertices)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in cond:
        nbrs[i].append(j)
    adj = tuple(tuple(sorted(row)) for row in nbrs)

    # connectivity over all vertices
    if n:
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise GraphError(f"graph is disconnected (e.g. vertex {vertices[missing[0]]!r} "
                             "unreachable)", code="Disconnected")

    return Graph(
        vertices=vertices,
        exterior=exterior,
        edge_list=tuple(edge_list),
        conductances=np.array([cond[e] for e in edge_list], dtype=float),
        cond=cond,
        pi=recompute_pi_from(adj, cond),
        index=index,
        adj=adj,
    )


def recompute_pi_from(adj, cond) -> np.ndarray:
    pi = np.zeros(len(adj))
    for i, nbrs in enumerate(adj):
        s = 0.0
        for j in nbrs:
            s += cond[(i, j)]
        pi[i] = s
    return pi


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def decode_text(data: str | bytes) -> str:
    """File contents as text; bytes that are not UTF-8 are BadFormat."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise GraphError(f"input is not UTF-8: {e}", code="BadFormat") from None


def read_json(data: str | bytes, what: str):
    """The JSON document in `data`. Malformed JSON, numbers Python cannot
    read (integers past its digit limit) and nesting past the recursion
    limit are all BadFormat."""
    try:
        return json.loads(decode_text(data))
    except (ValueError, RecursionError) as e:
        raise GraphError(f"invalid {what} JSON: {e}", code="BadFormat") from None


def parse_graph(data: str | bytes, fmt: str) -> Graph:
    if fmt == "json":
        return _parse_json(data)
    if fmt == "edgelist":
        return _parse_edgelist(decode_text(data))
    raise GraphError(f"unknown graph format {fmt!r}", code="BadFormat")


def load_graph(path) -> Graph:
    """Read a graph file; `.json` selects the JSON format, anything else the
    edge list."""
    with open(path, "rb") as fh:
        data = fh.read()
    fmt = "json" if str(path).endswith(".json") else "edgelist"
    return parse_graph(data, fmt)


def _vertex_order(edges, exterior) -> list[str]:
    """Vertex ids in order of first appearance in the edges, then in the
    exterior; a vertex only in the exterior is isolated and fails the
    connectivity check."""
    return list(dict.fromkeys([w for u, v, _ in edges for w in (u, v)] + list(exterior)))


def _parse_edgelist(text: str) -> Graph:
    exterior: list[str] = []
    edges: list[tuple[str, str, float]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "!exterior":
            exterior.extend(parts[1:])
            continue
        if len(parts) != 3:
            raise GraphError(f"line {lineno}: expected 'u v c', got {raw!r}", code="BadFormat")
        u, v, cs = parts
        try:
            c = float(cs)
        except ValueError:
            raise GraphError(f"line {lineno}: bad conductance {cs!r}", code="BadFormat") from None
        edges.append((u, v, c))
    return from_edges(_vertex_order(edges, exterior), exterior, edges)


def _parse_json(data: str | bytes) -> Graph:
    doc = read_json(data, "graph")
    if not isinstance(doc, dict) or "edges" not in doc:
        raise GraphError("expected an object with an 'edges' array", code="BadFormat")
    try:
        edges = [(e["u"], e["v"], e["c"]) for e in doc["edges"]]
    except (TypeError, KeyError):
        raise GraphError("each edge needs 'u', 'v' and 'c'", code="BadFormat") from None
    if any(isinstance(c, bool) or not isinstance(c, (int, float)) for *_, c in edges):
        raise GraphError("each edge's 'c' must be a JSON number", code="BadFormat")
    exterior = _id_array(doc.get("exterior", []), "exterior")
    _id_array([w for u, v, _ in edges for w in (u, v)], "edge endpoints")
    vertices = (_id_array(doc["vertices"], "vertices") if "vertices" in doc
                else _vertex_order(edges, exterior))
    return from_edges(vertices, exterior, edges)


def _id_array(value, what: str) -> list[str]:
    """A JSON array of vertex ids; anything else is a BadFormat error."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise GraphError(f"{what} must be an array of string vertex ids", code="BadFormat")
    return value


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "exterior": sorted(g.exterior, key=g.index.__getitem__),
        "edges": [
            {"u": g.vertices[i], "v": g.vertices[j], "c": c}
            for (i, j), c in zip(g.edge_list, g.conductances)
        ],
    }

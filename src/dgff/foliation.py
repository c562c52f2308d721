"""Layerings of the interior of a graph and their growth clusters.

A foliation splits the non-exterior vertices into an ordered sequence of
disjoint nonempty layers such that every edge between two assigned vertices
joins the same or adjacent layers. Exterior vertices stay unassigned and may
neighbor any layer; they ground the Laplacians so every growth cluster (the
union of the first n+1 layers) has an invertible one.

`bfs_foliate` builds the canonical layering: layer n holds the interior
vertices at graph distance n from the chosen roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FoliationError, GraphError
from .graph import Graph, read_json


@dataclass(frozen=True)
class Foliation:
    graph: Graph
    layers: tuple[tuple[int, ...], ...]  # vertex indices, sorted within a layer
    layer_of: np.ndarray                 # layer index per vertex, -1 = exterior

    @property
    def depth(self) -> int:
        """Largest layer index N."""
        return len(self.layers) - 1

    def layer_ids(self, n: int) -> tuple[str, ...]:
        return self.graph.ids(self.layers[n])

    def to_json(self) -> dict:
        return {"layers": [list(self.layer_ids(n)) for n in range(len(self.layers))]}


@dataclass(frozen=True)
class GrowthCluster:
    """Union of layers 0..n.

    `vertices` is layer-major (layer 0 first), so the vertex order of cluster
    n-1 is a prefix of the order of cluster n; `layer_start[m]` is the offset
    of layer m in that order.
    """

    n: int
    vertices: tuple[int, ...]
    layer_start: tuple[int, ...]         # offsets, len n+2 (last = size)

    @property
    def size(self) -> int:
        return len(self.vertices)

    def layer_slice(self, m: int) -> slice:
        return slice(self.layer_start[m], self.layer_start[m + 1])

    @property
    def top_layer(self) -> tuple[int, ...]:
        return self.vertices[self.layer_slice(self.n)]


def validate_foliation(g: Graph, layers) -> Foliation:
    """Check the layering axioms and freeze the result.

    `layers` is a nonempty sequence of vertex-id (or index) collections.
    Raises FoliationError with codes NoExterior, EmptyLayer (also for no
    layer), OverlappingLayers, CoverageViolation or LocalityViolation;
    coverage is checked before locality, so an unassigned vertex is
    reported even when a locality breach is also present.

    Every cluster then has an invertible Laplacian, with no further check.
    A graph from the factories is connected, and the exterior is nonempty,
    so each component C of a cluster has an edge to some vertex outside C.
    That vertex is outside the cluster too, or it would belong to C. So
    every component is grounded. A disconnected Graph built raw, past the
    factories, fails in the build instead, with NotPD.
    """
    if not g.exterior:
        raise FoliationError("foliation requires a nonempty exterior", code="NoExterior")
    idx_layers: list[tuple[int, ...]] = []
    for n, layer in enumerate(layers):
        members = tuple(layer)
        if not members:
            raise FoliationError(f"layer {n} is empty", code="EmptyLayer")
        if isinstance(members[0], str):
            members = g.indices_of(members)
        idx_layers.append(tuple(sorted(members)))
    if not idx_layers:
        raise FoliationError("foliation has no layers", code="EmptyLayer")

    layer_of = np.full(g.n_vertices, -1, dtype=int)
    ext = g.exterior_indices
    for n, members in enumerate(idx_layers):
        for i in members:
            if i in ext:
                raise FoliationError(
                    f"exterior vertex {g.vertices[i]!r} assigned to layer {n}",
                    code="CoverageViolation")
            if layer_of[i] != -1:
                raise FoliationError(
                    f"vertex {g.vertices[i]!r} in layers {layer_of[i]} and {n}",
                    code="OverlappingLayers")
            layer_of[i] = n

    for i in range(g.n_vertices):
        if layer_of[i] == -1 and i not in ext:
            raise FoliationError(f"vertex {g.vertices[i]!r} is neither exterior nor "
                                 "in a layer", code="CoverageViolation")

    for (i, j) in g.edge_list:
        ti, tj = layer_of[i], layer_of[j]
        if ti == -1 or tj == -1:
            continue  # exterior may touch any layer
        if abs(ti - tj) > 1:
            raise FoliationError(
                f"edge ({g.vertices[i]!r}, {g.vertices[j]!r}) joins layers {ti} "
                f"and {tj}", code="LocalityViolation")

    return Foliation(graph=g, layers=tuple(idx_layers), layer_of=layer_of)


def bfs_foliate(g: Graph, roots) -> Foliation:
    """Layer the interior by graph distance from `roots` (ids or indices)."""
    root_idx = g.indices_of(roots) if roots and isinstance(next(iter(roots)), str) \
        else tuple(int(r) for r in roots)
    if not root_idx:
        raise FoliationError("roots must be nonempty", code="RootsInExterior")
    ext = g.exterior_indices
    for r in root_idx:
        if r in ext:
            raise FoliationError(f"root {g.vertices[r]!r} lies in the exterior",
                                 code="RootsInExterior")
    if not ext:
        raise FoliationError("cannot foliate without an exterior", code="NoExterior")
    if not any(any(y not in ext for y in g.adj[x]) for x in ext):
        raise FoliationError("exterior is not adjacent to the interior",
                             code="ExteriorUnreachable")

    dist = {r: 0 for r in root_idx}
    frontier = sorted(set(root_idx))
    layers: list[tuple[int, ...]] = []
    while frontier:
        layers.append(tuple(frontier))
        nxt = set()
        for x in frontier:
            for y in g.adj[x]:
                if y not in ext and y not in dist:
                    dist[y] = len(layers)
                    nxt.add(y)
        frontier = sorted(nxt)
    return validate_foliation(g, layers)


def parse_foliation(g: Graph, data: str | bytes) -> Foliation:
    doc = read_json(data, "foliation")
    if not isinstance(doc, dict) or "layers" not in doc:
        raise GraphError("expected an object with a 'layers' array", code="BadFormat")
    layers = doc["layers"]
    if not isinstance(layers, list) or not all(
            isinstance(layer, list) and all(isinstance(v, str) for v in layer)
            for layer in layers):
        raise GraphError("'layers' must be an array of arrays of vertex ids", code="BadFormat")
    return validate_foliation(g, layers)


def load_foliation(g: Graph, path) -> Foliation:
    with open(path, "rb") as fh:
        return parse_foliation(g, fh.read())


def cluster(fol: Foliation, n: int) -> GrowthCluster:
    """Growth cluster n: layers 0..n in layer-major vertex order."""
    if not 0 <= n <= fol.depth:
        raise FoliationError(f"cluster index {n} outside 0..{fol.depth}",
                             code="IndexOutOfRange")
    verts: list[int] = []
    starts = [0]
    for m in range(n + 1):
        verts.extend(fol.layers[m])
        starts.append(len(verts))
    return GrowthCluster(n=n, vertices=tuple(verts), layer_start=tuple(starts))

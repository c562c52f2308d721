import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgff import FoliationError, bfs_foliate, cluster, validate_foliation
from dgff.fixtures import grid_graph, path_graph, standard_fixture
from dgff.graph import from_edges

import dense_reference
from conftest import small_graphs


@pytest.fixture(scope="module")
def p5():
    return path_graph(5)


def test_interleaved_layers_are_valid(p5):
    # {v1, v3} then {v2}: every inter-layer edge joins adjacent layers
    fol = validate_foliation(p5, [["v1", "v3"], ["v2"]])
    assert fol.layer_ids(0) == ("v1", "v3")
    assert fol.layer_ids(1) == ("v2",)


def test_uncovered_vertex_flags_coverage(p5):
    g = path_graph(5, exterior=("last",))
    with pytest.raises(FoliationError) as exc:
        validate_foliation(g, [["v1"], ["v2"], ["v3"]])  # v0 unassigned
    assert exc.value.code == "CoverageViolation"


def test_coverage_flags_before_locality(p5):
    # layers [{v1}, {v3}] leave v2 unassigned *and* break locality;
    # the unassigned vertex is reported
    with pytest.raises(FoliationError) as exc:
        validate_foliation(p5, [["v1"], ["v3"]])
    assert exc.value.code == "CoverageViolation"


def test_skipping_a_layer_flags_locality(p5):
    with pytest.raises(FoliationError) as exc:
        validate_foliation(p5, [["v1"], ["v3"], ["v2"]])
    assert exc.value.code == "LocalityViolation"


def test_empty_layer_rejected(p5):
    with pytest.raises(FoliationError) as exc:
        validate_foliation(p5, [["v1"], [], ["v2", "v3"]])
    assert exc.value.code == "EmptyLayer"


def test_no_layers_rejected():
    # every vertex exterior: an empty layer list covers the interior, but a
    # foliation has at least one layer, or it has no cluster to grow
    g = from_edges(["a", "b"], ["a", "b"], [("a", "b", 1.0)])
    with pytest.raises(FoliationError) as exc:
        validate_foliation(g, [])
    assert exc.value.code == "EmptyLayer"


def test_overlapping_layers_rejected(p5):
    with pytest.raises(FoliationError) as exc:
        validate_foliation(p5, [["v1", "v2"], ["v2", "v3"]])
    assert exc.value.code == "OverlappingLayers"


def test_no_exterior_rejected():
    g = path_graph(4, exterior=())
    with pytest.raises(FoliationError) as exc:
        validate_foliation(g, [["v0", "v1", "v2", "v3"]])
    assert exc.value.code == "NoExterior"


def test_exterior_vertex_in_layer_rejected(p5):
    with pytest.raises(FoliationError) as exc:
        validate_foliation(p5, [["v0", "v1"], ["v2"], ["v3"]])
    assert exc.value.code == "CoverageViolation"


def test_bfs_single_interior_vertex():
    g = grid_graph(3)
    fol = bfs_foliate(g, ["r1c1"])
    assert [fol.layer_ids(n) for n in range(fol.depth + 1)] == [("r1c1",)]


def test_bfs_grid5_layers():
    g = grid_graph(5)
    fol = bfs_foliate(g, ["r2c2"])
    assert fol.layer_ids(0) == ("r2c2",)
    assert set(fol.layer_ids(1)) == {"r1c2", "r2c1", "r2c3", "r3c2"}
    assert set(fol.layer_ids(2)) == {"r1c1", "r1c3", "r3c1", "r3c3"}
    assert fol.depth == 2


def test_bfs_p4():
    g = path_graph(4)
    fol = bfs_foliate(g, ["v1"])
    assert [fol.layer_ids(n) for n in range(fol.depth + 1)] == [("v1",), ("v2",)]


def test_bfs_rejects_roots_in_exterior():
    g = path_graph(4)
    with pytest.raises(FoliationError) as exc:
        bfs_foliate(g, ["v0"])
    assert exc.value.code == "RootsInExterior"


def test_bfs_output_validates():
    for name in ("p4", "p5", "grid5", "tree3"):
        g, fol = standard_fixture(name)
        revalidated = validate_foliation(g, [fol.layer_ids(n) for n in range(fol.depth + 1)])
        assert revalidated.layers == fol.layers


def test_bfs_unreached_interior_is_coverage_error():
    # interior vertex reachable only through the exterior never gets a layer
    from dgff.graph import from_edges

    g = from_edges(["a", "x", "b"], ["x"], [("a", "x", 1.0), ("x", "b", 1.0)])
    with pytest.raises(FoliationError) as exc:
        bfs_foliate(g, ["a"])
    assert exc.value.code == "CoverageViolation"


def test_cluster_prefix_nesting():
    g, fol = standard_fixture("grid5")
    sizes = []
    prev_vertices: tuple = ()
    for n in range(fol.depth + 1):
        clu = cluster(fol, n)
        assert clu.vertices[: len(prev_vertices)] == prev_vertices
        prev_vertices = clu.vertices
        sizes.append(clu.size)
    assert sizes == [1, 5, 9]


def test_cluster_zero_is_first_layer():
    g, fol = standard_fixture("p4")
    clu = cluster(fol, 0)
    assert clu.vertices == fol.layers[0]


def test_cluster_edges_induced():
    g, fol = standard_fixture("p4")
    clu = cluster(fol, 1)
    assert clu.size == 2
    # the one edge inside the cluster is the Laplacian's one off-diagonal pair
    a = dense_reference.laplacian(g, clu)
    assert np.count_nonzero(a - np.diag(np.diag(a))) == 2


def test_cluster_index_out_of_range():
    g, fol = standard_fixture("p4")
    with pytest.raises(FoliationError) as exc:
        cluster(fol, 5)
    assert exc.value.code == "IndexOutOfRange"


def test_locality_also_holds_for_every_accepted_edge():
    g, fol = standard_fixture("tree3")
    for (i, j) in g.edge_list:
        ti, tj = fol.layer_of[i], fol.layer_of[j]
        if ti >= 0 and tj >= 0:
            assert abs(ti - tj) <= 1


@settings(deadline=None, max_examples=50)
@given(small_graphs(), st.integers(0, 2 ** 31))
def test_bfs_always_validates(g, seed):
    # any interior root set yields layers that satisfy every axiom
    import numpy as np

    interior = [v for v in g.vertices if v not in g.exterior]
    rng = np.random.default_rng(seed)
    roots = list(rng.choice(interior, size=rng.integers(1, len(interior) + 1),
                            replace=False))
    try:
        fol = bfs_foliate(g, roots)
    except FoliationError as e:
        # only acceptable when some interior vertex is walled off by the exterior
        assert e.code == "CoverageViolation"
        return
    validate_foliation(g, [fol.layer_ids(n) for n in range(fol.depth + 1)])
    for n, layer in enumerate(fol.layers):
        for v in layer:
            assert fol.layer_of[v] == n

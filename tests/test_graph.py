import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgff import GraphError, parse_graph
from dgff.graph import from_edges, graph_to_json

from calculus_reference import coboundary, delta, dirichlet_inner, divergence, recompute_pi
from conftest import small_graphs

P4_EDGELIST = """\
# four-vertex path
!exterior v0 v3
v0 v1 1.0
v1 v2 1.0
v2 v3 1.0
"""


def test_parse_edgelist_p4():
    g = parse_graph(P4_EDGELIST, "edgelist")
    assert g.vertices == ("v0", "v1", "v2", "v3")
    assert g.exterior == {"v0", "v3"}
    assert g.pi[g.index["v1"]] == 2.0
    assert g.pi[g.index["v0"]] == 1.0


def test_parse_rejects_nonpositive_conductance():
    with pytest.raises(GraphError) as exc:
        parse_graph("v0 v1 1.0\nv1 v2 -1.0", "edgelist")
    assert exc.value.code == "NonPositiveConductance"


def test_parse_rejects_disconnected():
    with pytest.raises(GraphError) as exc:
        parse_graph("a b 1\nc d 1", "edgelist")
    assert exc.value.code == "Disconnected"


def test_parse_rejects_self_loop():
    with pytest.raises(GraphError) as exc:
        parse_graph("a a 1", "edgelist")
    assert exc.value.code == "SelfLoop"


def test_parse_rejects_conflicting_duplicate():
    with pytest.raises(GraphError) as exc:
        parse_graph("a b 1\nb a 2", "edgelist")
    assert exc.value.code == "ConflictingConductance"
    # an agreeing duplicate merges silently
    g = parse_graph("a b 1\nb a 1\n!exterior b", "edgelist")
    assert len(g.edge_list) == 1


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(GraphError) as exc:
        from_edges(["a", "b", "a"], [], [("a", "b", 1.0)])
    assert exc.value.code == "DuplicateVertex"


@pytest.mark.parametrize("c", [True, False, "2.5", "1", "abc", None, [1.0], {"value": 1.0}],
                         ids=["true", "false", "numeric_string", "int_string", "string", "null",
                              "list", "object"])
def test_json_conductance_must_be_a_number(c):
    # a bool is an int to Python and "2.5" converts with float(), but
    # neither is a JSON number
    doc = {"exterior": ["x"], "edges": [{"u": "a", "v": "x", "c": c}]}
    with pytest.raises(GraphError) as exc:
        parse_graph(json.dumps(doc), "json")
    assert exc.value.code == "BadFormat"
    doc["edges"][0]["c"] = 2
    assert parse_graph(json.dumps(doc), "json").conductances.tolist() == [2.0]


def test_json_roundtrip():
    g = parse_graph(P4_EDGELIST, "edgelist")
    import json

    g2 = parse_graph(json.dumps(graph_to_json(g)), "json")
    assert g2.vertices == g.vertices
    assert g2.exterior == g.exterior
    np.testing.assert_array_equal(g2.pi, g.pi)


def test_pi_recomputes_bit_for_bit():
    g = parse_graph("a b 0.1\nb c 0.7\nc a 1.3\n!exterior c", "edgelist")
    np.testing.assert_array_equal(recompute_pi(g), g.pi)


def test_coboundary_annihilates_constants():
    g = parse_graph(P4_EDGELIST, "edgelist")
    df = coboundary(g, np.ones(4) * 3.7)
    np.testing.assert_array_equal(df.values, 0.0)


def test_coboundary_delta():
    g = parse_graph(P4_EDGELIST, "edgelist")
    df = coboundary(g, delta(g, "v1"))
    assert df.value(g.index["v0"], g.index["v1"]) == -1.0
    assert df.value(g.index["v1"], g.index["v2"]) == 1.0
    assert df.value(g.index["v2"], g.index["v3"]) == 0.0
    # antisymmetry via the accessor
    assert df.value(g.index["v1"], g.index["v0"]) == 1.0


def test_coboundary_scales_with_sqrt_conductance():
    g = parse_graph("v0 v1 4.0\nv1 v2 1.0\nv2 v3 1.0\n!exterior v0 v3", "edgelist")
    df = coboundary(g, delta(g, "v1"))
    assert df.value(g.index["v0"], g.index["v1"]) == -2.0


def test_divergence_of_coboundary_matches_weighted_laplacian():
    # d*d g(x) = sum over neighbors of c(x,y) (g(x) - g(y))
    g = parse_graph("a b 2.0\nb c 0.5\nc a 1.5\n!exterior c", "edgelist")
    rng = np.random.default_rng(3)
    f = rng.normal(size=3)
    lap = divergence(g, coboundary(g, f))
    for i in range(3):
        expect = sum(g.cond[(i, j)] * (f[i] - f[j]) for j in g.adj[i])
        assert lap[i] == pytest.approx(expect, abs=1e-13)


def test_divergence_p4_delta():
    g = parse_graph(P4_EDGELIST, "edgelist")
    out = divergence(g, coboundary(g, delta(g, "v1")))
    assert out[g.index["v1"]] == pytest.approx(2.0)
    assert out[g.index["v0"]] == pytest.approx(-1.0)
    assert out[g.index["v2"]] == pytest.approx(-1.0)


def test_divergence_of_zero():
    g = parse_graph(P4_EDGELIST, "edgelist")
    np.testing.assert_array_equal(divergence(g, np.zeros(len(g.edge_list))), 0.0)


def test_dirichlet_energy_of_delta():
    g = parse_graph(P4_EDGELIST, "edgelist")
    f = delta(g, "v1")
    assert dirichlet_inner(g, f, f) == pytest.approx(2.0)


def test_dirichlet_constant_is_null():
    g = parse_graph(P4_EDGELIST, "edgelist")
    assert dirichlet_inner(g, np.ones(4), np.ones(4)) == 0.0


def test_dirichlet_quadratic_scaling():
    g = parse_graph(P4_EDGELIST, "edgelist")
    rng = np.random.default_rng(5)
    f = rng.normal(size=4)
    assert dirichlet_inner(g, 2 * f, 2 * f) == pytest.approx(4 * dirichlet_inner(g, f, f))


def test_dirichlet_matches_divergence_route():
    g = parse_graph("a b 2.0\nb c 0.5\nc a 1.5\nc d 1.0\n!exterior d", "edgelist")
    rng = np.random.default_rng(11)
    f = rng.normal(size=4)
    h = rng.normal(size=4)
    via_edges = dirichlet_inner(g, f, h)
    via_vertices = float(divergence(g, coboundary(g, f)) @ h)
    assert via_edges == pytest.approx(via_vertices, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(small_graphs(), st.integers(0, 2 ** 31))
def test_adjointness_identity(g, seed):
    # <f, d* phi>_U = <d f, phi> for f supported on U, phi on edges touching U
    rng = np.random.default_rng(seed)
    u = [i for i in range(g.n_vertices) if g.vertices[i] not in g.exterior]
    f = np.zeros(g.n_vertices)
    f[u] = rng.normal(size=len(u))
    phi = rng.normal(size=len(g.edge_list))
    lhs = float(f @ divergence(g, phi))
    df = coboundary(g, f).values
    touching = [k for k, (i, j) in enumerate(g.edge_list) if i in set(u) or j in set(u)]
    rhs = float(df[touching] @ phi[touching])
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(deadline=None, max_examples=40)
@given(small_graphs())
def test_energy_formula_over_edges(g):
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.n_vertices)
    direct = sum(c * (f[i] - f[j]) ** 2 for (i, j), c in zip(g.edge_list, g.conductances))
    assert dirichlet_inner(g, f, f) == pytest.approx(direct, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(small_graphs())
def test_pi_equals_incident_conductance_sums(g):
    for i in range(g.n_vertices):
        assert g.pi[i] == sum(g.cond[(i, j)] for j in g.adj[i])


@settings(deadline=None, max_examples=40)
@given(small_graphs(), st.integers(0, 2 ** 31))
def test_energy_positive_for_nonconstant(g, seed):
    # on a connected graph only constants have zero Dirichlet energy
    rng = np.random.default_rng(seed)
    f = np.ones(g.n_vertices)
    f[rng.integers(g.n_vertices)] += 1.0 + rng.random()
    assert dirichlet_inner(g, f, f) > 0.0


def test_dirichlet_support_restriction():
    # edges with no endpoint in the support set do not contribute
    g = parse_graph(P4_EDGELIST, "edgelist")
    f = np.array([1.0, 2.0, 4.0, 8.0])
    u = {g.index["v0"], g.index["v1"]}
    expect = 1.0 * (1 - 2) ** 2 + 1.0 * (2 - 4) ** 2  # edges touching {v0, v1}
    assert dirichlet_inner(g, f, f, support=u) == pytest.approx(expect)

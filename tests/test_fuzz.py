"""Fuzzing of the graph and foliation parsers through the CLI entry point.

The property: any input file exits 0, or exits 2 with a JSON diagnostic
that names an error code. It never ends in a Python traceback. A
foliation that `dgff validate` accepts also runs the exact ladder to its
end: `dgff verify` exits 0 or 3, and no rung fails for an index out of
range or a missing prerequisite. `dgff hadamard` exits 0 on it and prints
its three residuals as strict JSON.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgff.cli import main
from dgff.fixtures import write_fixture_files

IDS = st.sampled_from(["a", "b", "c", "x", "", "a b", "!exterior", "#", "é"])
NUMBERS = st.one_of(st.floats(), st.integers(min_value=-10**30, max_value=10**30),
                    st.sampled_from([0, 1, 2.5, 1e-320, 1e308]))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, IDS, st.text(max_size=3))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                     st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)
EDGES = st.lists(st.one_of(
    st.fixed_dictionaries({"u": IDS, "v": IDS, "c": st.one_of(NUMBERS, JSON_VALUES)}),
    JSON_VALUES), max_size=5)
GRAPH_DOCS = st.one_of(
    st.fixed_dictionaries({"edges": EDGES}, optional={
        "vertices": st.one_of(st.lists(IDS, max_size=5), JSON_VALUES),
        "exterior": st.one_of(st.lists(IDS, max_size=3), JSON_VALUES)}),
    JSON_VALUES)
TOKENS = st.sampled_from(["a", "b", "c", "x", "!exterior", "#", "1", "0", "-1", "2.5",
                          "inf", "nan", "1e400", "1e-320", "abc", "\t", "a#b"])
EDGE_LISTS = st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=6).map("\n".join)
LAYERS = st.one_of(st.lists(st.lists(st.sampled_from(["v1", "v2", "v3", "v4", "v5", "zz"]),
                                     max_size=3), max_size=5), JSON_VALUES)
FOLIATION_DOCS = st.one_of(st.fixed_dictionaries({"layers": LAYERS}), JSON_VALUES)


@st.composite
def p5_partitions(draw):
    """The interior of p5 in some order, cut into consecutive layers: every
    vertex is covered once, and locality may or may not hold."""
    order = draw(st.permutations(["v1", "v2", "v3"]))
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1))))
    return {"layers": [order[i:j] for i, j in zip([0, *cuts], [*cuts, len(order)])]}


# Inputs that once ended in a traceback.
INVALID_UTF8 = b"\xff\xfe a b 1\n"
HUGE_INTEGER = ('{"exterior": ["x"], "edges": [{"u": "a", "v": "x", "c": 1'
                + "0" * 5000 + "}]}").encode()
BIG_INTEGER = ('{"exterior": ["x"], "edges": [{"u": "a", "v": "x", "c": 1'
               + "0" * 400 + "}]}").encode()
DEEP_NESTING = b"[" * 100_000 + b"]" * 100_000


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixture_files(d)
    (d / "exterior.edgelist").write_text("!exterior a b\na b 1\n")  # no interior
    return d


def run(name: str, data: bytes, *argv, exits=(0, 2)) -> tuple[int, str]:
    """Run the CLI on `data` written to a file called `name`; check the exit
    and return it with the output."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / name
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a).replace("{path}", str(path)) for a in argv])
    assert code in exits, (code, err.getvalue())
    if code == 2:
        assert isinstance(json.loads(err.getvalue())["error"]["code"], str)
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(GRAPH_DOCS)
def test_graph_json(doc):
    run("g.json", json.dumps(doc).encode(), "validate", "--graph", "{path}", "--roots", "a")


@settings(max_examples=150, deadline=None)
@given(EDGE_LISTS)
def test_graph_edge_list(text):
    run("g.edgelist", text.encode(), "validate", "--graph", "{path}", "--roots", "a")


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40))
@example(INVALID_UTF8)
@example(HUGE_INTEGER)
@example(BIG_INTEGER)
@example(DEEP_NESTING)
def test_graph_bytes(data):
    run("g.json", data, "validate", "--graph", "{path}")
    run("g.edgelist", data, "validate", "--graph", "{path}")


@settings(max_examples=150, deadline=None)
@given(FOLIATION_DOCS)
def test_foliation_json(fixture_dir, doc):
    run("f.json", json.dumps(doc).encode(), "validate", "--graph", fixture_dir / "p5.json",
        "--foliation", "{path}")


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=40))
@example(INVALID_UTF8)
@example(DEEP_NESTING)
@example(b'{"layers": [["v1"], ["v2"], ["v3"], ["v4"], ["v5"]]}')
def test_foliation_bytes(fixture_dir, data):
    run("f.json", data, "validate", "--graph", fixture_dir / "p5.json", "--foliation", "{path}")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["p5.json", "exterior.edgelist"]),
       st.one_of(FOLIATION_DOCS, p5_partitions()))
@example("exterior.edgelist", {"layers": []})
@example("p5.json", {"layers": [["v2"], ["v1", "v3"]]})
def test_foliation_past_validate(fixture_dir, graph, doc):
    argv = ("--graph", fixture_dir / graph, "--foliation", "{path}")
    data = json.dumps(doc).encode()
    if run("f.json", data, "validate", *argv)[0]:
        return
    code, out = run("f.json", data, "verify", *argv, "--trials", "0", exits=(0, 3))
    errors = {row.get("error") for row in json.loads(out)["checks"]}
    assert not errors & {"IndexOutOfRange", "PrerequisiteFailed"}, errors
    _, out = run("f.json", data, "hadamard", *argv, exits=(0,))
    doc = json.loads(out, parse_constant=_non_finite)
    assert {"identity_residual", "isometry_residual", "variation_residual"} <= set(doc)


def _non_finite(name: str):
    raise ValueError(f"{name} is not strict JSON")

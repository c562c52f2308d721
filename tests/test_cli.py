import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgff
from dgff import OperatorStack, cli, hadamard, verify
from dgff.cli import main
from dgff.fixtures import standard_fixture, write_fixture_files
from dgff.foliation import cluster
from dgff.linalg import write_matrix_csv
from dgff.verify import provenance, run_ladder

import dense_reference
from conftest import dense_growth

pytestmark = pytest.mark.usefixtures("fixture_dir")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module", name="fixture_dir")
def _fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixture_files(d)
    return d


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_matrix_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    cols = lines[0].split(",")[1:]
    rows, data = [], []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(parts[0])
        data.append([float(x) for x in parts[1:]])
    return rows, cols, np.array(data)


def test_validate_ok(fixture_dir, capsys):
    assert run_cli("validate", "--graph", fixture_dir / "p4.json", "--roots", "v1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["foliation"]["layers"] == [1, 1]


@pytest.mark.parametrize("layering", [("--roots", "v1"), ("--foliation", "p4_foliation.json")],
                         ids=("roots", "foliation"))
def test_validate_parses_the_graph_once(fixture_dir, monkeypatch, capsys, layering):
    calls = []
    load = cli.load_graph
    monkeypatch.setattr(cli, "load_graph", lambda path: calls.append(path) or load(path))
    flag, value = layering
    value = fixture_dir / value if flag == "--foliation" else value
    assert run_cli("validate", "--graph", fixture_dir / "p4.json", flag, value) == 0
    assert json.loads(capsys.readouterr().out)["foliation"]["layers"] == [1, 1]
    assert len(calls) == 1


def test_validate_edgelist_format(fixture_dir, capsys):
    assert run_cli("validate", "--graph", fixture_dir / "p4.edgelist") == 0


def test_missing_file_is_io_error(tmp_path, capsys):
    assert run_cli("validate", "--graph", tmp_path / "absent.json") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "IoError"


def test_bad_foliation_exit_code(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "bad_foliation.json"
    bad.write_text(json.dumps({"layers": [["v1"], ["v3"], ["v2"]]}))
    code = run_cli("validate", "--graph", fixture_dir / "p5.json", "--foliation", bad)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "LocalityViolation"


def test_foliate_emits_layers(fixture_dir, capsys):
    assert run_cli("foliate", "--graph", fixture_dir / "grid5.json", "--roots", "r2c2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["layers"][0] == ["r2c2"]
    assert len(doc["layers"]) == 3


def test_green_csv_roundtrip(fixture_dir, tmp_path):
    assert run_cli("green", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--cluster", "1", "--out", tmp_path) == 0
    rows, cols, m = read_matrix_csv(tmp_path / "green_1.csv")
    assert rows == cols == ["v1", "v2"]
    np.testing.assert_allclose(m, np.array([[2, 1], [1, 2]]) / 3, atol=1e-15)


def test_green_json_format(fixture_dir, capsys):
    assert run_cli("green", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--cluster", "0", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == ["v1"]
    assert doc["entries"][0][0] == pytest.approx(0.5, abs=1e-14)


def strict_json(path):
    """The JSON document at `path`, refusing NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


@pytest.mark.parametrize("name,roots", [("p4", "v1"), ("grid13", "r6c6")])
def test_json_matrices_are_named_json_and_match_the_csv(fixture_dir, tmp_path, name, roots):
    # the document is {"schema", "rows", "cols", "entries"}, as when it was
    # built whole; its entries equal the CSV's, whose %.17g round-trips
    stems = {"green": ["green_{n}"], "poisson": ["poisson_{n}"],
             "hadamard": ["growth_{n}", "growth_{n}_square", "growth_{n}_gram"]}
    n = standard_fixture(name)[1].depth
    for command in stems:
        for fmt in ("csv", "json"):
            assert run_cli(command, "--graph", fixture_dir / f"{name}.json", "--roots", roots,
                           "--format", fmt, "--out", tmp_path / fmt) == 0
    names = [stem.format(n=n) for stem in sum(stems.values(), [])]
    assert sorted(p.name for p in (tmp_path / "json").iterdir()) == sorted(
        f"{stem}.json" for stem in names)
    for stem in names:
        rows, cols, m = read_matrix_csv(tmp_path / "csv" / f"{stem}.csv")
        assert strict_json(tmp_path / "json" / f"{stem}.json") == {
            "schema": 1, "rows": rows, "cols": cols, "entries": m.tolist()}


def test_json_matrix_writes_non_finite_entries_as_null(tmp_path):
    path = tmp_path / "m.json"
    with open(path, "w") as fh:
        cli._write_matrix_json(fh, ["a", "b"], ["c", "d"],
                               np.array([[1.5, np.nan], [-np.inf, np.inf]]))
    assert strict_json(path) == {"schema": 1, "rows": ["a", "b"], "cols": ["c", "d"],
                                 "entries": [[1.5, None], [None, None]]}


def test_cli_import_starts_no_thread_pool_and_no_logging():
    # `dgff validate` pays for every import of the CLI: concurrent.futures
    # pulls in logging, about 5 ms on top of a 0.2 s command
    # and scipy is installed beside numpy but is not a dependency
    code = ("import sys, dgff, dgff.cli; print([m for m in "
            "('concurrent.futures', 'logging', 'scipy') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_poisson_csv(fixture_dir, tmp_path):
    assert run_cli("poisson", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--cluster", "1", "--out", tmp_path) == 0
    rows, cols, m = read_matrix_csv(tmp_path / "poisson_1.csv")
    assert rows == ["v1", "v2"] and cols == ["v2"]
    np.testing.assert_allclose(m.ravel(), [0.5, 1.0], atol=1e-15)


def test_green_and_poisson_match_the_dense_reference_on_grid13(fixture_dir, tmp_path):
    g, fol = standard_fixture("grid13")
    for n in range(fol.depth + 1):
        clu = cluster(fol, n)
        for command, ref in (("green", dense_reference.green(g, clu).normalized),
                             ("poisson", dense_reference.poisson(g, clu))):
            assert run_cli(command, "--graph", fixture_dir / "grid13.json", "--roots", "r6c6",
                           "--cluster", n, "--out", tmp_path) == 0
            rows, cols, m = read_matrix_csv(tmp_path / f"{command}_{n}.csv")
            assert rows == list(g.ids(clu.vertices))
            assert cols == list(g.ids(clu.vertices if command == "green" else clu.top_layer))
            assert np.abs(m - ref).max() <= 1e-12, (command, n)


def test_green_and_poisson_print_the_stacks_operators(fixture_dir, tmp_path):
    # the commands read the stack that `dgff verify` checks and `dgff sample`
    # grows from, so they print its G_n and P_n byte for byte
    g, fol = standard_fixture("grid13")
    stack = OperatorStack(g, fol)
    for n in range(fol.depth + 1):
        for command, m in (("green", stack.green(n).normalized), ("poisson", stack.poisson(n))):
            assert run_cli(command, "--graph", fixture_dir / "grid13.json", "--roots", "r6c6",
                           "--cluster", n, "--out", tmp_path) == 0
            clu = stack.cluster(n)
            cols = clu.vertices if command == "green" else clu.top_layer
            buf = io.StringIO()
            write_matrix_csv(buf, g.ids(clu.vertices), g.ids(cols), m)
            assert (tmp_path / f"{command}_{n}.csv").read_text() == buf.getvalue(), (command, n)


@pytest.mark.parametrize("command,n", [("green", 1), ("poisson", 2), ("hadamard", 2),
                                       ("sample", None)])
def test_singular_cluster_is_not_pd_without_a_traceback(tmp_path, capsys, command, n):
    # pi(b) rounds to c(a, b), so cluster 1 = {a, b} is singular, and every
    # level above it is built from its layer step. With c(a, b) = 5e300 the
    # Schur pivot rounds to a small positive number, not to zero
    for c in ("1e300", "5e300"):
        path = tmp_path / "singular.edgelist"
        path.write_text(f"!exterior e\na b {c}\nb c 1e-300\nc e 1\n")
        flags = ("--out", tmp_path / "out") if n is None else ("--cluster", n)
        assert run_cli(command, "--graph", path, "--roots", "a", *flags) == 2, c
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["code"] == "NotPD", c
        assert "Traceback" not in err


def test_hadamard_summary(fixture_dir, tmp_path, capsys):
    assert run_cli("hadamard", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--out", tmp_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"identity_residual", "isometry_residual", "variation_residual"}
    assert doc["identity_residual"] <= 1e-10
    assert (tmp_path / "growth_1.csv").exists()
    assert (tmp_path / "growth_1_gram.csv").exists()


def test_hadamard_forms_the_gram_once(fixture_dir, tmp_path, capsys, monkeypatch):
    # one pass over the edge rows gives the per-level readings; --out takes
    # one more for the Gram it writes, and writes Q_n from the kernels.
    # Without --out no Gram is formed
    calls, rows = [], hadamard.dirichlet_rows

    def counted(stack, n):
        calls.append(n)
        return rows(stack, n)

    for mod in (cli, hadamard, verify):
        monkeypatch.setattr(mod, "dirichlet_rows", counted)
    graph = fixture_dir / "grid5.json"
    assert run_cli("hadamard", "--graph", graph, "--roots", "r2c2", "--out", tmp_path) == 0
    assert calls == [2, 2]
    # the summary's reading bounds the residual of the Gram that was
    # written, which has the bits of the Gram route's layer blocks
    doc = json.loads(capsys.readouterr().out)
    _, _, written = read_matrix_csv(tmp_path / "growth_2_gram.csv")
    assert doc["isometry_residual"] >= np.abs(written - np.eye(len(written))).max()
    stack = OperatorStack(*standard_fixture("grid5"))
    for p, m, block in dense_reference.dirichlet_blocks(stack, 2):
        clu = stack.cluster(2)
        np.testing.assert_array_equal(written[clu.layer_slice(p), clu.layer_slice(m)], block)
    _, _, q = read_matrix_csv(tmp_path / "growth_2.csv")
    np.testing.assert_array_equal(q, dense_growth(stack, 2))
    calls.clear()
    assert run_cli("hadamard", "--graph", graph, "--roots", "r2c2") == 0
    assert calls == [2]
    assert json.loads(capsys.readouterr().out) == doc


def test_hadamard_variation_keeps_a_nan(fixture_dir, capsys, monkeypatch):
    # a NaN at the second of two levels: Python's max dropped it
    reading = cli.layer_variation
    monkeypatch.setattr(cli, "layer_variation",
                        lambda stack, m: np.nan if m == 2 else reading(stack, m))
    assert run_cli("hadamard", "--graph", fixture_dir / "grid5.json", "--roots", "r2c2") == 0
    out = capsys.readouterr().out
    assert "NaN" not in out  # strict JSON: the NaN is written as null
    doc = json.loads(out)
    assert doc["variation_residual"] is None
    assert doc["identity_residual"] is not None and doc["isometry_residual"] is not None


def test_sample_files_telescope(fixture_dir, tmp_path, capsys):
    out = tmp_path / "samples"
    assert run_cli("sample", "--graph", fixture_dir / "p5.json", "--roots", "v1",
                   "--seed", "7", "--n-samples", "3", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"schema", "stream_version", "provenance", "seed", "n_samples",
                             "levels", "files"}
    assert manifest["schema"] == 1 and manifest["stream_version"] == 2
    assert manifest["provenance"] == provenance()
    assert manifest["n_samples"] == 3
    for name in manifest["files"]:
        rows, cols, m = read_matrix_csv(out / name)
        levels = manifest["levels"]
        psi = m[:, :levels]
        inc = m[:, levels:]
        # increments sum back to the deepest field
        np.testing.assert_allclose(psi[:, 0] + inc.sum(axis=1), psi[:, -1], atol=1e-12)


def test_sample_rerun_byte_identical(fixture_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("sample", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                       "--seed", "3", "--n-samples", "2", "--out", out) == 0
    for name in ("manifest.json", "sample_000.csv", "sample_001.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_small(fixture_dir, tmp_path, capsys):
    code = run_cli("verify", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--seed", "42", "--trials", "4000", "--out", tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert set(doc) == {"schema", "stream_version", "provenance", "seed", "trials", "depth",
                        "tolerances", "checks", "pass"}
    prov = doc["provenance"]
    assert set(prov) == {"dgff", "numpy", "blas"}
    assert prov["dgff"] == dgff.__version__ and prov["numpy"] == np.__version__
    assert prov["blas"] is None or isinstance(prov["blas"], str)
    assert doc["schema"] == 1 and doc["stream_version"] == 2 and doc["pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names[0] == "green_inverse"
    assert "hadamard_identity" in names and "sweep_moments" in names
    # detailed statistical reports land next to the summary
    summary = {"schema", "max_abs_z", "entries", "trials", "seed"}
    cov = json.loads((tmp_path / "report_covariance.json").read_text())
    assert set(cov) == summary | {"empirical", "target"}
    assert cov["trials"] == 4000 and len(cov["empirical"]) == 2
    bro = json.loads((tmp_path / "report_brownian.json").read_text())
    assert set(bro) == summary | {"variance_targets", "pythagoras_residual",
                                  "targets_monotone"}
    assert len(bro["variance_targets"]) == 2
    swp = json.loads((tmp_path / "report_sweep.json").read_text())
    assert set(swp) == summary | {"n1", "n2", "identity_residual", "variance_targets"}
    assert swp["n1"] == 1 and swp["n2"] == 1


def _refuse(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def test_verify_reports_are_strict_json(fixture_dir, tmp_path, capsys, monkeypatch):
    # a NaN in the top kernel reaches every report; each writes it as null
    def tampered(g, fol, **kwargs):
        stack = OperatorStack(g, fol)
        bad = stack.kernel(fol.depth).copy()
        bad[0, 0] = np.nan
        stack._cache[("kernel", fol.depth)] = bad
        return run_ladder(g, fol, stack=stack, **kwargs)

    monkeypatch.setattr(cli, "run_ladder", tampered)
    assert run_cli("verify", "--graph", fixture_dir / "grid5.json", "--roots", "r2c2",
                   "--trials", "2000", "--out", tmp_path) == 3
    capsys.readouterr()
    docs = {name: json.loads((tmp_path / f"{name}.json").read_text(), parse_constant=_refuse)
            for name in ("verify", "report_covariance", "report_brownian", "report_sweep")}
    assert docs["report_covariance"]["max_abs_z"] is None
    assert docs["report_brownian"]["pythagoras_residual"] is None
    assert docs["report_sweep"]["identity_residual"] is None


def test_no_layers_exits_two_everywhere(tmp_path, capsys):
    graph = tmp_path / "exterior.edgelist"
    graph.write_text("!exterior a b\na b 1\n")
    fol = tmp_path / "empty.json"
    fol.write_text('{"layers": []}')
    for command in ("validate", "verify", "green", "poisson", "hadamard", "sample"):
        extra = ("--out", tmp_path / "out") if command == "sample" else ()
        assert run_cli(command, "--graph", graph, "--foliation", fol, *extra) == 2, command
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "EmptyLayer", command


def test_verify_needs_foliation_or_roots(fixture_dir, capsys):
    assert run_cli("verify", "--graph", fixture_dir / "p4.json") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "BadFormat"


@pytest.mark.parametrize("command", ["validate", "foliate", "green", "poisson", "hadamard",
                                     "sample", "verify"])
def test_empty_roots_or_foliation_is_an_error(fixture_dir, tmp_path, capsys, command):
    extra = () if command == "validate" else ("--out", tmp_path / "out")
    graph = fixture_dir / "p4.json"
    assert run_cli(command, "--graph", graph, "--roots", "", *extra) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "UnknownVertex"
    if command != "foliate":  # foliate takes --roots only
        assert run_cli(command, "--graph", graph, "--foliation", "", "--roots", "v1", *extra) == 1
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "IoError"
    assert not (tmp_path / "out").exists()


def test_verify_failing_checks_exit_three(fixture_dir, capsys):
    # an unattainable exact tolerance must surface as a failed run
    code = run_cli("verify", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--trials", "0", "--tol-exact", "1e-20")
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False


def _verify_report(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code = run_cli("verify", "--graph", path, "--roots", "a", "--trials", "1000")
    return code, json.loads(capsys.readouterr().out)


def test_verify_singular_laplacian_is_a_rung_error(tmp_path, capsys):
    # pi(b) rounds to c(a, b), so the two-vertex cluster is singular
    code, doc = _verify_report(tmp_path, capsys, "singular.edgelist",
                               "!exterior e\na b 1e300\nb e 1e-300\n")
    assert code == 3
    assert len(doc["checks"]) == 17
    assert doc["checks"][0]["name"] == "green_inverse"
    assert doc["checks"][0]["error"] == "NotPD"


def test_verify_underflowing_errors_finish_the_ladder(tmp_path, capsys):
    # every standard error underflows to 0; each rung still reports
    code, doc = _verify_report(tmp_path, capsys, "underflow.edgelist",
                               "!exterior e\na e 1e300\na b 1e300\nb e 1e300\n")
    assert code in (0, 3)
    assert len(doc["checks"]) == 17


P3_EDGES = [{"u": "a", "v": "b", "c": 1.0}, {"u": "b", "v": "x", "c": 1.0}]


def _bad_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("command", ["validate", "verify"])
@pytest.mark.parametrize("name,text", [
    ("inf.edgelist", "!exterior x\na b inf\nb x 1\n"),
    ("nan.edgelist", "!exterior x\na b nan\nb x 1\n"),
    ("overflow.json", '{"exterior": ["x"], "edges": [{"u": "a", "v": "b", "c": 1e400},'
                      ' {"u": "b", "v": "x", "c": 1}]}'),
    ("nan.json", '{"exterior": ["x"], "edges": [{"u": "a", "v": "b", "c": NaN},'
                 ' {"u": "b", "v": "x", "c": 1}]}'),
], ids=["inf_edgelist", "nan_edgelist", "overflow_json", "nan_json"])
def test_non_finite_conductance_is_invalid_input(tmp_path, capsys, command, name, text):
    path = _bad_graph(tmp_path, name, text)
    extra = ["--trials", "0"] if command == "verify" else []
    assert run_cli(command, "--graph", path, "--roots", "a", *extra) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "NonPositiveConductance"


@pytest.mark.parametrize("doc", [
    {"vertices": ["a", 7, "x"], "exterior": ["x"], "edges": P3_EDGES},
    {"exterior": ["x"], "edges": [{"u": 7, "v": "b", "c": 1.0}, P3_EDGES[1]]},
    {"exterior": ["x"], "edges": [{"u": ["a"], "v": "b", "c": 1.0}, P3_EDGES[1]]},
    {"exterior": [None], "edges": P3_EDGES},
    {"exterior": "x", "edges": P3_EDGES},
    {"vertices": 3, "exterior": ["x"], "edges": P3_EDGES},
], ids=["int_vertex", "int_endpoint", "list_endpoint", "null_exterior", "string_exterior",
        "number_vertices"])
def test_non_string_vertex_id_is_bad_format(tmp_path, capsys, doc):
    path = _bad_graph(tmp_path, "g.json", json.dumps(doc))
    assert run_cli("validate", "--graph", path) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "BadFormat"


@pytest.mark.parametrize("c", ["abc", None, [1.0], {"value": 1.0}])
def test_non_numeric_conductance_is_bad_format(tmp_path, capsys, c):
    doc = {"exterior": ["x"], "edges": [{"u": "a", "v": "b", "c": c}, P3_EDGES[1]]}
    path = _bad_graph(tmp_path, "g.json", json.dumps(doc))
    assert run_cli("validate", "--graph", path) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "BadFormat"


@pytest.mark.parametrize("layers", [5, [["v1"], "v2"], [[["v1"]], ["v2"]], [[1], [2]]],
                         ids=["number", "string_layer", "nested_list", "integer_ids"])
def test_malformed_foliation_layers_are_bad_format(fixture_dir, tmp_path, capsys, layers):
    path = _bad_graph(tmp_path, "fol.json", json.dumps({"layers": layers}))
    assert run_cli("validate", "--graph", fixture_dir / "p4.json", "--foliation", path) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "BadFormat"


def test_negative_sample_count_is_bad_format(fixture_dir, tmp_path, capsys):
    assert run_cli("sample", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--n-samples", "-1", "--out", tmp_path) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "BadFormat"


@pytest.mark.parametrize("flag,value", [("--tol-exact", "nan"), ("--tol-exact", "inf"),
                                        ("--z-max", "nan"), ("--z-max", "inf"),
                                        ("--z-max", "0")])
def test_non_finite_tolerance_is_bad_format(fixture_dir, capsys, flag, value):
    assert run_cli("verify", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--trials", "100", flag, value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "BadFormat"


def test_verify_rows_count_their_entries(fixture_dir, capsys):
    assert run_cli("verify", "--graph", fixture_dir / "p4.json", "--roots", "v1",
                   "--trials", "1000") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    stat = [r for r in doc["checks"] if r["kind"] == "statistical"]
    assert len(stat) == 6
    # p4: clusters of 1 and 2 vertices
    assert next(r for r in stat if r["name"] == "dgff_covariance")["entries"] == 1 + 4
    assert all(0 < r["false_alarm_bound"] <= 1 for r in stat)


@pytest.mark.parametrize("command, flag", [
    ("validate", "--format"), ("foliate", "--format"), ("sample", "--format"),
    ("verify", "--format"), ("validate", "--out"), ("foliate", "--foliation"),
])
def test_flag_the_subcommand_ignores_is_rejected(fixture_dir, tmp_path, capsys, command, flag):
    value = {"--format": "json", "--out": tmp_path,
             "--foliation": fixture_dir / "p4_foliation.json"}[flag]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--graph", fixture_dir / "p4.json", "--roots", "v1", flag, value)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _readme_examples():
    """The `dgff ...` command lines of the README, as argument lists."""
    return [line.split()[1:] for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("dgff ")]


def test_readme_shows_every_subcommand():
    assert [argv[0] for argv in _readme_examples()] == [
        "validate", "foliate", "green", "poisson", "hadamard", "sample", "verify"]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_readme_example_runs(tmp_path, monkeypatch, capsys, argv):
    # on the shipped fixtures, from a scratch working directory
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0

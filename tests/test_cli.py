"""CLI surface: parsing, outputs, exit codes, DOT export."""

import json

import pytest

from kgcert import model as M
from kgcert.cli import export_dot, main, parse_morphism, parse_vertex, UsageError
from kgcert.functors import Window
from kgcert.model import ArrowMorphism, IdentityMorphism, VertexId, ZERO


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- syntax ------------------------------------------------------------------


def test_parse_vertex_roundtrip():
    v = parse_vertex("Z:2:(-3,5)")
    assert v == VertexId("Z", 2, (-3, 5))
    assert parse_vertex(str(v)) == v


def test_parse_morphism_forms():
    a = parse_morphism("X:0:(0,1)->Z:0:(0,5)@1")
    assert isinstance(a, ArrowMorphism) and a.degree == 1
    assert parse_morphism(str(a)) == a
    i = parse_morphism("id@X:0:(0,1)")
    assert isinstance(i, IdentityMorphism)
    assert parse_morphism("zero") is ZERO


@pytest.mark.parametrize("bad", ["X:(0,1)", "W:0:(0,1)", "X:0:(0.5,1)", "X:0:0,1"])
def test_parse_vertex_rejects(bad):
    with pytest.raises(UsageError):
        parse_vertex(bad)


# -- subcommands ------------------------------------------------------------------


def test_model_command(capsys):
    code, out, _ = run(capsys, "model", "--r", "1", "--n", "2", "--m", "0")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "finite"
    assert data["vertices"] == [0, 1]
    assert data["relations"] == [["alpha_0", "alpha_1"]]


def test_hom_command(capsys):
    code, out, _ = run(
        capsys,
        "hom", "--r", "1", "--n", "2", "--m", "0",
        "--from", "X:0:(0,1)", "--to", "X:0:(0,1)",
    )
    assert code == 0
    assert json.loads(out) == ["id@X:0:(0,1)", "X:0:(0,1)->X:0:(0,1)@2"]


def test_hom_missing_flag_usage_error(capsys):
    code = main(["hom", "--r", "1", "--n", "2", "--m", "0", "--from", "X:0:(0,1)"])
    capsys.readouterr()
    assert code == 2


def test_hom_malformed_vertex_usage_error(capsys):
    code, _, err = run(
        capsys,
        "hom", "--r", "1", "--n", "2", "--m", "0",
        "--from", "X0(0,1)", "--to", "X:0:(0,1)",
    )
    assert code == 2 and "malformed" in err


def test_inadmissible_triple_usage_error(capsys):
    code, _, err = run(
        capsys, "model", "--r", "3", "--n", "2", "--m", "0"
    )
    assert code == 2 and "OmegaViolation" in err


def test_compose_command(capsys):
    code, out, _ = run(
        capsys,
        "compose", "--r", "1", "--n", "2", "--m", "0",
        "--f", "X:0:(0,1)->X:0:(0,2)@0", "--g", "X:0:(0,2)->Z:0:(0,5)@1",
    )
    assert code == 0
    assert json.loads(out) == "X:0:(0,1)->Z:0:(0,5)@1"


@pytest.mark.parametrize(
    "f,g",
    [
        # the degree-0 self arrow is excluded: the identity is id@X:0:(0,1)
        ("X:0:(0,1)->X:0:(0,1)@0", "X:0:(0,1)->X:0:(0,2)@0"),
        ("X:0:(0,1)->X:0:(0,2)@0", "X:0:(0,2)->X:0:(0,1)@0"),  # g points down
        ("id@Y:0:(0,1)", "zero"),  # Y:0:(0,1) is not a vertex
        ("X:0:(0,1)->X:0:(0,2)@0", "X:0:(0,2)->X:1:(0,5)@0"),  # orbit out of range
    ],
)
def test_compose_rejects_morphisms_not_in_model(capsys, f, g):
    code, out, err = run(
        capsys, "compose", "--r", "1", "--n", "2", "--m", "0", "--f", f, "--g", g
    )
    assert code == 2 and out == "" and err.startswith("error: ")


def test_compose_accepts_zero_and_identity(capsys):
    code, out, _ = run(
        capsys,
        "compose", "--r", "1", "--n", "2", "--m", "0",
        "--f", "id@X:0:(0,1)", "--g", "zero",
    )
    assert code == 0 and json.loads(out) == "zero"


@pytest.mark.parametrize("command", ["eval", "support", "inC0"])
@pytest.mark.parametrize(
    "gen", ["X:0:(0,1)->X:0:(0,1)@0", "id@Y:0:(0,1)", "X:0:(0,1)->X:0:(0,0)@0"]
)
def test_functor_file_rejects_morphisms_not_in_model(tmp_path, capsys, command, gen):
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"top": "X:0:(0,1)", "generators": [gen]}))
    extra = ["--at", "X:0:(0,1)"] if command == "eval" else []
    code, out, err = run(
        capsys, command, "--r", "1", "--n", "2", "--m", "0",
        "--functor", str(path), *extra,
    )
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "payload,names",
    [
        ([1, 2], "JSON object"),
        ({"top": 5}, "'top'"),
        ({"top": "X:0:(0,1)", "generators": [5]}, "'generators'"),
        ({"top": "X:0:(0,1)", "generators": "X:0:(0,1)->X:0:(0,2)@0"}, "'generators'"),
        ({"generators": []}, "'top'"),
    ],
    ids=["list", "int top", "int generator", "string generators", "no top"],
)
def test_functor_file_of_wrong_shape_usage_error(tmp_path, capsys, payload, names):
    """A functor file that is valid JSON of the wrong shape is a usage error
    naming the offending part, not a traceback."""
    path = tmp_path / "F.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(
        capsys, "inC0", "--r", "1", "--n", "2", "--m", "0", "--functor", str(path)
    )
    assert code == 2 and out == "" and err.startswith("error: ")
    assert names in err


def test_fan_command(capsys):
    code, out, _ = run(
        capsys, "fan", "--r", "1", "--n", "2", "--m", "0", "--vertex", "X:0:(0,1)"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 3
    assert data["entries"][0]["region"]["x"] == [0, 1]
    assert data["entries"][0]["excludes_src"] is True


def test_functor_commands(tmp_path, capsys):
    payload = {"top": "X:0:(0,1)", "generators": ["X:0:(0,1)->X:0:(0,2)@0", "zero"]}
    path = tmp_path / "F.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(
        capsys,
        "eval", "--r", "1", "--n", "2", "--m", "0",
        "--functor", str(path), "--at", "X:0:(0,3)",
    )
    assert code == 0 and json.loads(out) == 0
    code, out, _ = run(
        capsys,
        "eval", "--r", "1", "--n", "2", "--m", "0",
        "--functor", str(path), "--at", "X:0:(0,1)",
    )
    # the degree-2 endomorphism factors through (0,2): only the identity survives
    assert code == 0 and json.loads(out) == 1
    code, out, _ = run(
        capsys, "support", "--r", "1", "--n", "2", "--m", "0", "--functor", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["top"] == "X:0:(0,1)"
    assert {c["family"] for c in data["channels"]} == {"X", "Z"}
    # quotient by the y-shift image leaves two basis elements in total
    code, out, _ = run(
        capsys, "inC0", "--r", "1", "--n", "2", "--m", "0", "--functor", str(path)
    )
    assert code == 0 and json.loads(out) is True
    bare = tmp_path / "H.json"
    bare.write_text(json.dumps({"top": "X:0:(0,1)", "generators": []}))
    code, out, _ = run(
        capsys, "inC0", "--r", "1", "--n", "2", "--m", "0", "--functor", str(bare)
    )
    assert code == 0 and json.loads(out) is False


def test_ar_command(capsys):
    code, out, _ = run(
        capsys, "ar", "--r", "1", "--n", "2", "--m", "0", "--vertex", "X:0:(0,0)"
    )
    assert code == 0
    assert json.loads(out) == ["zero", "X:0:(0,0)->X:0:(0,1)@0"]


# -- DOT export ------------------------------------------------------------------


def test_export_dot_counts(t120):
    dot = export_dot(t120, Window(0, 2, 0, 2))
    nodes = [line for line in dot.splitlines() if "[label=" in line]
    by_family = {f: sum(1 for l in nodes if f'"{f}:' in l) for f in "XYZ"}
    assert by_family == {"X": 6, "Y": 1, "Z": 9}
    # node count agrees with direct vertex enumeration
    assert len(nodes) == len(M.vertices_in_box(t120, 0, 2, 0, 2))
    edges = [line for line in dot.splitlines() if "->" in line]
    for line in edges:
        assert line.strip().startswith('"')


def test_export_dot_single_point_window(t120):
    # only Z:(10,0) is a vertex there; its sink targets leave the window
    dot = export_dot(t120, Window(10, 10, 0, 0))
    nodes = [line for line in dot.splitlines() if "[label=" in line]
    assert len(nodes) == 1 and '"Z:0:(10,0)"' in nodes[0]
    assert "->" not in dot


def test_ar_export_command(tmp_path, capsys):
    out_path = tmp_path / "mesh.dot"
    code, out, _ = run(
        capsys,
        "ar-export", "--r", "1", "--n", "2", "--m", "0",
        "--window", "0", "2", "0", "2", "--dot", str(out_path),
    )
    assert code == 0
    assert out_path.read_text().startswith("digraph")


# -- certify ------------------------------------------------------------------


def test_certify_exit_code_on_failure(monkeypatch, capsys):
    """A failing verdict must surface as exit code 1."""
    import kgcert.cli as cli_mod

    class FakeCert:
        passed = False

        def to_json_text(self):
            return "{}"

    monkeypatch.setattr(cli_mod, "certify", lambda *a, **k: FakeCert())
    code = main(["certify", "--r", "1", "--n", "2", "--m", "0"])
    capsys.readouterr()
    assert code == 1


def test_certify_command_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "certify", "--r", "1", "--n", "1", "--m", "0",
        "--window", "-4", "4", "-4", "4", "--depth", "3",
        "--json", str(out_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["kg"] == 1 and data["verdict"] == "pass"
    disk = out_path.read_text().strip()
    assert json.dumps(json.loads(disk), indent=2, sort_keys=True) == disk
    assert json.loads(disk) == data


def test_certify_stats_leave_the_certificate_bytes_alone(tmp_path, capsys):
    argv = ["certify", "--r", "1", "--n", "2", "--m", "0", "--window", "-4", "4", "-4", "4",
            "--depth", "2", "--json", str(tmp_path / "plain.json")]
    code, plain_out, _ = run(capsys, *argv)
    assert code == 0
    argv[-1] = str(tmp_path / "with_stats.json")
    code, out, _ = run(capsys, *argv, "--stats", str(tmp_path / "stats.json"))
    assert code == 0 and out == plain_out
    assert (tmp_path / "with_stats.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    stats = json.loads((tmp_path / "stats.json").read_text())
    lemmas = [c["lemma"] for c in json.loads(out)["checks"]]
    assert [p["lemma"] for p in stats["phases"]] == lemmas[:-1]  # all but collapse_layers
    for p in stats["phases"]:
        assert p["items"] == sum(q["checked"] for q in p["processes"])
        assert all(q["seconds"] >= 0 for q in p["processes"])


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_certify_depth_below_one_usage_error(capsys, depth):
    for triple in (["1", "1", "0"], ["1", "2", "0"]):
        r, n, m = triple
        code, out, err = run(
            capsys,
            "certify", "--r", r, "--n", n, "--m", m,
            "--depth", depth, "--window", "-2", "2", "-2", "2",
        )
        assert code == 2 and out == ""
        assert "depth must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "ar-export"])
def test_degenerate_window_usage_error(capsys, command):
    code, out, err = run(
        capsys, command, "--r", "1", "--n", "1", "--m", "0", "--window", "1", "0", "0", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "degenerate window" in err

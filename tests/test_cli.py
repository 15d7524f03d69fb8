"""CLI surface: parsing, outputs, exit codes, DOT export."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import kgcert
from kgcert import model as M
from kgcert.certifier import certify
from kgcert.cli import export_dot, main, parse_morphism, parse_vertex, UsageError
from kgcert.functors import Window
from kgcert.model import ArrowMorphism, IdentityMorphism, VertexId, ZERO
from kgcert.presentation import validate_triple


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


# SHA-256 of the support command's output.  The order and shape of the
# pieces regions.subtract returns reach users here, so they must not drift.
SUPPORT_SHA256 = [
    ((2, 3, 0), "X:0:(0,1)", ["X:0:(0,1)->X:0:(1,3)@0", "X:0:(0,1)->Z:0:(0,4)@1"],
     "a94518ad7ed4c16ee6172c252500a7c3d9f8103693e2193c83950fd762730227"),
    ((2, 3, 0), "Y:0:(0,3)", ["Y:0:(0,3)->Z:0:(2,0)@1", "Y:0:(0,3)->Y:1:(-2,0)@2"],
     "db3e40b1f33cf478ca576fe3090cbac390db1f12af0764d2ddf84731c6fc1d47"),
    ((3, 4, 1), "Z:1:(0,0)",
     ["Z:1:(0,0)->Z:1:(2,1)@0", "Z:1:(0,0)->X:2:(-1,3)@1", "Z:1:(0,0)->Z:2:(-1,-2)@2"],
     "c31488553a7d86bbb871cc4525f9ed6195ec8d08e68853720a949101ab429c5e"),
]


@pytest.mark.parametrize("triple,top,gens,digest", SUPPORT_SHA256)
def test_support_command_bytes_are_pinned(tmp_path, capsys, triple, top, gens, digest):
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"top": top, "generators": gens}))
    r, n, m = map(str, triple)
    code, out, _ = run(capsys, "support", "--r", r, "--n", n, "--m", m, "--functor", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_certify_without_window_or_depth_uses_certifys_defaults(monkeypatch, capsys):
    """With no --window or --depth the command prints certify(t) at
    certify's own defaults; small defaults keep the test quick."""
    monkeypatch.setattr(certify, "__defaults__", (Window(-3, 3, -3, 3), 2))
    code, out, _ = run(capsys, "certify", "--r", "1", "--n", "2", "--m", "0")
    assert code == 0
    assert out == certify(validate_triple(1, 2, 0)).to_json_text() + "\n"


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
        assert set(p) == {"lemma", "items", "covers", "checked", "seconds"}
        assert 0 < p["checked"] == p["items"] <= p["covers"] and p["seconds"] >= 0
    assert set(stats["caches"]) == {"tower_memo", "step_memo", "finite1_memo", "engine_cubes", "sink_decisions"}


def test_certify_vacuous_window_exits_one(capsys):
    """No vertex lies in the window, so no phase gathers evidence."""
    code, out, _ = run(
        capsys,
        "certify", "--r", "1", "--n", "1", "--m", "0",
        "--window", "5", "6", "-6", "-5", "--depth", "1",
    )
    assert code == 1 and json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize("command,flag", [("certify", "--json"), ("certify", "--stats"), ("ar-export", "--dot")])
def test_unwritable_output_file_usage_error(tmp_path, capsys, command, flag):
    path = tmp_path / "missing" / "out"
    code, _, err = run(
        capsys,
        command, "--r", "1", "--n", "1", "--m", "0",
        "--window", "-2", "2", "-2", "2", flag, str(path),
    )
    assert code == 2
    assert err.startswith(f"error: cannot write {path}") and "Traceback" not in err


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


# -- pinned surface ------------------------------------------------------------------
#
# (argv, exit code, SHA-256 of stdout, start of stderr) for every subcommand and
# for the error paths of the parsers and the functor-file loader.  {F} is a
# functor file, {MISSING} a path that does not exist and {BAD} a file holding
# invalid JSON; they are filled in per run, in argv and in the stderr prefix.
T120 = ("--r", "1", "--n", "2", "--m", "0")
FUNCTOR = {"top": "X:0:(0,1)", "generators": ["X:0:(0,1)->X:0:(0,2)@0", "zero"]}
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
INVOCATIONS = {
    "model": (
        ["model", *T120],
        0, "a9a365b88af1434368a94ba90da58c0db991f02c4ebfdb9c0e4b71a92f048287", "",
    ),
    "hom": (
        ["hom", *T120, "--from", "X:0:(0,1)", "--to", "X:0:(0,1)"],
        0, "5a614d0410c57839d84dbb754441522414ea0cb752cf980916c02c96e342e170", "",
    ),
    "compose": (
        ["compose", *T120, "--f", "X:0:(0,1)->X:0:(0,2)@0", "--g", "X:0:(0,2)->Z:0:(0,5)@1"],
        0, "2985a0ed63b4f885f2149e07b6825038e670399efce7006784d116c987aef791", "",
    ),
    "fan": (
        ["fan", *T120, "--vertex", "Z:0:(0,5)"],
        0, "a7068a5f6a87e260aceaeb54c6979fe76dd5731ebd55ee032717d34198809f63", "",
    ),
    "eval": (
        ["eval", *T120, "--functor", "{F}", "--at", "X:0:(0,1)"],
        0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865", "",
    ),
    "support": (
        ["support", *T120, "--functor", "{F}"],
        0, "f2d0f30fe6193c627593b59f9261452f493df6fec8b192c978fd4dd8fede4dae", "",
    ),
    "inC0": (
        ["inC0", *T120, "--functor", "{F}"],
        0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74", "",
    ),
    "ar": (
        ["ar", *T120, "--vertex", "Z:0:(0,5)"],
        0, "648f58db0c5ebc8b84c1f34c1b01cca921a34d177b6a682bdd9771c3def45ce0", "",
    ),
    "ar-export-stdout": (
        ["ar-export", *T120, "--window", "0", "2", "0", "2"],
        0, "66ab0c2dc34107ec929449a407fc21017b7324f38b76dd2b823bb1b958248952", "",
    ),
    "certify": (
        ["certify", *T120, "--window", "-3", "3", "-3", "3", "--depth", "2"],
        0, "01d3e29cc6d1c5924e891850b9ab6c2e89ecbd82b7759472edf039d00fde3a6a", "",
    ),
    "certify-vacuous": (
        ["certify", "--r", "1", "--n", "1", "--m", "0", "--window", "5", "6", "-6", "-5", "--depth", "1"],
        1, "bb2e769fed84a302e35351f4388b9dd87e5d54d8e0f6285f7209ce71c07f4ada", "",
    ),
    "malformed-degree": (
        ["compose", *T120, "--f", "X:0:(0,1)->X:0:(0,2)@x", "--g", "zero"],
        2, EMPTY_SHA256, "error: malformed degree in morphism 'X:0:(0,1)->X:0:(0,2)@x'",
    ),
    "malformed-morphism": (
        ["compose", *T120, "--f", "X:0:(0,1)", "--g", "zero"],
        2, EMPTY_SHA256, "error: malformed morphism 'X:0:(0,1)'; expected SRC->DST@degree",
    ),
    "malformed-vertex": (
        ["ar", *T120, "--vertex", "X0(0,1)"],
        2, EMPTY_SHA256, "error: malformed vertex 'X0(0,1)'; expected e.g. X:0:(0,1)",
    ),
    "arrow-not-in-model": (
        ["compose", *T120, "--f", "X:0:(0,1)->X:0:(0,2)@0", "--g", "X:0:(0,2)->X:0:(0,1)@0"],
        2, EMPTY_SHA256, "error: no such arrow in the model: X:0:(0,2)->X:0:(0,1)@0",
    ),
    "missing-functor-file": (
        ["inC0", *T120, "--functor", "{MISSING}"],
        2, EMPTY_SHA256, "error: cannot read functor file {MISSING}: ",
    ),
    "invalid-json-functor-file": (
        ["support", *T120, "--functor", "{BAD}"],
        2, EMPTY_SHA256, "error: functor file {BAD} is not valid JSON: ",
    ),
    "inadmissible-triple": (
        ["model", "--r", "3", "--n", "2", "--m", "0"],
        2, EMPTY_SHA256, "error: OmegaViolation: ",
    ),
    "degenerate-window": (
        ["ar-export", *T120, "--window", "1", "0", "0", "0"],
        2, EMPTY_SHA256, "error: degenerate window",
    ),
    "missing-flag": (
        ["hom", *T120, "--from", "X:0:(0,1)"],
        2, EMPTY_SHA256, "usage: kgcert hom [-h]",
    ),
    "unknown-subcommand": (
        ["frobnicate", *T120],
        2, EMPTY_SHA256, "usage: kgcert [-h]",
    ),
}


@pytest.mark.parametrize("argv,code,digest,err_prefix", INVOCATIONS.values(), ids=INVOCATIONS.keys())
def test_invocation_is_pinned(tmp_path, capsys, argv, code, digest, err_prefix):
    (tmp_path / "F.json").write_text(json.dumps(FUNCTOR))
    (tmp_path / "bad.json").write_text("{top: X}")
    paths = {"{F}": tmp_path / "F.json", "{MISSING}": tmp_path / "absent.json", "{BAD}": tmp_path / "bad.json"}

    def fill(text):
        for key, path in paths.items():
            text = text.replace(key, str(path))
        return text

    got_code, out, err = run(capsys, *map(fill, argv))
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    assert err.startswith(fill(err_prefix)) and "Traceback" not in err


SUBCOMMANDS = ["model", "hom", "compose", "fan", "eval", "support", "inC0", "ar", "ar-export", "certify"]
USAGE_LINES = [
    "usage: kgcert model [-h] --r R --n N --m M",
    "usage: kgcert hom [-h] --r R --n N --m M --from SRC --to DST",
    "usage: kgcert compose [-h] --r R --n N --m M --f F --g G",
    "usage: kgcert fan [-h] --r R --n N --m M --vertex VERTEX",
    "usage: kgcert eval [-h] --r R --n N --m M --functor PATH --at AT",
    "usage: kgcert support [-h] --r R --n N --m M --functor PATH",
    "usage: kgcert inC0 [-h] --r R --n N --m M --functor PATH",
    "usage: kgcert ar [-h] --r R --n N --m M --vertex VERTEX",
    "usage: kgcert ar-export [-h] --r R --n N --m M --window X0 X1 Y0 Y1 [--dot PATH]",
    "usage: kgcert certify [-h] --r R --n N --m M [--window X0 X1 Y0 Y1] [--depth DEPTH] [--json PATH] "
    "[--stats PATH]",
]


@pytest.mark.parametrize("command,usage", zip(SUBCOMMANDS, USAGE_LINES), ids=SUBCOMMANDS)
def test_usage_line_is_pinned(monkeypatch, capsys, command, usage):
    """The first line of each subcommand's help, on a terminal wide enough
    that argparse does not wrap it."""
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and out.splitlines()[0] == usage


def test_module_entry_point_lists_every_subcommand():
    """`python -m kgcert.cli --help` runs main through the module's
    __main__ guard, the function the kgcert script calls, and lists the
    subcommands in order, once in the choices and once one per line."""
    src = os.path.dirname(os.path.dirname(kgcert.__file__))
    env = dict(os.environ, COLUMNS="200", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "kgcert.cli", "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "usage: kgcert [-h] {" + ",".join(SUBCOMMANDS) + "} ..."
    listed = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith("    ")]
    assert listed == SUBCOMMANDS

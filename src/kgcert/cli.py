"""Command-line interface.

One executable whose subcommands inspect the model, query hom spaces and
composites, evaluate functors and certify a triple.  Each subcommand is one
row of ``_COMMANDS``: its name, its help, its flags beside the ``--r/--n/--m``
that every row takes, and its handler.  All structured output is JSON on
stdout; the sink-mesh export emits DOT.

Exit codes: 0 on success (and a passing certificate), 1 when a requested
check fails, 2 on usage errors (bad flags, malformed vertex/morphism
syntax or an output file that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable, NamedTuple

from . import functors, model, regions
from .certifier import _CACHES, certify
from .errors import KgcertError
from .functors import FpFunctor, Subfunctor, Window
from .model import ArrowMorphism, IdentityMorphism, VertexId, ZERO
from .presentation import GentleTriple, quiver_to_json, validate_triple


class UsageError(Exception):
    pass


_VERTEX_RE = re.compile(r"^([XYZ]):(\d+):\((-?\d+),(-?\d+)\)$")


def parse_vertex(text: str) -> VertexId:
    m = _VERTEX_RE.match(text.strip())
    if not m:
        raise UsageError(
            f"malformed vertex {text!r}; expected e.g. X:0:(0,1)"
        )
    fam, orbit, a, b = m.groups()
    return VertexId(fam, int(orbit), (int(a), int(b)))


def parse_morphism(text: str):
    text = text.strip()
    if text == "zero":
        return ZERO
    if text.startswith("id@"):
        return IdentityMorphism(parse_vertex(text[3:]))
    if "->" in text and "@" in text:
        head, deg = text.rsplit("@", 1)
        src_txt, dst_txt = head.split("->", 1)
        try:
            degree = int(deg)
        except ValueError as exc:
            raise UsageError(f"malformed degree in morphism {text!r}") from exc
        return ArrowMorphism(parse_vertex(src_txt), parse_vertex(dst_txt), degree)
    raise UsageError(
        f"malformed morphism {text!r}; expected SRC->DST@degree, id@V or zero"
    )


def check_morphism(t: GentleTriple, k):
    """k when it is zero or a basis morphism of the model; else a UsageError,
    because a parsed arrow or identity need not exist in the model."""
    if isinstance(k, ArrowMorphism) and not model.arrow_exists(t, k.src, k.dst, k.degree):
        raise UsageError(f"no such arrow in the model: {k}")
    if isinstance(k, IdentityMorphism) and not model.vertex_valid(t, k.vertex):
        raise UsageError(f"not a vertex of the model: {k.vertex}")
    return k


def load_functor(path: str) -> FpFunctor:
    """The functor a JSON file presents, parsed only: ``functors`` checks it against the model."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read functor file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"functor file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"functor file {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"functor file {path} must hold a JSON object, got {type(data).__name__}")
    if "top" not in data:
        raise UsageError(f"functor file {path} is missing key 'top'")
    top, gens = data["top"], data.get("generators", [])
    if not isinstance(top, str):
        raise UsageError(f"functor file {path}: 'top' must be a string, got {type(top).__name__}")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise UsageError(f"functor file {path}: 'generators' must be a list of strings")
    top = parse_vertex(top)
    gens = tuple(parse_morphism(g) for g in gens)
    return FpFunctor(top, Subfunctor(top, gens))


def export_dot(t: GentleTriple, window: Window) -> str:
    """DOT digraph of the window's vertices and their in-window sink maps."""
    verts = model.vertices_in_box(t, *window.box)
    lines = ["digraph model {", '  node [shape=box, fontsize=10];']
    for v in verts:
        lines.append(f'  "{v}" [label="{v}"];')
    for v in verts:
        for f in model.ar_sink_maps(t, v):
            if isinstance(f, ArrowMorphism) and window.contains(f.dst.coord):
                lines.append(f'  "{v}" -> "{f.dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _window(box) -> Window:
    try:
        return Window(*box)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _channel_json(ch, **rest) -> dict:
    """A fan entry or support channel as JSON: its channel, then rest."""
    return {"family": ch.family, "orbit": ch.orbit, "degree": ch.degree, **rest}


def _compose(t: GentleTriple, args) -> str:
    f = check_morphism(t, parse_morphism(args.f))
    g = check_morphism(t, parse_morphism(args.g))
    return str(model.compose(t, g, f))


def _fan(t: GentleTriple, args) -> dict:
    v = parse_vertex(args.vertex)
    return {"vertex": str(v), "entries": [
        _channel_json(e, region=regions.region_to_json(e.region), excludes_src=e.excludes_src)
        for e in model.arrow_fan(t, v).entries
    ]}


def _support(t: GentleTriple, args) -> dict:
    F = load_functor(args.functor)
    return {"top": str(F.top), "channels": [
        _channel_json(ch, regions=[regions.region_to_json(r) for r in ch.regions])
        for ch in functors.support_channels(t, F)
    ]}


def _prints(answer, indent=None) -> Callable:
    """The handler that prints answer(t, args) as JSON and exits 0."""
    def run(t: GentleTriple, args) -> int:
        print(json.dumps(answer(t, args), indent=indent))
        return 0
    return run


def _ar_export(t: GentleTriple, args) -> int:
    dot = export_dot(t, _window(args.window))
    if args.dot:
        _write(args.dot, dot)
    else:
        sys.stdout.write(dot)
    return 0


def _certify(t: GentleTriple, args) -> int:
    given = {"window": _window(args.window) if args.window else None, "depth": args.depth}
    cert = certify(t, **{k: v for k, v in given.items() if v is not None})
    text = cert.to_json_text()
    print(text)
    if args.json:
        _write(args.json, text + "\n")
    if args.stats:
        _write(args.stats, json.dumps(cert.stats, indent=2) + "\n")
    return 0 if cert.passed else 1


class _Command(NamedTuple):
    name: str
    help: str
    flags: tuple  # (flag, add_argument keywords) pairs, after --r/--n/--m
    run: Callable  # (triple, parsed args) -> exit code


_REQUIRED = dict(required=True)
_PATH = dict(metavar="PATH")
_WINDOW = dict(type=int, nargs=4, metavar=("X0", "X1", "Y0", "Y1"), help="coordinate box [X0,X1] x [Y0,Y1]")
_FUNCTOR = ("--functor", dict(_PATH, required=True))

# The subcommands, in the order --help lists them.
_COMMANDS = (
    _Command("model", "print the bound quiver and mode", (),
             _prints(lambda t, a: quiver_to_json(t), indent=2)),
    _Command("hom", "basis of Hom(from, to)",
             (("--from", dict(_REQUIRED, dest="src")), ("--to", dict(_REQUIRED, dest="dst"))),
             _prints(lambda t, a: [
                 str(k) for k in model.hom_basis(t, parse_vertex(a.src), parse_vertex(a.dst))])),
    _Command("compose", "composite g o f of two basis morphisms", (("--f", _REQUIRED), ("--g", _REQUIRED)),
             _prints(_compose)),
    _Command("fan", "outgoing-arrow regions of a vertex", (("--vertex", _REQUIRED),),
             _prints(_fan, indent=2)),
    _Command("eval", "dimension of a functor at a vertex", (_FUNCTOR, ("--at", _REQUIRED)),
             _prints(lambda t, a: functors.eval_fp(t, load_functor(a.functor), parse_vertex(a.at)))),
    _Command("support", "symbolic support of a functor", (_FUNCTOR,),
             _prints(_support, indent=2)),
    _Command("inC0", "finite-total-dimension test for a functor", (_FUNCTOR,),
             _prints(lambda t, a: functors.is_in_c0(t, load_functor(a.functor)))),
    _Command("ar", "the two sink maps of a vertex", (("--vertex", _REQUIRED),),
             _prints(lambda t, a: [str(f) for f in model.ar_sink_maps(t, parse_vertex(a.vertex))])),
    _Command("ar-export", "DOT digraph of a window's sink mesh",
             (("--window", dict(_WINDOW, required=True)),
              ("--dot", dict(_PATH, help="write DOT here instead of stdout"))),
             _ar_export),
    _Command("certify", "replay the proofs and emit a certificate",
             (("--window", _WINDOW),
              ("--depth", dict(type=int, help="proof depth (certify's default when omitted)")),
              ("--json", dict(_PATH, help="also write the certificate here")),
              ("--stats", dict(_PATH, help="write run statistics here as JSON: per phase, the "
                               "representatives (one per translation class), the box items they cover, "
                               "the representatives checked and the seconds taken; the cache sizes "
                               f"{', '.join(_CACHES[:-1])} and {_CACHES[-1]}"))),
             _certify),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kgcert")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flag in ("--r", "--n", "--m"):
            p.add_argument(flag, type=int, required=True)
        for flag, keywords in cmd.flags:
            p.add_argument(flag, **keywords)
        p.set_defaults(run=cmd.run)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(validate_triple(args.r, args.n, args.m), args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KgcertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

One executable with subcommands for model inspection (``model``, ``fan``,
``ar``, ``ar-export``), hom-space queries (``hom``, ``compose``), functor
evaluation (``eval``, ``support``, ``inC0``) and certification (``certify``).
All structured output is JSON on stdout; ``ar-export`` emits DOT.

Exit codes: 0 on success (and a passing certificate), 1 when a requested
check fails, 2 on usage errors (bad flags or malformed vertex/morphism
syntax).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import functors, model, regions
from .certifier import certify
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


def load_functor(t: GentleTriple, path: str) -> FpFunctor:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read functor file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"functor file {path} is not valid JSON: {exc}") from exc
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
    gens = tuple(check_morphism(t, parse_morphism(g)) for g in gens)
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


def _window(box) -> Window:
    try:
        return Window(*box)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_triple_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)


def _add_window_flag(p: argparse.ArgumentParser, required=False) -> None:
    p.add_argument(
        "--window",
        type=int,
        nargs=4,
        metavar=("X0", "X1", "Y0", "Y1"),
        required=required,
        help="coordinate box [X0,X1] x [Y0,Y1]",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kgcert")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="print the bound quiver and mode")
    _add_triple_flags(p)

    p = sub.add_parser("hom", help="basis of Hom(from, to)")
    _add_triple_flags(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)

    p = sub.add_parser("compose", help="composite g o f of two basis morphisms")
    _add_triple_flags(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = sub.add_parser("fan", help="outgoing-arrow regions of a vertex")
    _add_triple_flags(p)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("eval", help="dimension of a functor at a vertex")
    _add_triple_flags(p)
    p.add_argument("--functor", required=True, metavar="PATH")
    p.add_argument("--at", required=True)

    p = sub.add_parser("support", help="symbolic support of a functor")
    _add_triple_flags(p)
    p.add_argument("--functor", required=True, metavar="PATH")

    p = sub.add_parser("inC0", help="finite-total-dimension test for a functor")
    _add_triple_flags(p)
    p.add_argument("--functor", required=True, metavar="PATH")

    p = sub.add_parser("ar", help="the two sink maps of a vertex")
    _add_triple_flags(p)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("ar-export", help="DOT digraph of a window's sink mesh")
    _add_triple_flags(p)
    _add_window_flag(p, required=True)
    p.add_argument("--dot", metavar="PATH", help="write DOT here instead of stdout")

    p = sub.add_parser("certify", help="replay the proofs and emit a certificate")
    _add_triple_flags(p)
    _add_window_flag(p)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--json", metavar="PATH", help="also write the certificate here")
    p.add_argument(
        "--stats",
        metavar="PATH",
        help="write run statistics here as JSON: per phase, the item count and, "
        "per process, the items checked and the seconds taken",
    )

    return ap


def _run(args) -> int:
    t = validate_triple(args.r, args.n, args.m)
    if args.command == "model":
        print(json.dumps(quiver_to_json(t), indent=2))
        return 0
    if args.command == "hom":
        u = parse_vertex(args.src)
        v = parse_vertex(args.dst)
        print(json.dumps([str(k) for k in model.hom_basis(t, u, v)]))
        return 0
    if args.command == "compose":
        f = check_morphism(t, parse_morphism(args.f))
        g = check_morphism(t, parse_morphism(args.g))
        print(json.dumps(str(model.compose(t, g, f))))
        return 0
    if args.command == "fan":
        v = parse_vertex(args.vertex)
        fan = model.arrow_fan(t, v)
        print(
            json.dumps(
                {
                    "vertex": str(v),
                    "entries": [
                        {
                            "family": e.family,
                            "orbit": e.orbit,
                            "degree": e.degree,
                            "region": regions.region_to_json(e.region),
                            "excludes_src": e.excludes_src,
                        }
                        for e in fan.entries
                    ],
                },
                indent=2,
            )
        )
        return 0
    if args.command == "eval":
        F = load_functor(t, args.functor)
        v = parse_vertex(args.at)
        print(json.dumps(functors.eval_fp(t, F, v)))
        return 0
    if args.command == "support":
        F = load_functor(t, args.functor)
        chans = functors.support_channels(t, F)
        print(
            json.dumps(
                {
                    "top": str(F.top),
                    "channels": [
                        {
                            "family": ch.family,
                            "orbit": ch.orbit,
                            "degree": ch.degree,
                            "regions": [
                                regions.region_to_json(r) for r in ch.regions
                            ],
                        }
                        for ch in chans
                    ],
                },
                indent=2,
            )
        )
        return 0
    if args.command == "inC0":
        F = load_functor(t, args.functor)
        print(json.dumps(functors.is_in_c0(t, F)))
        return 0
    if args.command == "ar":
        v = parse_vertex(args.vertex)
        m1, m2 = model.ar_sink_maps(t, v)
        print(json.dumps([str(m1), str(m2)]))
        return 0
    if args.command == "ar-export":
        win = _window(args.window)
        dot = export_dot(t, win)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(dot)
        else:
            sys.stdout.write(dot)
        return 0
    if args.command == "certify":
        win = _window(args.window) if args.window else Window(-8, 8, -8, 8)
        cert = certify(t, win, args.depth)
        text = cert.to_json_text()
        print(text)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        if args.stats:
            with open(args.stats, "w") as fh:
                fh.write(json.dumps(cert.stats, indent=2) + "\n")
        return 0 if cert.passed else 1
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KgcertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

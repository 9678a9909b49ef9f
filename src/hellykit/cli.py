"""Command-line front end.

Exit codes: 0 for clean runs and estimate-only reports, 1 when a checked
theorem-grade property is violated (that is a bug, not a measurement), 2 for
usage errors: bad arguments, unreadable or malformed input, disconnected
graphs and tripped guards, each reported as one line on stderr.  Reports are
deterministic given configuration and seed; stdout carries only the report.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from fractions import Fraction

from . import corpus as corpus_mod
from .derived import verify_derivation_theorems
from .gamma import (WINDOW_GUARD_DEFAULT, GammaConfig, GammaWindow,
                    certified_clauses, recommended_n)
from .graph_io import graph_to_json, load_graph, to_dot
from .graphs import QGParams, strict_int
from .groups import BALL_GUARD_DEFAULT, GroupSpec
from .helly import EXTREMAL_VERTEX_BOUND, analyze, hellyfication
from .quasiconvex import ENUM_CAP_DEFAULT, OrbitSpec, verify_section5
from .relwords import measure_bcp, measure_delta, measure_triangles, measure_zeta
from .reports import build_report, iterencode, validate_report

VIOLATION_EXIT = 1
USAGE_EXIT = 2


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces to the file `out` as they come, or joined to stdout,
    which cannot be taken back.  If encoding fails midway, a seekable file is
    cut back to empty, so it holds no partial report; the path is kept, as
    it may be /dev/stdout."""
    if not out:
        sys.stdout.write("".join(pieces))
        return
    with open(out, "w", encoding="utf-8") as fh:
        try:
            fh.writelines(pieces)
        except BaseException:
            if fh.seekable():
                fh.truncate(0)
            raise


def _report(command: str, config: dict, result: dict, out: str | None) -> None:
    report = build_report(command, config, result)
    validate_report(report)  # before `out` is opened
    _emit(iterencode(report), out)


def _cmd_analyze(args) -> int:
    result = analyze(load_graph(args.graph), max_vertices=args.max_vertices)
    config = {"graph": args.graph, "max_vertices": args.max_vertices}
    _report("analyze", config, result, args.out)
    return 0


def _cmd_hellyfy(args) -> int:
    g = load_graph(args.graph)
    out_graph, embedding = hellyfication(g, max_vertices=args.max_vertices)
    record = graph_to_json(out_graph, meta={"source": args.graph})
    result = {"graph": record, "embedding": embedding, "helly": True,
              "isometric": True}
    config = {"graph": args.graph, "max_vertices": args.max_vertices}
    _report("hellyfy", config, result, args.out)
    print("helly: true", file=sys.stderr)
    return 0


def _cmd_group(args) -> int:
    spec = GroupSpec.load(args.spec)
    dist = spec.enumerate_ball(args.radius, metric=args.metric,
                               parabolic_cap=args.parabolic_cap,
                               max_elements=args.guard)
    by_radius = [0] * (args.radius + 1)
    for r in dist.values():
        by_radius[r] += 1
    result = {"count": len(dist), "by_radius": by_radius}
    if args.list_elements:
        result["elements"] = sorted(dist)
    config = {"spec": spec.to_json(), "radius": args.radius,
              "metric": args.metric, "parabolic_cap": args.parabolic_cap}
    _report("group-ball", config, result, args.out)
    return 0


def _window_sanity(window: GammaWindow) -> list[str]:
    """Degree and partition checks on every fully materialized vertex."""
    problems = []
    spec = window.config.spec
    expected_free = len(spec.x_letters()) + len(spec.factors)
    verts = window.verts
    for i, v in enumerate(verts):
        if window.dist_from_base[i] == window.radius:
            continue
        degree = len(window.adj[i])
        if v[0] == "free" and degree != expected_free:
            problems.append(f"free vertex degree {degree} != {expected_free}")
        if v[0] == "med" and degree != 2:
            problems.append(f"medial vertex degree {degree} != 2")
        if v[0] == "free":
            if any(verts[j][0] == "free" for j in window.adj[i]):
                problems.append("two adjacent free vertices")
    return problems


def _cmd_gamma(args) -> int:
    spec = GroupSpec.load(args.group)
    window = GammaWindow(GammaConfig(spec, args.n_thick), args.radius,
                         max_vertices=args.guard)
    problems = _window_sanity(window)
    result = window.to_json()
    result["kind_counts"] = window.kind_counts()
    result["min_n_short_cycles"] = result["recommended_n"] = recommended_n(spec)
    result["assumption_clauses"] = certified_clauses(spec, args.n_thick)
    result["sanity_problems"] = problems
    cfg = {"group": spec.to_json(), "N": args.n_thick, "radius": args.radius}
    _report("gamma-build", cfg, result, args.out)
    if args.dot:
        _emit(window.to_dot(), args.dot)
    if args.graph_out:
        g, _ = window.to_graph()
        record = graph_to_json(g, meta={"projected_from": "gamma-window"})
        _emit(iterencode(record), args.graph_out)
    return VIOLATION_EXIT if problems else 0


def _cmd_derive(args) -> int:
    spec = GroupSpec.load(args.group)
    window = GammaWindow(GammaConfig(spec, args.n_thick), args.radius,
                         max_vertices=args.guard)
    result = verify_derivation_theorems(window, args.samples, args.seed)
    cfg = {"group": spec.to_json(), "N": args.n_thick, "radius": args.radius,
           "samples": args.samples, "seed": args.seed}
    _report("derive", cfg, result, args.out)
    return VIOLATION_EXIT if result["violations"] else 0


def _cmd_measure(args) -> int:
    spec = GroupSpec.load(args.group)
    qg = QGParams(_fraction(args.lam, "--lambda"), _fraction(args.c, "--c"))
    lam, c = qg.lam, qg.c
    common = dict(samples=args.samples, seed=args.seed, radius=args.radius,
                  parabolic_cap=args.parabolic_cap)
    if args.what == "bcp":
        result = measure_bcp(spec, lam, c, args.k, **common)
    elif args.what in ("nu", "mu"):
        result = measure_triangles(spec, lam, c, **common)
    elif args.what == "delta":
        result = measure_delta(spec, **common)
    else:  # zeta; argparse allows no other choice
        result = measure_zeta(spec, lam, c, **common)
    cfg = {"group": spec.to_json(), "what": args.what, "samples": args.samples,
           "seed": args.seed, "radius": args.radius,
           "parabolic_cap": args.parabolic_cap, "lambda": str(lam), "c": str(c),
           "k": args.k}
    _report("measure", cfg, result, args.out)
    return 0


def _fraction(text: str, flag: str) -> Fraction:
    """text as a Fraction; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} {text!r} has a zero denominator") from None


def _read_orbit(path: str) -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return [strict_int(v, "an orbit vertex") for v in json.loads(text)]
    return [int(tok) for tok in text.split()]


def _cmd_quasiconvex(args) -> int:
    ambient = load_graph(args.ambient)
    orbit = _read_orbit(args.orbit)
    spec = OrbitSpec(ambient, tuple(sorted(set(orbit))), args.k)
    requested = QGParams(_fraction(args.lam, "--lambda"), _fraction(args.c, "--c"))
    result = verify_section5(spec, xi_ambient=args.xi, cap=args.cap,
                             instance=args.ambient, requested=requested)
    cfg = {"ambient": args.ambient, "orbit": sorted(set(orbit)), "k": args.k,
           "lambda": str(requested.lam), "c": str(requested.c), "cap": args.cap}
    _report("quasiconvex", cfg, result, args.out)
    return VIOLATION_EXIT if result["violations"] else 0


def _cmd_corpus(args) -> int:
    params: dict = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        params[key] = value
    if args.kind == "group-freeproduct":
        params["factors"] = (params.get("factors") or "").split(",")
    record, name = corpus_mod.generate(args.kind, params)
    out = args.out or name
    _emit(iterencode(record), out)
    print(out, file=sys.stderr)
    return 0


def _cmd_export_dot(args) -> int:
    _emit([to_dot(load_graph(args.graph))], args.out)
    return 0


SUBCOMMANDS = ("analyze", "hellyfy", "group", "gamma", "derive", "measure",
               "quasiconvex", "corpus", "dot")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.  Its usage line
    still lists every subcommand, so the parser of one gives the same help
    text and usage errors for it as the full parser."""
    parser = argparse.ArgumentParser(prog="hellykit")
    every = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)

    def add(name, help_line, func):
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            p.set_defaults(func=func)
            return p
        return None

    if p := add("analyze", "Helly-type report for a graph file", _cmd_analyze):
        p.add_argument("graph")
        p.add_argument("--max-vertices", type=int, default=EXTREMAL_VERTEX_BOUND,
                       help="bound on the extremal-function search, which "
                            "runs only on a non-Helly graph (for its witness and "
                            "xi); a Helly graph of any size is reported")
        p.add_argument("--out")

    if p := add("hellyfy", "minimal Helly graph containing the input",
                _cmd_hellyfy):
        p.add_argument("graph")
        p.add_argument("--max-vertices", type=int, default=EXTREMAL_VERTEX_BOUND,
                       help="bound on the extremal-function enumeration of "
                            "the input")
        p.add_argument("--out")

    if p := add("group", "group-model queries", _cmd_group):
        p.add_argument("action", choices=["ball"])
        p.add_argument("--spec", required=True)
        p.add_argument("--radius", type=int, required=True)
        p.add_argument("--metric", choices=["rel", "abs"], default="rel")
        p.add_argument("--parabolic-cap", type=int, default=2)
        p.add_argument("--guard", type=int, default=BALL_GUARD_DEFAULT)
        p.add_argument("--list-elements", action="store_true")
        p.add_argument("--out")

    if p := add("gamma", "build a finite window of the glued graph",
                _cmd_gamma):
        p.add_argument("action", choices=["build"])
        p.add_argument("--group", required=True)
        p.add_argument("--N", dest="n_thick", type=int, required=True)
        p.add_argument("--radius", type=int, required=True)
        p.add_argument("--guard", type=int, default=WINDOW_GUARD_DEFAULT)
        p.add_argument("--dot")
        p.add_argument("--graph-out", dest="graph_out",
                       help="also write the window projected to a plain graph")
        p.add_argument("--out")

    if p := add("derive", "derived-word checks over window geodesics",
                _cmd_derive):
        p.add_argument("--group", required=True)
        p.add_argument("--N", dest="n_thick", type=int, required=True)
        p.add_argument("--radius", type=int, default=8)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--guard", type=int, default=WINDOW_GUARD_DEFAULT)
        p.add_argument("--out")

    if p := add("measure", "empirical relative-hyperbolicity constants",
                _cmd_measure):
        p.add_argument("--what", choices=["bcp", "nu", "mu", "delta", "zeta"],
                       required=True)
        p.add_argument("--group", required=True)
        p.add_argument("--radius", type=int, default=6)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lambda", dest="lam", default="2")
        p.add_argument("--c", default="1")
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--parabolic-cap", type=int, default=2)
        p.add_argument("--out")

    if p := add("quasiconvex", "orbit-subgraph lemma checks",
                _cmd_quasiconvex):
        p.add_argument("--ambient", required=True)
        p.add_argument("--orbit", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--lambda", dest="lam", default="1")
        p.add_argument("--c", default="0")
        p.add_argument("--xi", type=int, default=None)
        p.add_argument("--cap", type=int, default=ENUM_CAP_DEFAULT)
        p.add_argument("--out")

    if p := add("corpus", "generate corpus graph/group files", _cmd_corpus):
        p.add_argument("kind", choices=["cycle", "path", "tree-random",
                                        "king-grid", "complete",
                                        "group-freeproduct"])
        p.add_argument("--param", action="append",
                       help="key=value, e.g. n=6 or factors=cyclic:2,cyclic:3")
        p.add_argument("--out")

    if p := add("dot", "DOT export of a graph file", _cmd_export_dot):
        p.add_argument("graph")
        p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # one subparser costs a fraction of all nine, on every call
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:
        _fail(args, exc)
        return VIOLATION_EXIT
    except (ValueError, OSError) as exc:  # input, parse and guard errors
        _fail(args, exc)
        return USAGE_EXIT


def _fail(args, exc: BaseException) -> None:
    message = " ".join(str(exc).split())
    print(f"hellykit {args.command}: {type(exc).__name__}: {message}",
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

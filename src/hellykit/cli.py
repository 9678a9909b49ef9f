"""Command-line front end.

Exit codes: 0 for clean runs and estimate-only reports, 1 when a checked
theorem-grade property is violated (that is a bug, not a measurement), 2 for
usage errors: bad arguments, unreadable or malformed input, disconnected
graphs and tripped guards, each reported as one line on stderr,
`hellykit <cmd>: <Class>: <message>`, where a refused command line is a
UsageError.  `parse` reads the command line as argparse did: `--flag value`,
`--flag=value` or a unique prefix of a long flag, options and positionals in
any order, a repeated flag's last value (--param keeps them all), negative
numbers as values, only positionals after `--`, and -h/--help anywhere.
Reports are deterministic given configuration and seed; stdout carries only
the report.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from types import SimpleNamespace

from . import corpus as corpus_mod
from .derived import verify_derivation_theorems
from .gamma import (WINDOW_GUARD_DEFAULT, GammaBall, GammaConfig, GammaWindow,
                    certified_clauses, recommended_n)
from .graph_io import graph_to_json, load_graph, to_dot
from .graphs import read_json, strict_int
from .groups import BALL_GUARD_DEFAULT, GroupSpec
from .helly import EXTREMAL_VERTEX_BOUND, analyze, hellyfication
from .quasiconvex import ENUM_CAP_DEFAULT, OrbitSpec, QGParams, verify_section5
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
        result["elements"] = list(dist)  # in increasing order
    config = {"spec": spec.to_json(), "radius": args.radius,
              "metric": args.metric, "parabolic_cap": args.parabolic_cap}
    _report("group-ball", config, result, args.out)
    return 0


def _window_sanity(window: GammaWindow) -> list[str]:
    """Degree and partition checks on every fully materialized vertex."""
    problems = []
    spec = window.config.spec
    expected_free = len(spec.x_letters()) + len(spec.factors)
    verts, starts, nbrs = window.verts, window.adj.starts, window.adj.nbrs
    for i, v in enumerate(verts):
        if window.dist_from_base[i] == window.radius:
            continue
        degree = starts[i + 1] - starts[i]
        if v[0] == "free" and degree != expected_free:
            problems.append(f"free vertex degree {degree} != {expected_free}")
        if v[0] == "med" and degree != 2:
            problems.append(f"medial vertex degree {degree} != 2")
        if v[0] == "free":
            if any(verts[j][0] == "free" for j in nbrs[starts[i]:starts[i + 1]]):
                problems.append("two adjacent free vertices")
    return problems


def _cmd_gamma(args) -> int:
    spec = GroupSpec.load(args.group)
    window = GammaWindow(GammaConfig(spec, args.n_thick), args.radius,
                         max_vertices=args.guard)
    problems = _window_sanity(window)
    result = window.to_json()
    result["kind_counts"] = window.kind_counts()
    result["recommended_n"] = recommended_n(spec)
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
    ball = GammaBall(GammaConfig(spec, args.n_thick), args.radius, max_free=args.guard)
    result = verify_derivation_theorems(ball, args.samples, args.seed)
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
    else:  # zeta; the table allows no other choice
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
    if text.lstrip().startswith("["):
        return [strict_int(v, "an orbit vertex") for v in read_json(text)]
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
    if args.xi is not None:  # the claim replaces the computed xi in the result
        cfg["xi"] = args.xi
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


REQUIRED = ...  # the default of an argument that must be given
# Each subcommand's handler, help line, least flag values and arguments.  An
# argument is name: (type, default[, help]): the type is int, str, a tuple of
# str choices, bool for a switch or list for a flag whose values are kept.  A
# name without dashes is a positional; a flag's dest is its name without
# dashes, - read as _, unless DESTS names it.
SUBCOMMANDS = {
    "analyze": (_cmd_analyze, "Helly-type report for a graph file",
                {"--max-vertices": 1}, {"graph": (str, REQUIRED), "--max-vertices": (
                    int, EXTREMAL_VERTEX_BOUND, "bound on the extremal-function "
                    "search, which runs only on a non-Helly graph")}),
    "hellyfy": (_cmd_hellyfy, "minimal Helly graph containing the input",
                {"--max-vertices": 1}, {"graph": (str, REQUIRED), "--max-vertices": (
                    int, EXTREMAL_VERTEX_BOUND, "bound on the extremal-function "
                    "enumeration of the input")}),
    "group": (_cmd_group, "group-model queries", {"--guard": 1, "--parabolic-cap": 1}, {
        "action": (("ball",), REQUIRED), "--spec": (str, REQUIRED),
        "--radius": (int, REQUIRED), "--metric": (("rel", "abs"), "rel"),
        "--parabolic-cap": (int, 2), "--guard": (int, BALL_GUARD_DEFAULT),
        "--list-elements": (bool, False)}),
    "gamma": (_cmd_gamma, "build a finite window of the glued graph", {"--guard": 1}, {
        "action": (("build",), REQUIRED), "--group": (str, REQUIRED),
        "--N": (int, REQUIRED), "--radius": (int, REQUIRED),
        "--guard": (int, WINDOW_GUARD_DEFAULT), "--dot": (str, None), "--graph-out": (
            str, None, "also write the window projected to a plain graph")}),
    "derive": (_cmd_derive, "derived-word checks over sampled geodesics",
               {"--samples": 0, "--guard": 1}, {
        "--group": (str, REQUIRED), "--N": (int, REQUIRED), "--radius": (int, 8),
        "--samples": (int, 200), "--seed": (int, 0), "--guard": (
            int, WINDOW_GUARD_DEFAULT, "most free vertices the radius ball may hold")}),
    "measure": (_cmd_measure, "empirical relative-hyperbolicity constants",
                {"--samples": 0, "--radius": 0, "--k": 0, "--parabolic-cap": 1}, {
        "--what": (("bcp", "nu", "mu", "delta", "zeta"), REQUIRED),
        "--group": (str, REQUIRED), "--radius": (int, 6), "--samples": (int, 200),
        "--seed": (int, 0), "--lambda": (str, "2"), "--c": (str, "1"),
        "--k": (int, 1), "--parabolic-cap": (int, 2)}),
    "quasiconvex": (_cmd_quasiconvex, "orbit-subgraph lemma checks", {"--cap": 1}, {
        "--ambient": (str, REQUIRED), "--orbit": (str, REQUIRED),
        "--k": (int, REQUIRED), "--lambda": (str, "1"), "--c": (str, "0"),
        "--xi": (int, None), "--cap": (int, ENUM_CAP_DEFAULT)}),
    "corpus": (_cmd_corpus, "generate corpus graph/group files", {}, {"kind": ((
        "cycle", "path", "tree-random", "king-grid", "complete", "group-freeproduct"),
        REQUIRED), "--param": (list, None, "key=value, e.g. n=6 or "
                                           "factors=cyclic:2,cyclic:3")}),
    "dot": (_cmd_export_dot, "DOT export of a graph file", {}, {"graph": (str, REQUIRED)}),
}
COMMON = {"--out": (str, None, "the file to write")}  # every subcommand takes it
DESTS = {"--N": "n_thick", "--lambda": "lam"}
HELP = ("-h", "--help")


class UsageError(ValueError):
    """A command line that `parse` refuses."""


def _option(token: str, flags) -> list | None:
    """How argparse reads `token` against `flags`: None for a positional, else
    the (flag, explicit value or None) pairs it may be, [] for an unknown flag."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    head, eq, value = token.partition("=")
    value = value if eq else None
    if token in flags or eq and head in flags:
        return [(head, value)]
    hits = ([(f, value) for f in flags if f.startswith(head)] if token[1] == "-"
            else [(token[:2], token[2:])] if token[:2] in flags else [])
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         f"{', '.join(f for f, _ in hits)}")
    if not hits and (re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token):
        return None  # a negative number, or text with a space
    return hits


def _value(name: str, kind, text: str | None, command: str | None = None):
    """text read as the value of `name`; -h/--help prints help and exits 0."""
    if name in HELP and (text is None or name == "-h" and text and
                         not text.strip("h")):  # -hh is -h -h, as for any short flag
        print(usage(command))
        raise SystemExit(0)
    if kind is bool and text is not None:
        raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if kind not in (bool, str, list) and text not in kind:
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from "
                         f"{', '.join(map(repr, kind))})")
    return kind is bool or text


def parse(argv: list[str]) -> SimpleNamespace:
    """The command line, in the forms the module docstring lists; help
    exits 0, and a usage error writes its stderr line and exits 2."""
    command, extras = None, []
    try:
        for at, token in enumerate(argv):  # only -h/--help precede the command
            if (hits := _option(token, HELP)) is None:
                break
            if hits:
                _value(hits[0][0], bool, hits[0][1])
            extras.append(token)
        else:
            raise UsageError("the following arguments are required: command")
        command = _value("command", SUBCOMMANDS, argv[at])
        func, _, _, spec = SUBCOMMANDS[command]
        spec = {**spec, **COMMON}
        dests = {name: DESTS.get(name, name.lstrip("-").replace("-", "_"))
                 for name in spec}
        values = {dests[name]: arg[1] for name, arg in spec.items()
                  if arg[1] is not REQUIRED}
        pending, tokens = [name for name in spec if name[0] != "-"], argv[at + 1:]
        cut = tokens.index("--") if "--" in tokens else len(tokens)
        kinds = [_option(t, (*HELP, *spec)) if i < cut else None
                 for i, t in enumerate(tokens)]
        i = 0
        while i < len(tokens):
            if (hits := kinds[i]) is None and pending and i + (i == cut) < len(tokens):
                i += i == cut  # a positional takes a -- on either side of it
                name = pending.pop(0)
                values[name] = _value(name, spec[name][0], tokens[i])
                i += i + 1 == cut
            elif not hits:
                extras.append(tokens[i])
            else:
                flag, text = hits[0]
                kind = spec[flag][0] if flag in spec else bool  # -h, --help
                if kind is not bool and text is None:
                    i += 1
                    if i in (len(tokens), cut) or kinds[i] is not None:
                        raise UsageError(f"argument {flag}: expected one argument")
                    text = tokens[i]
                text, dest = _value(flag, kind, text, command), dests[flag]
                values[dest] = [*(values[dest] or []), text] if kind is list else text
            i += 1
        if missing := [name for name in spec if dests[name] not in values]:
            raise UsageError("the following arguments are required: "
                             + ", ".join(missing))
        if extras:
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    except UsageError as exc:
        _fail(command, exc)
        raise SystemExit(USAGE_EXIT) from None
    return SimpleNamespace(command=command, func=func, **values)


def usage(command: str | None = None) -> str:
    """The --help text of `command`, or of hellykit."""
    if command is None:
        return "usage: hellykit COMMAND [ARGUMENTS]\n" + "".join(
            f"\n  {name:<12} {entry[1]}" for name, entry in SUBCOMMANDS.items())
    _, text, floors, spec = SUBCOMMANDS[command]
    lines = [f"usage: hellykit {command} [ARGUMENTS]\n\n{text}\n"]
    for name, (kind, default, *note) in {**spec, **COMMON}.items():
        what = {int: "int", str: "text", bool: "switch", list: "repeatable"}.get(kind)
        facts = [what or " or ".join(kind), "required" if default is REQUIRED else
                 "" if default is None or kind is bool else f"default {default}",
                 f"at least {floors[name]}" if name in floors else "", *note]
        lines.append(f"  {name:<16} " + "; ".join(filter(None, facts)))
    return "\n".join(lines + ["  -h, --help       show this help and exit"])


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    try:
        for flag, floor in SUBCOMMANDS[args.command][2].items():
            if (value := getattr(args, flag[2:].replace("-", "_"))) < floor:
                raise ValueError(f"{flag} must be >= {floor}, got {value}")
        return args.func(args)
    except AssertionError as exc:
        _fail(args.command, exc)
        return VIOLATION_EXIT
    except (ValueError, OSError) as exc:  # input, parse and guard errors
        _fail(args.command, exc)
        return USAGE_EXIT


def _fail(command: str | None, exc: BaseException) -> None:
    message = " ".join(str(exc).split())
    print(f"hellykit{' ' + command if command else ''}: {type(exc).__name__}: "
          f"{message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

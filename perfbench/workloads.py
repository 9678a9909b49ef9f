"""Seeded inputs and op lists for the benchmark workloads.

Run as a script this is the benchmark's set-up step:

    python3 perfbench/workloads.py WORKLOAD SEED DIR

A fresh interpreter imports hellykit from the checkout's ``src/``, writes the
workload's input files into DIR and the op list to DIR/schedule.json.  An op
is the argv of one ``hellykit.cli.main`` call, without ``--out``.  The
schedule is a list of POOL passes; each pass is one full set of the
workload's ops on fresh seeded inputs, so that a run averages over more than
one draw of inputs.  The same seed gives byte-identical files.  run.py times this script in a subprocess,
so interpreter start and import cost count towards ``setup_s``.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# hellyfy inputs are kept when their hull (the number of extremal functions)
# falls in this range: large enough that the postcondition search dominates,
# small enough that one op stays well under a second.
HULL_RANGE = (25, 60)
HELLYFY_SEEDED = 4
DERIVES_PER_PASS = 2
POOL = 8
SETUP_TIMEOUT_S = 120


def import_hellykit():
    """Import hellykit from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "hellykit")):
        raise SystemExit(f"perfbench: no hellykit package under {SRC}")
    sys.path.insert(0, SRC)
    import hellykit
    if not os.path.abspath(hellykit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported hellykit from {hellykit.__file__}")
    return hellykit


def _cycle_with_chords(n: int, chords: int, rng: random.Random):
    from hellykit.graphs import Graph

    edges = [(i, (i + 1) % n) for i in range(n)]
    extra: list[tuple[int, int]] = []
    while len(extra) < chords:
        u, v = sorted(rng.sample(range(n), 2))
        if v - u in (1, n - 1) or (u, v) in extra:
            continue
        extra.append((u, v))
    return Graph(n, edges + extra)


def _king_lines(w: int, h: int) -> list[list[int]]:
    """Rows, columns and full-length diagonals of a w x h king grid."""
    def vid(x, y):
        return y * w + x
    lines = [[vid(x, y) for x in range(w)] for y in range(h)]
    lines += [[vid(x, y) for y in range(h)] for x in range(w)]
    m = min(w, h)
    for x0 in range(w - m + 1):
        lines.append([vid(x0 + i, i) for i in range(m)])
        lines.append([vid(x0 + i, h - 1 - i) for i in range(m)])
    return lines


class _Writer:
    def __init__(self, directory: str):
        self.directory = directory

    def json(self, name: str, obj) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return path

    def graph(self, name: str, g) -> str:
        from hellykit.graph_io import graph_to_json
        return self.json(name, graph_to_json(g))


def _helly_graphs(rng: random.Random, out: _Writer, p: int) -> list[list[str]]:
    from hellykit import corpus
    from hellykit.helly import extremal_functions

    ops = []
    for n in range(12, 17):
        for chords in (0, 1, 2):
            g = _cycle_with_chords(n, chords, rng)
            path = out.graph(f"p{p}_analyze_c{n}_k{chords}.json", g)
            ops.append(["analyze", path, "--max-vertices", "16"])
    for n in (8, 9):
        ops.append(["hellyfy", out.graph(f"hellyfy_c{n}.json", corpus.cycle(n))])
    kept = 0
    while kept < HELLYFY_SEEDED:
        g = _cycle_with_chords(rng.choice((10, 11)), rng.randint(1, 3), rng)
        if HULL_RANGE[0] <= len(extremal_functions(g)) <= HULL_RANGE[1]:
            ops.append(["hellyfy", out.graph(f"p{p}_hellyfy_{kept}.json", g)])
            kept += 1
    for w, h in ((3, 3), (4, 3)):
        ambient = out.graph(f"king{w}x{h}.json", corpus.king_grid(w, h))
        orbit = out.json(f"p{p}_orbit{w}x{h}.json", rng.choice(_king_lines(w, h)))
        ops.append(["quasiconvex", "--ambient", ambient, "--orbit", orbit,
                    "--k", "1"])
    return ops


def _glued_window(rng: random.Random, out: _Writer, p: int) -> list[list[str]]:
    from hellykit import corpus

    group = out.json("zsq_z2.json", corpus.group_zsq_z2().to_json())
    window = ["--group", group, "--N", "2", "--radius", "8"]
    ops = [["gamma", "build"] + window]
    for _ in range(DERIVES_PER_PASS):
        ops.append(["derive"] + window + ["--samples", "50",
                                          "--seed", str(rng.randrange(2 ** 31))])
    return ops


def _relative_words(rng: random.Random, out: _Writer, p: int) -> list[list[str]]:
    from hellykit import corpus

    z2z3 = out.json("z2_z3.json", corpus.group_z2_z3().to_json())
    z2z2 = out.json("z2_z2.json", corpus.group_z2_z2().to_json())
    zsq = out.json("zsq_z2.json", corpus.group_zsq_z2().to_json())
    ops = []
    for group in (z2z3, zsq):
        for what in ("bcp", "nu", "delta", "zeta"):
            ops.append(["measure", "--what", what, "--group", group,
                        "--radius", "6", "--samples", "200", "--lambda", "2",
                        "--c", "1", "--seed", str(rng.randrange(2 ** 31))])
    for group in (z2z3, z2z2):
        ops.append(["derive", "--group", group, "--N", "1", "--radius", "8",
                    "--samples", "200", "--seed", str(rng.randrange(2 ** 31))])
    return ops


# Why each workload exists, and which ROADMAP item it exercises or bypasses,
# is recorded in perfbench/README.md; keep the two in step.
GENERATORS = {
    "helly-graphs": _helly_graphs,
    "glued-window": _glued_window,
    "relative-words": _relative_words,
}
WORKLOADS = tuple(GENERATORS)


def write_inputs(workload: str, seed: int, directory: str
                 ) -> list[list[list[str]]]:
    """Write the workload's inputs for this seed; return and record its
    schedule, a list of passes of ops."""
    directory = os.path.abspath(directory)
    os.makedirs(directory, exist_ok=True)
    out = _Writer(directory)
    rng = random.Random(f"{workload}/{seed}")
    # input paths are made relative so that the same seed gives the same
    # schedule and report bytes wherever the checkout lives
    schedule = [[[os.path.relpath(a, ROOT) if a.startswith(directory) else a
                  for a in op] for op in GENERATORS[workload](rng, out, p)]
                for p in range(POOL)]
    out.json("schedule.json", schedule)
    return schedule


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in GENERATORS:
        print("usage: workloads.py {%s} SEED DIR" % ",".join(WORKLOADS),
              file=sys.stderr)
        return 2
    signal.alarm(SETUP_TIMEOUT_S)
    import_hellykit()
    write_inputs(argv[0], int(argv[1]), argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

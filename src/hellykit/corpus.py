"""Deterministic corpus generators: named graph families, seeded random
graphs, and the example free-product groups."""

from __future__ import annotations

import random

from .graphs import Graph, GraphError
from .groups import CyclicFactor, FreeAbelianFactor, GroupSpec


def _at_least_one(what: str, **sizes: int) -> None:
    for key, value in sizes.items():
        if value < 1:
            raise GraphError(f"{what} needs {key} >= 1, got {value}")


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid(w: int, h: int) -> Graph:
    _at_least_one("grid", w=w, h=h)
    def vid(x, y):
        return y * w + x
    edges = []
    for y in range(h):
        for x in range(w):
            if x + 1 < w:
                edges.append((vid(x, y), vid(x + 1, y)))
            if y + 1 < h:
                edges.append((vid(x, y), vid(x, y + 1)))
    return Graph(w * h, edges)


def king_grid(w: int, h: int) -> Graph:
    """w x h grid with orthogonal and diagonal moves; these are Helly."""
    _at_least_one("king_grid", w=w, h=h)
    def vid(x, y):
        return y * w + x
    edges = []
    for y in range(h):
        for x in range(w):
            for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
                x2, y2 = x + dx, y + dy
                if 0 <= x2 < w and 0 <= y2 < h:
                    edges.append((vid(x, y), vid(x2, y2)))
    return Graph(w * h, edges)


def wheel(rim: int) -> Graph:
    g = cycle(rim)
    edges = g.edges() + [(i, rim) for i in range(rim)]
    return Graph(rim + 1, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labelled tree from a random Pruefer sequence."""
    _at_least_one("random_tree", n=n)
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    import heapq
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_connected(n: int, extra_edges: int, seed: int) -> Graph:
    """Random tree plus `extra_edges` extra random edges."""
    rng = random.Random(seed)
    g = random_tree(n, rng.randrange(2 ** 30))
    edges = set(g.edges())
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in edges]
    rng.shuffle(non_edges)
    edges.update(non_edges[:extra_edges])
    return Graph(n, sorted(edges))


def standard_corpus() -> list[tuple[str, Graph]]:
    """The small-graph corpus the power-graph lemmas are checked on."""
    out: list[tuple[str, Graph]] = []
    for n in range(3, 9):
        out.append((f"C{n}", cycle(n)))
    for n in range(2, 9):
        out.append((f"P{n}", path(n)))
    for n in range(2, 6):
        out.append((f"K{n}", complete(n)))
    for leaves in (3, 4, 5):
        out.append((f"star{leaves}", star(leaves)))
    out.append(("king2x2", king_grid(2, 2)))
    out.append(("king3x3", king_grid(3, 3)))
    out.append(("king4x3", king_grid(4, 3)))
    out.append(("grid2x3", grid(2, 3)))
    out.append(("grid3x3", grid(3, 3)))
    out.append(("wheel5", wheel(5)))
    for i in range(4):
        out.append((f"tree9_{i}", random_tree(9, 1000 + i)))
    for i in range(6):
        out.append((f"rand8_{i}", random_connected(8, 3 + (i % 4), 2000 + i)))
    return out


# -- example groups ----------------------------------------------------------


def group_z2_z3() -> GroupSpec:
    return GroupSpec([CyclicFactor(2), CyclicFactor(3)])


def group_z2_z2() -> GroupSpec:
    return GroupSpec([CyclicFactor(2), CyclicFactor(2)])


def group_zsq_z2(style: str = "king") -> GroupSpec:
    return GroupSpec([FreeAbelianFactor(2, style), CyclicFactor(2)])


def free_product(factor_names: list[str], free_rank: int = 0) -> GroupSpec:
    """Parse factor descriptions like "cyclic:3" or "free_abelian:2:king"."""
    factors = []
    for name in factor_names:
        kind, *args = name.split(":")
        if kind == "cyclic" and len(args) == 1:
            factors.append(CyclicFactor(int(args[0])))
        elif kind == "free_abelian" and len(args) in (1, 2):
            factors.append(FreeAbelianFactor(int(args[0]), *args[1:]))
        else:
            raise ValueError(f"bad factor description {name!r}; expected "
                             "cyclic:ORDER or free_abelian:RANK[:STYLE]")
    return GroupSpec(factors, free_rank)


def generate(kind: str, params: dict) -> tuple[dict, str]:
    """CLI corpus entry point: returns (json record, suggested filename)."""
    from .graph_io import graph_to_json

    def need(key: str) -> int:
        if key not in params:
            raise ValueError(f"corpus {kind} needs the parameter {key}")
        value = int(params[key])
        _at_least_one(f"corpus {kind}", **{key: value})
        return value

    if kind == "cycle":
        n = need("n")
        return graph_to_json(cycle(n), meta={"kind": kind, "n": n}), f"cycle{n}.json"
    if kind == "path":
        n = need("n")
        return graph_to_json(path(n), meta={"kind": kind, "n": n}), f"path{n}.json"
    if kind == "complete":
        n = need("n")
        return graph_to_json(complete(n), meta={"kind": kind, "n": n}), f"complete{n}.json"
    if kind == "king-grid":
        w, h = need("w"), need("h")
        return (graph_to_json(king_grid(w, h), meta={"kind": kind, "w": w, "h": h}),
                f"king{w}x{h}.json")
    if kind == "tree-random":
        n, seed = need("n"), int(params.get("seed", 0))
        return (graph_to_json(random_tree(n, seed),
                              meta={"kind": kind, "n": n, "seed": seed}),
                f"tree{n}_s{seed}.json")
    if kind == "group-freeproduct":
        spec = free_product(params["factors"], int(params.get("free_rank", 0)))
        record = spec.to_json()
        record["meta"] = {"kind": kind, "factors": params["factors"],
                          "free_rank": int(params.get("free_rank", 0))}
        return record, "group.json"
    raise ValueError(f"unknown corpus kind {kind!r}")

"""Finite simple graphs with the hop metric, and the path machinery built on it.

Vertices are dense integers 0..n-1.  All set-valued results are returned as
sorted lists so that downstream reports are reproducible.  Graphs are immutable
after construction and safe to share between workers; every operation here is a
pure function of its inputs.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence

GEODESIC_CAP_DEFAULT = 100_000


class GraphError(ValueError):
    pass


class NotConnectedError(GraphError):
    pass


class GeodesicCapExceeded(GraphError):
    """Raised when more geodesics exist than the enumeration's cap."""


def strict_int(value, what: str, error: type = GraphError) -> int:
    """value if it is an int; anything else, a float or bool too, raises `error`."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def read_json(text: str, error: type = GraphError):
    """json.loads(text), with nesting past the parser's depth raising `error`."""
    try:
        return json.loads(text)
    except RecursionError:
        raise error("JSON nested too deeply to read") from None


def bfs_row(adj: Sequence[Sequence[int]], source: int) -> list[int]:
    """Hop distances from source over adjacency lists on 0..n-1, -1 where
    unreached."""
    row = [-1] * len(adj)
    row[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for z in frontier:
            for w in adj[z]:
                if row[w] < 0:
                    row[w] = level
                    nxt.append(w)
        frontier = nxt
    return row


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Loops are dropped and parallel edges collapsed at construction; the hop
    metric is unaffected by either.  Optional vertex labels are carried as
    opaque strings for export only.
    """

    __slots__ = ("n", "adj", "labels", "_dist")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[dict[int, str]] = None):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                continue
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in adj)
        self.labels = dict(labels) if labels else {}
        self._dist = None

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def is_connected(self) -> bool:
        return min(bfs_row(self.adj, 0)) >= 0

    def dist(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop distances; raises NotConnectedError on disconnected input."""
        if self._dist is None:
            rows = []
            for s in range(self.n):
                row = bfs_row(self.adj, s)
                if any(d < 0 for d in row):
                    raise NotConnectedError("graph not connected")
                rows.append(tuple(row))
            self._dist = tuple(rows)
        return self._dist

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


class _Memo(dict):
    """The values of fn by argument, each computed on its first read."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def power_graph(g: Graph, k: int) -> Graph:
    """Same vertices, edges between distinct vertices at distance <= k.

    Distances obey d_k(u,v) = ceil(d(u,v)/k).
    """
    if k < 1:
        raise GraphError("power requires k >= 1")
    if k == 1:
        return g
    d = g.dist()
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if d[u][v] <= k]
    return Graph(g.n, edges, labels=g.labels)


def full_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertex set, relabelled 0..|S|-1.

    Returns (subgraph, old->new map).  Raises if S is empty or the induced
    subgraph is disconnected: callers need a connected piece.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise GraphError("empty vertex set")
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u in vs for v in g.adj[u] if v in index and u < v]
    sub = Graph(len(vs), edges, labels={index[v]: g.labels[v] for v in vs if v in g.labels})
    if not sub.is_connected():
        raise NotConnectedError("induced subgraph not connected")
    return sub, index


def is_isometric_subgraph(sub: Graph, embedding: Sequence[int], sup: Graph
                          ) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check d_sub(u,v) == d_sup(phi u, phi v) for all pairs.

    The embedding must map edges to edges (distances can then only drop, so a
    failure witness always has d_sub > d_sup).  Returns (ok, witness pair),
    the first failing pair in order.  sup is searched by one BFS from each
    embedded vertex, never all-pairs.
    """
    if len(embedding) != sub.n:
        raise GraphError("embedding has wrong length")
    for u in range(sub.n):
        for v in sub.adj[u]:
            if u < v and embedding[v] not in sup.adj[embedding[u]]:
                raise GraphError(f"embedding does not preserve edge ({u},{v})")
    for u, row in enumerate(sub.dist()):
        dS = bfs_row(sup.adj, embedding[u])
        for v in range(u + 1, sub.n):
            if row[v] != dS[embedding[v]]:
                return False, (u, v)
    return True, None


# Metric-generic constants.  A metric is given by rows: row(x) returns the
# distance function y -> d(x, y).  For a group it is GroupSpec.x_row or
# GroupSpec.rel_row, which invert x once per row instead of once per pair.
# Each metric is symmetric, so one block of rows from a to b gives the
# distances both ways.

def _nearest(row, a: Sequence, b: Sequence) -> tuple[list[int], list[int]]:
    """For nonempty a and b: each x in a's distance to b, and each y in b's
    distance to a, from one block of rows, computing each d(x, y) once."""
    block = [list(map(row(x), b)) for x in a]
    return list(map(min, block)), list(map(min, zip(*block)))


def hausdorff(row, a: Sequence, b: Sequence) -> int:
    """Hausdorff distance of nonempty a and b: the larger of the two directed
    distances, max over x in a of min over y in b of d(x, y) and back."""
    to_b, to_a = _nearest(row, a, b)
    return max(max(to_b), max(to_a))


def thin_constant(row, p: Sequence, q: Sequence, r: Sequence) -> int:
    """Thin constant of the triangle p: a->b, q: b->c, r: c->a, given as
    vertex sequences: at each corner, the vertices of its two sides at equal
    distance from it are compared, up to that corner's Gromov product."""
    lp, lq, lr = len(p) - 1, len(q) - 1, len(r) - 1
    thin = 0
    for side1, l1, side2, l2, lopp in (
            (p, lp, r, lr, lq),   # corner a = p_- = r_+
            (q, lq, p, lp, lr),   # corner b = p_+ = q_-
            (r, lr, q, lq, lp)):  # corner c = q_+ = r_-
        for t in range((l1 + l2 - lopp) // 2 + 1):
            thin = max(thin, row(side1[t])(side2[l2 - t]))
    return thin


def slim_constant(row, p: Sequence, q: Sequence, r: Sequence) -> int:
    """Slim constant of a triangle: each side's directed Hausdorff distance
    to the union of the other two, from one block of rows per pair of sides."""
    p_q, q_p = _nearest(row, p, q)
    q_r, r_q = _nearest(row, q, r)
    r_p, p_r = _nearest(row, r, p)
    return max(max(map(min, p_q, p_r)), max(map(min, q_r, q_p)),
               max(map(min, r_p, r_q)))


# The geodesic distance DAG of u and v is read off one row, dv from v: a
# geodesic u -> v is a walk from u that lowers dv by one at each step.  The
# functions below read only adj[z] and dv[z] for z on the DAG, so adj and dv
# may be lists on 0..n-1, a bounded BFS row, or a Γ ball's memos by vertex.

def _down(adj, dv, z) -> list:
    """The DAG's edges out of z: its neighbours one step closer to v, in
    adjacency order."""
    return [w for w in adj[z] if dv[w] == dv[z] - 1]


def enumerate_geodesics(adj, dv, u, cap: int = GEODESIC_CAP_DEFAULT) -> list[tuple]:
    """All geodesics from u to v, the source of dv, as vertex tuples built
    one level at a time, ordered by each step's place in adjacency order.
    Never truncates: if more than `cap` geodesics exist, raises
    GeodesicCapExceeded (each partial path extends to one, so a level past
    `cap` shows it).  None if dv leaves u unreached."""
    paths = [(u,)] if dv[u] >= 0 else []
    for _ in range(dv[u]):
        paths = [p + (w,) for p in paths for w in _down(adj, dv, p[-1])]
        if len(paths) > cap:
            raise GeodesicCapExceeded(f"more than {cap} geodesics from {u}")
    return paths


def count_geodesics(adj, dv, u) -> int:
    """Number of geodesics from u to v, the source of dv, by dynamic
    programming forward from u, one level at a time: a vertex's count is the
    sum of its predecessors' counts; 0 if dv leaves u unreached."""
    count = {u: 1} if dv[u] >= 0 else {}
    for _ in range(dv[u]):
        below: dict = {}
        for z, c in count.items():
            for w in _down(adj, dv, z):
                below[w] = below.get(w, 0) + c
        count = below
    return sum(count.values())


def sample_geodesic(adj, dv, u, rng) -> list:
    """A geodesic from u to v, the source of dv: each step is drawn uniformly
    among the neighbours one step closer to v, listed in adjacency order."""
    path = [u]
    z = u
    while dv[z]:
        nxt = _down(adj, dv, z)
        z = nxt[rng.randrange(len(nxt))]
        path.append(z)
    return path

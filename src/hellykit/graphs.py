"""Finite simple graphs with the hop metric, and the path machinery built on it.

Vertices are dense integers 0..n-1.  All set-valued results are returned as
sorted lists so that downstream reports are reproducible.  Graphs are immutable
after construction and safe to share between workers; every operation here is a
pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

GEODESIC_CAP_DEFAULT = 100_000


class GraphError(ValueError):
    pass


class NotConnectedError(GraphError):
    pass


class GeodesicCapExceeded(GraphError):
    """Raised when geodesic enumeration would silently truncate."""


def strict_int(value, what: str, error: type = GraphError) -> int:
    """value if it is an int; anything else, a float or bool too, raises `error`."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def bfs_row(adj: Sequence[Sequence[int]], source: int,
            depth: Optional[int] = None, stop: Optional[int] = None) -> list[int]:
    """Hop distances from source over adjacency lists on 0..n-1, -1 where
    unreached.

    With depth, vertices farther than depth stay at -1.  With stop, the search
    ends once stop is labelled; every vertex nearer to source than stop is
    labelled by then, so the row is complete below d(source, stop).
    """
    row = [-1] * len(adj)
    row[source] = 0
    frontier = [source]
    level = 0
    while frontier and source != stop and (depth is None or level < depth):
        level += 1
        nxt = []
        for z in frontier:
            for w in adj[z]:
                if row[w] < 0:
                    row[w] = level
                    if w == stop:
                        return row
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

    def d(self, u: int, v: int) -> int:
        return self.dist()[u][v]

    def rows(self):
        """The hop metric in the row form the metric-generic constants below
        take: rows()(x) is the distance function y -> d(x, y)."""
        return [row.__getitem__ for row in self.dist()].__getitem__

    def eccentricity(self, v: int) -> int:
        return max(self.dist()[v])

    def diameter(self) -> int:
        return max(max(row) for row in self.dist())

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


@dataclass(frozen=True)
class QGParams:
    """Quasigeodesic parameters: stretch lam >= 1, additive c >= 0, optional
    window bound for local-geodesic checks."""

    lam: Fraction
    c: Fraction
    k_local: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if self.k_local is not None and self.k_local < 2:
            raise ValueError("k_local must be >= 2")


@dataclass(frozen=True)
class PathClass:
    is_geodesic: bool
    is_quasigeodesic: bool
    is_k_local_geodesic: Optional[bool]


def ball(g: Graph, center: int, rho: int) -> list[int]:
    """Vertices at hop distance <= rho from center, sorted."""
    if not 0 <= center < g.n:
        raise GraphError("center out of range")
    row = g.dist()[center]
    return [v for v in range(g.n) if row[v] <= rho]


def interval(g: Graph, u: int, v: int) -> list[int]:
    """All vertices on some geodesic between u and v (metric betweenness)."""
    d = g.dist()
    duv = d[u][v]
    return [z for z in range(g.n) if d[u][z] + d[z][v] == duv]


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


def _check_path(g: Graph, path: Sequence[int]) -> None:
    if not path:
        raise GraphError("empty vertex sequence is not a path")
    for v in path:
        if not 0 <= v < g.n:
            raise GraphError("path vertex out of range")
    for a, b in zip(path, path[1:]):
        if b not in g.adj[a]:
            raise GraphError(f"({a},{b}) is not an edge")


def classify_path(g: Graph, path: Sequence[int], q: QGParams) -> PathClass:
    """Geodesic / (lam,c)-quasigeodesic / k-local-geodesic classification.

    The quasigeodesic test is satisfies_quasigeodesic in the hop metric.
    """
    _check_path(g, path)
    d = g.dist()
    n = len(path) - 1
    is_geo = n == d[path[0]][path[n]]
    is_qg = satisfies_quasigeodesic(g.rows(), path, q.lam, q.c)
    local = None
    if q.k_local is not None:
        local = True
        for i in range(n + 1):
            for j in range(i + 1, min(i + q.k_local, n) + 1):
                if j - i != d[path[i]][path[j]]:
                    local = False
                    break
            if not local:
                break
    return PathClass(is_geo, is_qg, local)


# Metric-generic constants.  A metric is given by rows: row(x) returns the
# distance function y -> d(x, y).  For a graph that is Graph.rows(); for a group,
# GroupSpec.x_row or GroupSpec.rel_row, which invert x once per row instead of
# once per pair.

def directed_hausdorff(row, a: Sequence, b: Sequence) -> int:
    """max over x in a of min over y in b of d(x, y), for nonempty a and b."""
    return max(min(map(row(x), b)) for x in a)


def satisfies_quasigeodesic(row, seq: Sequence, lam, c) -> bool:
    """k - i <= lam * d(s_i, s_k) + c for every pair i < k of the sequence s,
    i.e. over all of its subpaths."""
    for i, x in enumerate(seq):
        dx = row(x)
        for k in range(i + 1, len(seq)):
            if k - i > lam * dx(seq[k]) + c:
                return False
    return True


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
    """Slim constant of a triangle: each side against the union of the other
    two."""
    return max(directed_hausdorff(row, p, (*q, *r)),
               directed_hausdorff(row, q, (*r, *p)),
               directed_hausdorff(row, r, (*p, *q)))


def hausdorff_distance(g: Graph, a: Iterable[int], b: Iterable[int]) -> int:
    sa, sb = sorted(set(a)), sorted(set(b))
    if not sa or not sb:
        raise GraphError("hausdorff distance needs nonempty sets")
    row = g.rows()
    return max(directed_hausdorff(row, sa, sb), directed_hausdorff(row, sb, sa))


# The geodesic distance DAG of a pair u, v is read off two single-source rows:
# du from u and dv from v (so u is the vertex at 0 in du).  Rows may leave
# vertices at -1 beyond d(u, v), as windows do; only the labels below d(u, v),
# and u's own, are read.

def enumerate_geodesics(adj: Sequence[Sequence[int]], du: Sequence[int],
                        dv: Sequence[int], cap: int = GEODESIC_CAP_DEFAULT,
                        allow_truncate: bool = False
                        ) -> tuple[list[tuple[int, ...]], bool]:
    """All geodesics u -> v as vertex tuples, lexicographically ordered.

    Refuses to truncate silently: if more than `cap` geodesics exist, raises
    GeodesicCapExceeded unless allow_truncate is set, in which case the first
    `cap` are returned with a truncation flag.
    """
    u, v = du.index(0), dv.index(0)
    out: list[tuple[int, ...]] = []
    truncated = False

    def walk(z: int, acc: list[int]) -> bool:
        if z == v:
            out.append(tuple(acc))
            return len(out) <= cap
        for w in adj[z]:
            if du[w] == du[z] + 1 and dv[w] == dv[z] - 1:
                acc.append(w)
                ok = walk(w, acc)
                acc.pop()
                if not ok:
                    return False
        return True

    completed = walk(u, [u])
    if not completed:
        if not allow_truncate:
            raise GeodesicCapExceeded(f"more than {cap} geodesics between {u} and {v}")
        truncated = True
        del out[cap:]
    return out, truncated


def count_geodesics(adj: Sequence[Sequence[int]], du: Sequence[int],
                    dv: Sequence[int]) -> int:
    """Number of geodesics u -> v by dynamic programming over the distance DAG."""
    u, v = du.index(0), dv.index(0)
    total = du[v]
    layer = sorted((z for z in range(len(adj)) if du[z] + dv[z] == total),
                   key=lambda z: du[z])
    count = {u: 1}
    for z in layer:
        if z == u:
            continue
        count[z] = sum(count.get(w, 0) for w in adj[z]
                       if du[w] == du[z] - 1 and dv[w] == dv[z] + 1)
    return count.get(v, 0)


def sample_geodesic(adj: Sequence[Sequence[int]], dv: Sequence[int], u: int,
                    rng) -> list[int]:
    """A geodesic from u to v, the source of dv: each step is drawn uniformly
    among the neighbours one step closer to v, listed in adjacency order."""
    path = [u]
    z = u
    while dv[z]:
        nxt = [w for w in adj[z] if dv[w] == dv[z] - 1]
        z = nxt[rng.randrange(len(nxt))]
        path.append(z)
    return path


@dataclass(frozen=True)
class ThinnessReport:
    delta_thin: int
    delta_slim: int
    triangles: int
    exhaustive: bool
    samples: int


def thinness_delta(g: Graph, max_exhaustive: int = 10, samples: int = 2000,
                   seed: int = 0, cap: int = GEODESIC_CAP_DEFAULT) -> ThinnessReport:
    """Max thin and slim constants over geodesic triangles.

    Exhaustive over all corner triples and all geodesic choices when
    n <= max_exhaustive; otherwise `samples` random triangles are drawn with a
    seeded generator and the report says so.
    """
    import random

    d = g.dist()
    row = g.rows()
    thin = slim = 0
    checked = 0
    if g.n <= max_exhaustive:
        geos: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for u in range(g.n):
            for v in range(g.n):
                geos[(u, v)], _ = enumerate_geodesics(g.adj, d[u], d[v], cap=cap)
        for a in range(g.n):
            for b in range(g.n):
                for c in range(g.n):
                    for p in geos[(a, b)]:
                        for q in geos[(b, c)]:
                            for r in geos[(c, a)]:
                                thin = max(thin, thin_constant(row, p, q, r))
                                slim = max(slim, slim_constant(row, p, q, r))
                                checked += 1
        return ThinnessReport(thin, slim, checked, True, 0)

    rng = random.Random(seed)
    for _ in range(samples):
        a, b, c = (rng.randrange(g.n) for _ in range(3))
        p = sample_geodesic(g.adj, d[b], a, rng)
        q = sample_geodesic(g.adj, d[c], b, rng)
        r = sample_geodesic(g.adj, d[a], c, rng)
        thin = max(thin, thin_constant(row, p, q, r))
        slim = max(slim, slim_constant(row, p, q, r))
        checked += 1
    return ThinnessReport(thin, slim, checked, False, samples)

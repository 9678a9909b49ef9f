"""Oracles over ball families, the full enumeration of extremal functions,
explicit geodesic lists and intervals, and one check per triangle, kept as the
independent references of the Helly decider, the searches, the
stable-interval constant and the clique-Helly test in `hellykit.helly`; and
the directed definitions behind the metric-generic Hausdorff, slim and
quasigeodesic checks of `hellykit.graphs` and `hellykit.relwords`; and the
kind of each edge of the glued graph, which `gamma build` does not report;
and the glued graph's window found by a BFS on the neighbour rule, the
reference of the window that `gamma build` reads off the closed form; and ξ
read off the Helly hull, a metric route to the coarse Helly constant that
shares no search code with it."""

from collections import deque
from operator import sub

from hellykit.gamma import GammaWindow, _GammaRegion
from hellykit.graphs import enumerate_geodesics
from hellykit.helly import (SizeBoundExceeded, _bits, _closed_neighbourhoods,
                            hellyfication)

ORACLE_VERTEX_BOUND = 8

# the kind of an edge of the glued graph by the kinds of its two endpoints,
# in either order; no other pair of kinds is ever adjacent
EDGE_KINDS = {("free", "med"): "free", ("med", "free"): "free",
              ("free", "int"): "connecting", ("int", "free"): "connecting",
              ("int", "int"): "internal"}


def parent_window(config, radius):
    """The window as a queue BFS on tuple vertices finds it, then one sort:
    a GammaWindow whose verts, index, adj and dist_from_base come from
    config.neighbors alone, with the window's certified queries on them."""
    base = config.base_vertex()
    dist, adj = {base: 0}, {base: set()}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in config.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                adj[w] = set()
                queue.append(w)
            adj[v].add(w)
            adj[w].add(v)
    w = object.__new__(GammaWindow)
    _GammaRegion.__init__(w, config, radius)
    w.verts = sorted(dist)
    w.index = {v: i for i, v in enumerate(w.verts)}
    w.adj = tuple(tuple(sorted(w.index[u] for u in adj[v])) for v in w.verts)
    w.dist_from_base = [dist[v] for v in w.verts]
    return w


# Metrics are given by rows, as in `hellykit.graphs`: row(x) is y -> d(x, y).

def directed_hausdorff(row, a, b):
    """max over x in a of min over y in b of d(x, y), for nonempty a and b."""
    return max(min(map(row(x), b)) for x in a)


def satisfies_quasigeodesic(row, seq, lam, c):
    """k - i <= lam * d(s_i, s_k) + c for every pair i < k of the sequence s,
    i.e. over all of its subpaths."""
    for i, x in enumerate(seq):
        dx = row(x)
        for k in range(i + 1, len(seq)):
            if k - i > lam * dx(seq[k]) + c:
                return False
    return True


def helly_oracle_bruteforce(g, max_vertices=ORACLE_VERTEX_BOUND):
    """Independent brute-force Helly test for cross-validation.

    Enumerates ball families directly: each vertex is either not a center or a
    center with radius below its eccentricity (a ball covering everything never
    witnesses a failure), keeping only pairwise-feasible choices.  Shrinking
    any one radius of a pairwise-feasible empty-intersection family keeps both
    properties, so only families in which every positive radius is tight
    against some partner need checking.  Returns False iff such a family with
    empty intersection exists.
    """
    if g.n > max_vertices:
        raise SizeBoundExceeded(f"brute-force Helly oracle is bounded to "
                                f"{max_vertices} vertices (got {g.n})")
    n = g.n
    d = g.dist()
    ecc = [max(row) for row in d]
    suffix_max = [[0] * n for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for v in range(n):
            suffix_max[i][v] = max(suffix_max[i + 1][v], d[i][v])

    chosen = []

    def candidates_ok():
        return any(all(d[x][s] <= r for s, r in chosen) for x in range(n))

    def minimal():
        for s, r in chosen:
            if r > 0 and all(r + r2 > d[s][s2] for s2, r2 in chosen if s2 != s):
                return False
        return True

    def dfs(i):
        """True while no counterexample found."""
        if i == n:
            if len(chosen) >= 2 and minimal() and not candidates_ok():
                return False
            return True
        # tightness hope: a positive radius with no partner yet must still be
        # matchable by a future center
        for s, r in chosen:
            if r > 0 and all(r + r2 > d[s][s2] for s2, r2 in chosen if s2 != s):
                if suffix_max[i][s] < r:
                    return True
        if not dfs(i + 1):  # vertex i not a center
            return False
        for r in range(0, max(ecc[i], 1)):
            if all(r + r2 >= d[i][s2] for s2, r2 in chosen):
                chosen.append((i, r))
                ok = dfs(i + 1)
                chosen.pop()
                if not ok:
                    return False
        return True

    return dfs(0)


def _witness(g, fs):
    """The first extremal function that is not a distance row, as the ball
    family centred on every vertex; None when there is none, i.e. when the
    graph is Helly."""
    rows = set(g.dist())
    for f in fs:
        if f not in rows:
            return tuple(enumerate(f))
    return None


def _xi(g, fs):
    """max over f of max(0, min_x max_v d(x,v) - f(v)).  A row x with
    max_v d(x,v) - f(v) <= xi so far shows that f cannot raise xi, so the
    scan of f stops there."""
    d = g.dist()
    xi = 0
    for f in fs:
        need = None
        for row in d:
            m = max(map(sub, row, f))
            if m <= xi:
                break
            if need is None or m < need:
                need = m
        else:
            xi = need  # every row exceeded xi >= 0, so need does too
    return xi


def hull_depth(g):
    """The hop distance from the image of g to the farthest vertex of its
    Helly hull, by one BFS from every embedded vertex at once.

    For an extremal f and a vertex x, sup_v |f(v) - d(x, v)| = f(x), and the
    hull (the injective hull; Lang, J. Topol. Anal. 2013) carries that sup
    metric as its graph metric; so the depth is max over f of min_x f(x),
    the coarse Helly constant ξ."""
    hull, embedding = hellyfication(g, max_vertices=g.n)
    seen = frontier = set(embedding)
    depth = 0
    while True:
        frontier = {w for z in frontier for w in hull.adj[z]} - seen
        if not frontier:
            return depth
        seen = seen | frontier
        depth += 1


def stable_interval_oracle(g, cap=100_000):
    """Cross-check of stable_interval_constant by explicit geodesic enumeration."""
    d = g.dist()
    best = 1
    for a in range(g.n):
        for u in g.adj[a]:
            for b in range(g.n):
                paths_ab = enumerate_geodesics(g.adj, d[b], a, cap=cap)
                paths_ub = enumerate_geodesics(g.adj, d[b], u, cap=cap)
                for p in paths_ab:
                    for w in p:
                        reach = min(min(d[w][z] for z in q) for q in paths_ub)
                        best = max(best, reach)
    return best


def interval(g, u, v):
    """All vertices on some geodesic between u and v (metric betweenness)."""
    d = g.dist()
    return [z for z in range(g.n) if d[u][z] + d[z][v] == d[u][v]]


def stable_interval_hausdorff(g):
    """beta as the max over a, u adjacent to a, and b of the directed
    Hausdorff distance from interval(a,b) to interval(u,b), starting at 1."""
    row = g.rows()
    best = 1
    for a in range(g.n):
        for u in g.adj[a]:
            for b in range(g.n):
                best = max(best, directed_hausdorff(row, interval(g, a, b),
                                                    interval(g, u, b)))
    return best


def clique_helly_per_triangle(g):
    """Clique-Helly by one check per triangle abc: its extended triangle T*,
    the vertices adjacent to at least two of a, b, c, lies in N[u] for some u
    in N[a] & N[b] & N[c], trying first the u that served the previous
    triangle."""
    nb = _closed_neighbourhoods(g)
    u = 0
    for a, na in enumerate(nb):
        for b in g.adj[a]:
            if b < a:
                continue
            nab = na & nb[b]
            for c in _bits(nab & -(2 << b)):  # c > b, adjacent to a and b
                star = nab | (na | nb[b]) & nb[c]
                if star & ~nb[u]:
                    for u in _bits(nab & nb[c]):
                        if star & ~nb[u] == 0:
                            break
                    else:
                        return False
    return True

"""Oracles over ball families, the full enumeration of extremal functions,
explicit geodesic lists and intervals, and one check per triangle, kept as the
independent references of the Helly decider, the searches, the
stable-interval constant and the clique-Helly test in `hellykit.helly`; and
the directed definitions behind the metric-generic Hausdorff, slim and
quasigeodesic checks of `hellykit.graphs` and `hellykit.relwords`; and the
kind of each edge of the glued graph, which `gamma build` does not report;
and the glued graph's window found by a BFS on the neighbour rule, with the
certified distances and geodesics a bounded BFS finds in it, the reference of
the window that `gamma build` reads off the closed form and of the ball's
queries; and ξ read off the Helly hull, a metric route to the coarse Helly
constant that shares no search code with it; and the plain definitions that
tests read and no program path runs: hop distances, rows and diameter of a
graph, the relative distance and normal-form check of a group, the elements
of a finite factor and the copies a Γ path visits; and the derived word by
three cases, with the segments it read and the ends it extended, the
reference of the cut rule in `hellykit.derived`."""

from collections import deque
from operator import sub

from hellykit.derived import z_path
from hellykit.gamma import GammaBall, GammaWindow, WindowError
from hellykit.graphs import enumerate_geodesics, sample_geodesic
from hellykit.groups import GroupError
from hellykit.helly import (SizeBoundExceeded, _bits, _closed_neighbourhoods,
                            hellyfication)
from hellykit.relwords import RelWord, value as word_value

ORACLE_VERTEX_BOUND = 8

# the kind of an edge of the glued graph by the kinds of its two endpoints,
# in either order; no other pair of kinds is ever adjacent
EDGE_KINDS = {("free", "med"): "free", ("med", "free"): "free",
              ("free", "int"): "connecting", ("int", "free"): "connecting",
              ("int", "int"): "internal"}


def hop_distance(g, u, v):
    """d(u, v) in the hop metric of g."""
    return g.dist()[u][v]


def hop_rows(g):
    """The hop metric of g in the row form the metric-generic constants of
    `hellykit.graphs` take: hop_rows(g)(x) is the function y -> d(x, y)."""
    return [row.__getitem__ for row in g.dist()].__getitem__


def diameter(g):
    return max(max(row) for row in g.dist())


def d_rel(spec, g, h):
    """The relative word distance of g and h: the relative length of h g^-1."""
    return spec.rel_length(spec.multiply(h, spec.invert(g)))


def validate_normal_form(spec, a):
    """Raise GroupError unless a is in the normal form of spec: nontrivial
    syllables of existing factors, reduced free words over the free rank, and
    no two adjacent syllables that could merge."""
    prev = None
    for syl in a:
        if syl[0] == "p":
            j, h = syl[1], syl[2]
            if not 0 <= j < len(spec.factors) or h == spec.factors[j].identity:
                raise GroupError(f"bad parabolic syllable {syl}")
            if prev is not None and prev[0] == "p" and prev[1] == j:
                raise GroupError("adjacent syllables in the same factor")
        elif syl[0] == "f":
            w = syl[1]
            if not w or any(x == 0 or abs(x) > spec.free_rank for x in w):
                raise GroupError(f"bad free syllable {syl}")
            if any(w[i] == -w[i + 1] for i in range(len(w) - 1)):
                raise GroupError("unreduced free syllable")
            if prev is not None and prev[0] == "f":
                raise GroupError("adjacent free syllables")
        else:
            raise GroupError(f"unknown syllable tag {syl[0]!r}")
        prev = syl


def factor_elements(factor):
    """The elements 0..order-1 of a finite factor."""
    return list(range(factor.order))


def penetration_profile(ball, path):
    """The copies a Γ path visits, in order, with entry and exit vertices: a
    visit starts at an internal vertex after a vertex of another kind, or at
    the start, and ends at one before such a vertex, or at the end."""
    ball.check_path(path)
    kinds = ["", *(v[0] for v in path), ""]
    starts = [i for i in range(len(path)) if kinds[i + 1] == "int" != kinds[i]]
    ends = [i for i in range(len(path)) if kinds[i + 1] == "int" != kinds[i + 2]]
    return [((path[a][1], path[a][2]), path[a], path[b])
            for a, b in zip(starts, ends)]


def _checked_segment_letter(spec, seg):
    """The letter of one segment whose endpoints are its only free vertices,
    with every shape a segment could have checked (WindowError otherwise)."""
    a, b = seg[0], seg[-1]
    if a[0] != "free" or b[0] != "free":
        raise WindowError("segment endpoints must be free")
    if a == b:
        return None
    interior = seg[1:-1]
    kinds = {v[0] for v in interior}
    if "free" in kinds:
        raise WindowError("segment has an interior free vertex")
    if kinds == {"med"}:
        if len(seg) != 3:
            raise WindowError("medial segment must have exactly two edges")
        g, x = seg[1][1]
        if g == a[1]:
            return x
        if spec.multiply(spec.letter_image(x), g) == a[1]:
            return spec.letter_invert(x)
        raise WindowError("medial vertex does not sit on its segment")
    if kinds == {"int"}:
        j = interior[0][1]
        if any(v[1] != j or v[2] != interior[0][2] for v in interior):
            raise WindowError("internal segment mixes copies")
        q = spec.multiply(b[1], spec.invert(a[1]))
        if len(q) == 1 and q[0][0] == "p" and q[0][1] == j:
            return ("h", j, q[0][2])
        raise WindowError("internal segment endpoints not in one coset")
    raise WindowError(f"segment interior mixes vertex kinds: {kinds}")


def derive_segments(ball, path):
    """The derived word of a Γ path by three cases, with its record:
    (word, segments, extended_first, extended_last), each segment a
    (vertices, letter or None) pair.  With no free vertex, the path between
    the escape paths of its two ends is one segment.  Otherwise a prefix of
    more than three edges before the first free vertex is extended by the
    escape path of its start and a shorter one is dropped, the same at the
    end, and the path between consecutive free vertices gives one segment
    each."""
    config = ball.config
    ball.check_path(path)
    free_positions = [i for i, v in enumerate(path) if v[0] == "free"]
    segments = []
    extended_first = extended_last = False
    if not free_positions:
        zm = z_path(config, path[0])
        zp = z_path(config, path[-1])
        segments.append(list(reversed(zm)) + path[1:] + zp[1:])
    else:
        first, last = free_positions[0], free_positions[-1]
        if first > 3:
            zm = z_path(config, path[0])
            segments.append(list(reversed(zm)) + path[1:first + 1])
            extended_first = True
        else:
            segments.append([path[first]])
        for a, b in zip(free_positions, free_positions[1:]):
            segments.append(path[a:b + 1])
        if len(path) - 1 - last > 3:
            zp = z_path(config, path[-1])
            segments.append(path[last:] + zp[1:])
            extended_last = True
        else:
            segments.append([path[last]])
    spec = config.spec
    recorded = tuple((tuple(seg), _checked_segment_letter(spec, seg))
                     for seg in segments)
    start, end = segments[0][0], segments[-1][-1]
    word = RelWord(start[1], tuple(x for _, x in recorded if x is not None))
    if word_value(spec, word) != spec.multiply(end[1], spec.invert(start[1])):
        raise AssertionError("derived word does not represent the endpoint quotient")
    return word, recorded, extended_first, extended_last


def parent_window(config, radius):
    """The window as a queue BFS on tuple vertices finds it, then one sort:
    a BfsWindow whose verts, index, adj and dist_from_base come from
    config.neighbors alone."""
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
    w = object.__new__(BfsWindow)
    GammaBall.__init__(w, config, radius)
    w.verts = sorted(dist)
    w.index = {v: i for i, v in enumerate(w.verts)}
    w.adj = tuple(tuple(sorted(w.index[u] for u in adj[v])) for v in w.verts)
    w.dist_from_base = [dist[v] for v in w.verts]
    return w


def bounded_bfs_row(adj, source, depth, stop):
    """Hop distances from source, -1 where unreached, by a BFS that labels
    nothing farther than depth and ends once stop is labelled; every vertex
    nearer to source than stop is labelled by then, so the row is complete
    below d(source, stop)."""
    row = [-1] * len(adj)
    row[source] = 0
    frontier, level = [source], 0
    while frontier and source != stop and level < depth:
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


class BfsWindow(GammaWindow):
    """A window that answers its queries by search on its own lists, for a
    target of any kind: the reference the ball's closed form is checked
    against.  The certificate needs no distance beyond R - dist(u): one BFS
    from v, bounded at that depth and stopped once u is labelled, reaches u
    exactly when dist(u) + d_window(u, v) <= R.  Its levels are complete
    below d_window(u, v), which is all a walk from u down to v reads, so that
    one BFS both certifies a pair and samples a geodesic between it."""

    def free_vertices(self):
        return [v for v in self.verts if v[0] == "free"]

    def _contains(self, path):
        return all(v in self.index for v in path)

    def _certifying_bfs(self, u, v):
        """(id of u, the bounded BFS row from v), the row None when it does
        not reach u."""
        iu, iv = self.index[u], self.index[v]
        row = bounded_bfs_row(self.adj, iv, self.radius - self.dist_from_base[iu], iu)
        return iu, (row if row[iu] >= 0 else None)

    def window_distance(self, u, v):
        iu, row = self._certifying_bfs(u, v)
        return (None, False) if row is None else (row[iu], True)

    def random_geodesic(self, rng, u, v):
        iu, row = self._certifying_bfs(u, v)
        if row is None:
            return None
        return [self.verts[i] for i in sample_geodesic(self.adj, row, iu, rng)]


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
    row = hop_rows(g)
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

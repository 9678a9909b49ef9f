"""Oracles over ball families, the full enumeration of extremal functions,
explicit geodesic lists and intervals, and one check per triangle, kept as the
independent references of the Helly decider, the searches, the
stable-interval constant and the clique-Helly test in `hellykit.helly`; and
the directed definitions behind the metric-generic Hausdorff, slim and
quasigeodesic checks of `hellykit.graphs` and `hellykit.relwords`; and the
kind of each edge of the glued graph, which `gamma build` does not report;
and the glued graph's window found by a BFS on the neighbour rule, with the
distances and geodesics a BFS finds in the window of twice its radius plus
one, the reference of the window that `gamma build` reads off the closed
form and of the ball's queries; and ξ read off the Helly hull, a metric
route to the coarse Helly constant that shares no search code with it; and
the plain definitions that tests read and no program path runs: hop
distances, rows and diameter of a graph, the relative distance and
normal-form check of a group, the elements of a finite factor and the copies
a Γ path visits; and a group's ball found by a BFS over its letters, the
reference of the syllable walk `GroupSpec.enumerate_ball` and Γ's free
vertices share; and the derived word by three cases, with the segments it
read and the ends it extended, the reference of the cut rule in
`hellykit.derived`; and the argparse parser the CLI had, the reference of
the flag table that `hellykit.cli.parse` reads."""

import argparse
from collections import deque
from functools import cached_property
from operator import sub

from hellykit.cli import (SUBCOMMANDS, _cmd_analyze, _cmd_corpus, _cmd_derive,
                          _cmd_export_dot, _cmd_gamma, _cmd_group, _cmd_hellyfy,
                          _cmd_measure, _cmd_quasiconvex)
from hellykit.derived import z_path
from hellykit.gamma import WINDOW_GUARD_DEFAULT, GammaBall, GammaWindow, WindowError
from hellykit.graphs import bfs_row, enumerate_geodesics, sample_geodesic
from hellykit.groups import BALL_GUARD_DEFAULT, BallExplosion, GroupError
from hellykit.helly import (EXTREMAL_VERTEX_BOUND, SizeBoundExceeded, _bits,
                            _closed_neighbourhoods, hellyfication)
from hellykit.quasiconvex import ENUM_CAP_DEFAULT
from hellykit.relwords import RelWord, value as word_value

ORACLE_VERTEX_BOUND = 8
# the most vertices a BFS window of the oracle lists: its windows of radius
# 2R + 1 grow fast, and the tests keep them to about 60,000
ORACLE_WINDOW_BOUND = 100_000

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


def ball_bfs(spec, radius, metric="rel", parabolic_cap=None,
             max_elements=BALL_GUARD_DEFAULT):
    """The ball `GroupSpec.enumerate_ball` lists, found by a BFS over the
    letter set that multiplies each element by every letter image: elements
    within `radius` of the identity, mapped to their BFS distance.  metric
    "abs" uses the X-letters, metric "rel" X plus the parabolic letters, those
    of a free-abelian factor truncated at norm parabolic_cap.  Raises
    BallExplosion once it has found more than max_elements elements."""
    if radius < 0:
        raise GroupError(f"radius must be >= 0, got {radius}")
    if metric == "abs":
        letters = spec.x_letters()
    elif metric == "rel":
        letters = spec.rel_letters(parabolic_cap)
    else:
        raise GroupError("metric must be 'rel' or 'abs'")
    images = [spec.letter_image(letter) for letter in letters]
    dist = {spec.identity: 0}
    queue = deque([spec.identity])
    while queue:
        g = queue.popleft()
        if dist[g] == radius:
            continue
        for img in images:
            h = spec.multiply(img, g)
            if h not in dist:
                dist[h] = dist[g] + 1
                if len(dist) > max_elements:
                    raise BallExplosion(
                        f"ball exceeds {max_elements} elements at radius {radius}")
                queue.append(h)
    return dist


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


def _bfs_lists(config, radius, max_vertices=ORACLE_WINDOW_BOUND):
    """(verts, index, adj, dist) of the radius ball around the base as a
    queue BFS on tuple vertices finds it from config.neighbors alone, then
    one sort: ids in tuple order, adj[i] the neighbour ids of verts[i] in
    increasing order."""
    base = config.base_vertex()
    dist, adj = {base: 0}, {base: set()}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in config.neighbors(v):
            if w not in dist:
                if len(dist) == max_vertices:
                    raise WindowError(f"oracle window exceeds {max_vertices} "
                                      f"vertices at R={radius}")
                dist[w] = dist[v] + 1
                adj[w] = set()
                queue.append(w)
            adj[v].add(w)
            adj[w].add(v)
    verts = sorted(dist)
    index = {v: i for i, v in enumerate(verts)}
    return (verts, index, tuple(tuple(sorted(index[u] for u in adj[v])) for v in verts),
            [dist[v] for v in verts])


def parent_window(config, radius):
    """The window as a queue BFS on tuple vertices finds it, then one sort:
    a BfsWindow whose verts, index, adj and dist_from_base come from
    config.neighbors alone."""
    w = object.__new__(BfsWindow)
    GammaBall.__init__(w, config, radius)
    w.verts, w.index, w.adj, w.dist_from_base = _bfs_lists(config, radius)
    return w


# the windows of radius 2R + 1, each with its BFS rows by target, shared by
# every BfsWindow of the same group, N and R.  Two at most are held: before
# it builds one, the cache drops all but the largest, as tests come back to
# the same large windows and small ones are cheap to build again
_OUTER: dict = {}


class BfsWindow(GammaWindow):
    """A window that answers its queries by search, for a target of any kind:
    the reference the ball's closed form is checked against.  It draws
    endpoints from its own free vertices, within R, and answers every pair
    by a full BFS from the target on the window of radius 2R + 1, found the
    same way.  That window holds every geodesic between points of the
    R-ball, with each vertex's whole neighbourhood: a vertex of a geodesic
    from u to v lies within R + d(u, v)/2 <= 2R of the base, and every
    vertex below 2R + 1 has all its neighbours listed.  Its adj is a tuple
    of tuples, not a window's arrays, so it does not export."""

    def free_vertices(self):
        return [v for v in self.verts if v[0] == "free"]

    @cached_property
    def _key(self):
        return repr(self.config.spec.to_json()), self.config.n_thick, self.radius

    def _shared(self):
        """(outer, rows): the 2R + 1 window and its BFS rows by target."""
        hit = _OUTER.get(self._key)
        if hit is None:
            for key in sorted(_OUTER, key=lambda k: len(_OUTER[k][0][0]))[:-1]:
                del _OUTER[key]
            hit = _OUTER[self._key] = _bfs_lists(self.config, 2 * self.radius + 1), {}
        return hit

    @property
    def outer(self):
        """(verts, index, adj, dist) of the window of radius 2R + 1."""
        return self._shared()[0]

    def bfs_distances(self, v):
        """The hop distances from v over the outer window, by its ids, as
        bytes: one row per target is kept, and no distance reaches 256."""
        (_, index, adj, _), rows = self._shared()
        if v not in rows:
            rows[v] = bytes(bfs_row(adj, index[v]))
        return rows[v]

    def window_distance(self, u, v):
        return self.bfs_distances(v)[self.outer[1][u]], True

    def random_geodesic(self, rng, u, v):
        verts, index, adj, _ = self.outer
        return [verts[i] for i in sample_geodesic(adj, self.bfs_distances(v),
                                                  index[u], rng)]


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

    if p := add("derive", "derived-word checks over sampled geodesics",
                _cmd_derive):
        p.add_argument("--group", required=True)
        p.add_argument("--N", dest="n_thick", type=int, required=True)
        p.add_argument("--radius", type=int, default=8)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--guard", type=int, default=WINDOW_GUARD_DEFAULT,
                       help="most free vertices the radius ball may hold")
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


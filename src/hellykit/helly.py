"""Exact Helly-type recognition for finite graphs.

The engine is the enumeration of integral extremal functions: nonnegative
integer functions f on the vertex set with f(u) + f(v) >= d(u,v) everywhere and
pointwise minimal with that property.  Minimality is equivalent to the
fixed-point identity f(v) = max_u (d(u,v) - f(u)), and every extremal function
is 1-Lipschitz and bounded by the eccentricity, which is what makes the search
finite and prunable.  A ball family {B_{r(s)}(s)} is pairwise intersecting
exactly when r(s) + r(t) >= d(s,t) for all s,t, so extremal functions are the
pointwise-minimal pairwise-intersecting total families.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, GraphError, directed_hausdorff, enumerate_geodesics,
                     interval)

EXTREMAL_VERTEX_BOUND = 14
ORACLE_VERTEX_BOUND = 8


class SizeBoundExceeded(GraphError):
    pass


@dataclass(frozen=True)
class RadiusFamily:
    """Ball family given as center -> radius; pairwise feasible means
    radii(u) + radii(v) >= d(u,v) for all centers, i.e. pairwise intersection."""

    radii: tuple[tuple[int, int], ...]  # sorted (center, radius) pairs

    @staticmethod
    def from_map(m: dict[int, int]) -> "RadiusFamily":
        return RadiusFamily(tuple(sorted(m.items())))

    def as_map(self) -> dict[int, int]:
        return dict(self.radii)


@dataclass(frozen=True)
class HellyReport:
    is_helly: bool
    coarse_constant_xi: int
    is_pseudo_modular: bool
    stable_interval_beta: int
    witness: Optional[RadiusFamily]


def _check_bound(g: Graph, bound: int, default: int, what: str) -> None:
    if g.n > bound:
        raise SizeBoundExceeded(
            f"{what} is bounded to {bound} vertices (got {g.n}); "
            "pass a larger bound explicitly to override")
    if g.n > default:
        warnings.warn(f"{what} on {g.n} vertices exceeds the default bound "
                      f"{default}; expect exponential worst-case behaviour",
                      stacklevel=3)


def extremal_functions(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND
                       ) -> list[tuple[int, ...]]:
    """The complete set of integral extremal functions, sorted.

    Depth-first descent over candidate values per vertex.  The search range at
    each vertex is cut by feasibility (f(i) >= d(u,i) - f(u)), the Lipschitz
    property of extremal functions (|f(i) - f(u)| <= d(u,i)) and the
    eccentricity bound; a partial assignment is abandoned as soon as some
    assigned vertex can no longer meet the fixed-point identity even with the
    most favourable future values, where a future f(u) is already bounded
    below by the constraints the assigned prefix imposes on it.
    """
    _check_bound(g, max_vertices, EXTREMAL_VERTEX_BOUND,
                 "extremal-function enumeration")
    full = g.dist()
    n = g.n
    # assign vertices in BFS order from a central vertex: each new vertex then
    # has an assigned neighbor, so the Lipschitz window leaves <= 3 candidates
    center = min(range(n), key=lambda v: (max(full[v]), v))
    order = sorted(range(n), key=lambda v: (full[center][v], v))
    d = [[full[order[a]][order[b]] for b in range(n)] for a in range(n)]
    ecc = [max(row) for row in d]

    out: list[tuple[int, ...]] = []
    vals = [0] * n

    def dfs(i: int, best: list[int], lbs: list[int]) -> None:
        # best[v], v < i: max over assigned u of d(u,v) - vals[u]
        # lbs[u]: lower bound on any extremal completion at u, from the
        # feasibility and Lipschitz constraints of the assigned prefix
        if i == n:
            if all(best[v] == vals[v] for v in range(n)):
                out.append(tuple(vals))
            return
        lo, hi = max(0, lbs[i]), ecc[i]
        for u in range(i):
            hi = min(hi, vals[u] + d[u][i])
        for x in range(lo, hi + 1):
            vals[i] = x
            nbest = [max(best[v], d[i][v] - x) for v in range(i)]
            nbest.append(max(d[u][i] - vals[u] for u in range(i + 1)))
            nlbs = [max(lbs[u], d[i][u] - x, x - d[i][u]) for u in range(n)]
            # a vertex whose value exceeds every achievable witness is dead:
            # future u can contribute at most d(u,v) - lbs[u]
            ok = True
            for v in range(i + 1):
                if nbest[v] < vals[v]:
                    hope = max((d[u][v] - nlbs[u] for u in range(i + 1, n)),
                               default=-1)
                    if vals[v] > hope:
                        ok = False
                        break
            if ok:
                dfs(i + 1, nbest, nlbs)
        vals[i] = 0

    dfs(0, [], [0] * n)
    inverse = [0] * n
    for pos, v in enumerate(order):
        inverse[v] = pos
    return sorted(tuple(f[inverse[v]] for v in range(n)) for f in out)


def is_helly(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND
             ) -> tuple[bool, Optional[RadiusFamily]]:
    """Helly test via extremal functions, with a failing ball family on False.

    A graph is Helly iff every extremal function is a distance function d(x,.).
    Why this is equivalent:

    * If some family {B_{r(s)}(s) : s in S} is pairwise intersecting, extend r
      to the total function g(v) = min_s (r(s) + d(v,s)).  g is pairwise
      feasible (combine r(s) + r(t) >= d(s,t) with two triangle inequalities)
      and g <= r on S.  Descend from g to a pointwise-minimal feasible f <= g.
      If f = d(x,.) then d(x,s) <= g(s) <= r(s) for all s in S, so x is a
      common point: the Helly property holds.
    * Conversely {B_{f(v)}(v) : v in V} is pairwise intersecting for extremal
      f; a common point x gives the feasible d(x,.) <= f, so minimality forces
      f = d(x,.).

    So a non-distance extremal function IS a pairwise intersecting family with
    empty total intersection, and is returned as the witness.
    """
    witness = _witness(g, extremal_functions(g, max_vertices=max_vertices))
    return witness is None, witness


def _witness(g: Graph, fs: list[tuple[int, ...]]) -> Optional[RadiusFamily]:
    """The first extremal function that is not a distance row, as a ball
    family; None when there is none, i.e. when the graph is Helly."""
    rows = set(g.dist())
    for f in fs:
        if f not in rows:
            return RadiusFamily.from_map({v: f[v] for v in range(g.n)})
    return None


def coarse_helly_constant(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND) -> int:
    """Least xi such that pairwise intersecting balls always meet after
    inflating radii by xi.

    Every pairwise intersecting family extends to a total feasible function and
    then descends to an extremal one while only increasing the required
    inflation, so the worst case is max over extremal f of
    min_x max_v (d(x,v) - f(v))_+, and that value is attained by the family f
    itself.  Zero exactly when the graph is Helly.
    """
    return _xi(g, extremal_functions(g, max_vertices=max_vertices))


def _xi(g: Graph, fs: list[tuple[int, ...]]) -> int:
    d = g.dist()
    xi = 0
    for f in fs:
        need = min(max(max(0, d[x][v] - f[v]) for v in range(g.n)) for x in range(g.n))
        xi = max(xi, need)
    return xi


def helly_oracle_bruteforce(g: Graph, max_centers: Optional[int] = None,
                            max_vertices: int = ORACLE_VERTEX_BOUND) -> bool:
    """Independent brute-force Helly test for cross-validation.

    Enumerates ball families directly: each vertex is either not a center or a
    center with radius below its eccentricity (a ball covering everything never
    witnesses a failure), keeping only pairwise-feasible choices.  Shrinking
    any one radius of a pairwise-feasible empty-intersection family keeps both
    properties, so only families in which every positive radius is tight
    against some partner need checking.  Returns False iff such a family with
    empty intersection exists.
    """
    _check_bound(g, max_vertices, ORACLE_VERTEX_BOUND,
                 "brute-force Helly oracle")
    n = g.n
    if max_centers is None:
        max_centers = n
    d = g.dist()
    ecc = [max(row) for row in d]
    suffix_max = [[0] * n for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for v in range(n):
            suffix_max[i][v] = max(suffix_max[i + 1][v], d[i][v])

    chosen: list[tuple[int, int]] = []

    def candidates_ok() -> bool:
        return any(all(d[x][s] <= r for s, r in chosen) for x in range(n))

    def minimal() -> bool:
        for s, r in chosen:
            if r > 0 and all(r + r2 > d[s][s2] for s2, r2 in chosen if s2 != s):
                return False
        return True

    def dfs(i: int) -> bool:
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
        if len(chosen) < max_centers:
            for r in range(0, max(ecc[i], 1)):
                if all(r + r2 >= d[i][s2] for s2, r2 in chosen):
                    chosen.append((i, r))
                    ok = dfs(i + 1)
                    chosen.pop()
                    if not ok:
                        return False
        return True

    return dfs(0)


def is_pseudo_modular(g: Graph) -> tuple[bool, Optional[tuple[tuple[int, int], ...]]]:
    """True iff every pairwise intersecting triple of balls has a common vertex.

    Only triples of distinct centers matter (two balls sharing a center nest),
    radii below the eccentricity suffice, and shrinking radii preserves empty
    intersection, so only triples with every positive radius tight against a
    partner are checked.  The witness is the lexicographically first failing
    ((center, radius), ...) triple.
    """
    d = g.dist()
    n = g.n
    ecc = [max(row) for row in d]
    for x1 in range(n):
        for x2 in range(x1 + 1, n):
            for x3 in range(x2 + 1, n):
                d12, d13, d23 = d[x1][x2], d[x1][x3], d[x2][x3]
                for r1 in range(0, max(ecc[x1], 1)):
                    for r2 in range(0, max(ecc[x2], 1)):
                        if r1 + r2 < d12:
                            continue
                        for r3 in range(0, max(ecc[x3], 1)):
                            if r1 + r3 < d13 or r2 + r3 < d23:
                                continue
                            if r1 != max(0, d12 - r2, d13 - r3):
                                continue
                            if r2 != max(0, d12 - r1, d23 - r3):
                                continue
                            if r3 != max(0, d13 - r1, d23 - r2):
                                continue
                            if not any(d[x][x1] <= r1 and d[x][x2] <= r2
                                       and d[x][x3] <= r3 for x in range(n)):
                                return False, ((x1, r1), (x2, r2), (x3, r3))
    return True, None


def stable_interval_constant(g: Graph) -> int:
    """Least beta >= 1 such that the graph has beta-stable intervals.

    For a geodesic from a to b, a vertex w on it, and u adjacent to a, some
    geodesic from u to b must pass within beta of w.  Every vertex of
    interval(u,b) lies on some u-b geodesic and vice versa, so the distance
    from w to the nearest vertex of interval(u,b) is exactly the best
    achievable over geodesic choices; maximize over all (a, b, u, w).
    """
    row = g.rows()
    best = 1  # the defining property quantifies over beta >= 1
    for a in range(g.n):
        for u in g.adj[a]:
            for b in range(g.n):
                best = max(best, directed_hausdorff(row, interval(g, a, b),
                                                    interval(g, u, b)))
    return best


def stable_interval_oracle(g: Graph, cap: int = 100_000) -> int:
    """Cross-check of stable_interval_constant by explicit geodesic enumeration."""
    d = g.dist()
    best = 1
    for a in range(g.n):
        for u in g.adj[a]:
            for b in range(g.n):
                paths_ab, _ = enumerate_geodesics(g.adj, d[a], d[b], cap=cap)
                paths_ub, _ = enumerate_geodesics(g.adj, d[u], d[b], cap=cap)
                for p in paths_ab:
                    for w in p:
                        reach = min(min(d[w][z] for z in q) for q in paths_ub)
                        best = max(best, reach)
    return best


def hellyfication(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND
                  ) -> tuple[Graph, list[int]]:
    """The graph on integral extremal functions with adjacency at sup-distance
    exactly 1, together with the embedding x -> d(x,.).

    Postconditions are asserted at runtime rather than assumed: the result is
    Helly, the embedding is isometric, and when the input is already Helly the
    embedding is an isomorphism.
    """
    from .graphs import is_isometric_subgraph

    if not g.is_connected():
        raise GraphError("graph not connected")
    fs = extremal_functions(g, max_vertices=max_vertices)
    index = {f: i for i, f in enumerate(fs)}
    edges = []
    for i, f in enumerate(fs):
        for j in range(i + 1, len(fs)):
            h = fs[j]
            if max(abs(a - b) for a, b in zip(f, h)) == 1:
                edges.append((i, j))
    out = Graph(len(fs), edges)
    embedding = [index[row] for row in g.dist()]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the output enumeration is internal
        ok_helly, _ = is_helly(out, max_vertices=max(out.n, max_vertices))
    if not ok_helly:
        raise AssertionError("hellyfication postcondition failed: output not Helly")
    ok_iso, pair = is_isometric_subgraph(g, embedding, out)
    if not ok_iso:
        raise AssertionError(
            f"hellyfication postcondition failed: embedding not isometric at {pair}")
    if len(fs) == g.n:
        # input Helly: the embedding must be an isomorphism
        back = {w: v for v, w in enumerate(embedding)}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (v in g.adj[u]) != (embedding[v] in out.adj[embedding[u]]):
                    raise AssertionError(
                        "hellyfication postcondition failed: not an isomorphism "
                        "on a Helly input")
        assert len(back) == g.n
    return out, embedding


def analyze(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND) -> HellyReport:
    """Helly verdict, witness and xi read off one extremal-function
    enumeration, plus pseudo-modularity and beta."""
    fs = extremal_functions(g, max_vertices=max_vertices)
    witness = _witness(g, fs)
    helly = witness is None
    xi = 0 if helly else _xi(g, fs)
    pm, _ = is_pseudo_modular(g)
    beta = stable_interval_constant(g)
    return HellyReport(helly, xi, pm, beta, witness)

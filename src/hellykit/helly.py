"""Exact Helly-type recognition for finite graphs.

Helly is decided in polynomial time by the theorem of Bandelt and Prisner
(Clique graphs and Helly graphs, 1991): a graph is Helly iff it is
dismantlable and clique-Helly (`decide_helly`).  Integral extremal functions
are the nonnegative integer functions f on the vertex set with
f(u) + f(v) >= d(u,v) everywhere and pointwise minimal with that property.
Minimality is equivalent to the fixed-point identity
f(v) = max_u (d(u,v) - f(u)), and every extremal function is 1-Lipschitz and
bounded by the eccentricity, which is what makes a depth-first search over
them finite and prunable.  A ball family {B_{r(s)}(s)} is pairwise
intersecting exactly when r(s) + r(t) >= d(s,t) for all s,t, so extremal
functions are the pointwise-minimal pairwise-intersecting total families.

One search (`_extremal_search`) serves three callers.  Hellyfication lists
every extremal function (`extremal_functions`).  The Helly witness and the
coarse constant xi of a non-Helly graph stop at the first leaf that answers
them (`_witness_search`, `coarse_helly_constant`), so neither lists the
exponentially many functions of, say, a long cycle; both are still
exponential in the worst case and keep the enumeration's size bound.
"""

from __future__ import annotations

from functools import reduce
from operator import add, and_, sub
from typing import Callable, Optional

from .graphs import Graph, GraphError

EXTREMAL_VERTEX_BOUND = 14


class SizeBoundExceeded(GraphError):
    pass


_DECIDERS_DISAGREE = ("Helly deciders disagree: not dismantlable and "
                      "clique-Helly, but every extremal function is a "
                      "distance function")

# A ball family is a tuple of (centre, radius) pairs sorted by centre: the
# witness shape of both is_helly and is_pseudo_modular.
BallFamily = tuple[tuple[int, int], ...]


def _check_bound(g: Graph, bound: int) -> None:
    if g.n > bound:
        raise SizeBoundExceeded(
            f"extremal-function enumeration is bounded to {bound} vertices "
            f"(got {g.n})")


def extremal_functions(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND
                       ) -> list[tuple[int, ...]]:
    """The complete set of integral extremal functions, sorted: every leaf of
    `_extremal_search` in BFS order from a central vertex, with floor 0."""
    _check_bound(g, max_vertices)
    order = _bfs_order(g)
    out: list[tuple[int, ...]] = []
    _extremal_search(g, order)(0, out.append)
    inverse = [0] * g.n
    for pos, v in enumerate(order):
        inverse[v] = pos
    return sorted(tuple(f[inverse[v]] for v in range(g.n)) for f in out)


def _bfs_order(g: Graph) -> list[int]:
    """The vertices in BFS order from a central vertex: each vertex after the
    first has an earlier neighbour, so the Lipschitz window leaves it at most
    3 candidates."""
    full = g.dist()
    center = min(range(g.n), key=lambda v: (max(full[v]), v))
    return sorted(range(g.n), key=lambda v: (full[center][v], v))


def _extremal_search(g: Graph, order: list[int]
                     ) -> Callable[[int, Callable], Optional[tuple[int, ...]]]:
    """search(floor, stop): depth-first descent over the integral extremal
    functions f with f >= floor everywhere, assigning the vertices in `order`.
    Each leaf is the tuple of f's values in that order; the first leaf for
    which stop is true is returned, and None once the search is exhausted.
    Values are tried in ascending order, so leaves come in lexicographic order.

    The value x of vertex i ranges over [L(i), U(i)], where
    L(i) = max(floor, max_u d(u,i) - f(u), max_u f(u) - d(u,i)) and
    U(i) = min(ecc(i), min_u f(u) + d(u,i)) over the assigned u: feasibility,
    the Lipschitz property of extremal functions and the eccentricity bound.
    Lower bounds are kept only for the unassigned tail, and each assignment
    updates them with one pass over the row of the vertex just assigned.

    Every assigned v satisfies max_u d(u,v) - f(u) <= f(v) over the assigned
    u, by feasibility; the fixed-point identity asks for equality.  The
    pending set holds the assigned vertices with no witness yet, i.e. no
    assigned u with d(u,v) - f(u) = f(v).  Witnesses only accumulate, so a
    vertex leaves the set for good when the vertex being assigned witnesses
    it, and a leaf is reached only with an empty set.  A pending v whose value
    exceeds d(u,v) - L(u) for every unassigned u can never be witnessed, and
    its branch is cut.  wit[v] remembers where in the tail the last vertex
    that passed this test for v sits; it is rechecked first, and only on
    failure is the tail rescanned.  It is a hint, so backtracking leaves it
    alone.  The same test caps x before the candidate loop: a value above its
    assigned witness max_u d(u,i) - f(u), above 0 (which vertex i witnesses
    itself) and above max_u d(i,u) - L(u) over the unassigned u would be cut
    at once.
    """
    full = g.dist()
    n = g.n
    d = [[full[a][b] for b in order] for a in order]
    ecc = [max(row) for row in d]
    # tails list the unassigned vertices last-first, u = n-1, ..., i+1, so
    # the tail of vertex i+1 is the tail of vertex i without its last entry
    # and map() over a longer row stops where the tail ends
    rev = [row[::-1] for row in d]
    tail = [rev[i][:n - 1 - i] for i in range(n)]
    # |d(i,u) - x| over the tail of i, for each candidate x of vertex i
    lip = [[[abs(du - x) for du in tail[i]] for x in range(ecc[i] + 1)]
           for i in range(n)]

    def search(floor, stop):
        vals: list[int] = []
        wit = [n] * n  # tail position of the hint; n is never a valid position

        def dfs(i: int, lbs: list[int], pending: list[tuple]):
            # lbs: lower bounds L(u) for u = n-1, ..., i; lbs[-1] is vertex i
            # pending: (v, f(v), d(v,.) last-first) for each assigned vertex
            # without a witness among the assigned
            if i == n:
                f = tuple(vals)
                return f if stop(f) else None
            di = d[i]
            # x <= own has a witness already: an assigned u, or i itself at 0
            own = max(0, max(map(sub, di, vals), default=0))
            # U(i), capped where a larger x would find no witness in the tail
            hi = min(ecc[i], min(map(add, di, vals), default=ecc[i]),
                     max(own, max(map(sub, tail[i], lbs), default=0)))
            lips = lip[i]
            m = n - 1 - i  # tail length after assigning i
            for x in range(lbs[-1], hi + 1):
                nlbs = list(map(max, lbs, lips[x]))
                npending = []
                for entry in pending:
                    v, fv, rv = entry
                    if di[v] - x == fv:
                        continue  # i witnesses v
                    k = wit[v]
                    if k >= m or rv[k] - nlbs[k] < fv:
                        hope = list(map(sub, rv, nlbs))
                        best = max(hope, default=-1)
                        if best < fv:
                            break
                        wit[v] = hope.index(best)
                    npending.append(entry)
                else:
                    if x > own:
                        npending.append((i, x, rev[i]))
                    vals.append(x)
                    found = dfs(i + 1, nlbs, npending)
                    if found is not None:
                        return found
                    vals.pop()
            return None

        return dfs(0, [floor] * n, [])

    return search


def decide_helly(g: Graph) -> bool:
    """Helly recognition in polynomial time, by the theorem of Bandelt and
    Prisner: a graph is Helly iff it is dismantlable and clique-Helly."""
    return dismantlable(g) and clique_helly(g)


def dismantlable(g: Graph) -> bool:
    """Whether vertices can be deleted one at a time down to a single vertex,
    each v dominated when deleted: N[v] within N[u] for a live u != v, both
    closed neighbourhoods restricted to the live vertices.  Deleting a
    dominated vertex keeps a dismantlable graph dismantlable, so greedy
    deletion decides it.  A disconnected graph is not dismantlable."""
    nb = _closed_neighbourhoods(g)
    live, left = (1 << g.n) - 1, g.n
    deleted = True
    while left > 1 and deleted:
        deleted = False
        for v, nv in enumerate(nb):
            if live >> v & 1:
                nv &= live
                if any(nv & ~nb[u] == 0 for u in _bits(nv ^ 1 << v)):
                    live ^= 1 << v
                    left -= 1
                    deleted = True
    return left == 1


def clique_helly(g: Graph) -> bool:
    """Whether the maximal cliques have the Helly property: iff for every
    triangle abc the extended triangle T*, the vertices adjacent to at least
    two of a, b, c, lies in N[u] for some u.  T* is the union of N[x] & N[y]
    over the three edges xy of the triangle, so u serves abc iff it lies in
    U(ab), U(ac) and U(bc), where U(xy), the u with N[x] & N[y] within N[u],
    is the AND of N[z] over z in N[x] & N[y], computed once per edge."""
    nb = _closed_neighbourhoods(g)
    # N[x] & N[y] is listed by set intersection, faster than reading its bits
    closed = [{v, *a} for v, a in enumerate(g.adj)]
    # dom[a][b] = U(ab) for each edge ab with a < b
    dom: list[dict[int, int]] = [{} for _ in nb]
    for a, above in enumerate(dom):
        for b in g.adj[a]:
            if b > a:
                above[b] = reduce(and_, map(nb.__getitem__, closed[a] & closed[b]))
    for a, above in enumerate(dom):
        for b, uab in above.items():
            for c in above.keys() & dom[b].keys():  # c > b, adjacent to a and b
                if not uab & above[c] & dom[b][c]:
                    return False
    return True


def _closed_neighbourhoods(g: Graph) -> list[int]:
    """N[v] for every vertex v, as a bitset: bit u is set iff d(u,v) <= 1."""
    return [sum(1 << u for u in a) | 1 << v for v, a in enumerate(g.adj)]


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_helly(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND
             ) -> tuple[bool, Optional[BallFamily]]:
    """Helly test by `decide_helly`, with a failing ball family on False.

    Only a non-Helly graph is searched, and only for the witness: the first
    extremal function, in sorted order, that is not a distance function
    d(x,.) (`_witness_search`).  A graph is Helly iff every extremal function
    is a distance function.  Why this is equivalent:

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
    empty total intersection, and is returned as the witness.  The size bound
    applies to the search only: a Helly graph of any size is answered.
    """
    if decide_helly(g):
        return True, None
    _check_bound(g, max_vertices)
    return False, _witness_search(g)


def _witness_search(g: Graph) -> BallFamily:
    """The first extremal function in sorted order that is not a distance row,
    as the ball family centred on every vertex.  An extremal f with a zero at
    x is d(x,.): the fixed point gives f(v) >= d(x,v) - f(x) = d(x,v), and
    minimality gives equality.  So the non-distance extremal functions are
    those with f >= 1, the leaves of the search at floor 1, and no set of
    rows is needed to tell them apart.  The search assigns vertices 0..n-1
    in turn, so its leaves come sorted and its first leaf is the witness.
    Called only on a graph that decide_helly rejected; the two deciders are
    independent, so finding none is a bug: AssertionError."""
    f = _extremal_search(g, list(range(g.n)))(1, lambda f: True)
    if f is None:
        raise AssertionError(_DECIDERS_DISAGREE)
    return tuple(enumerate(f))


def coarse_helly_constant(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND) -> int:
    """Least xi such that pairwise intersecting balls always meet after
    inflating radii by xi.

    Every pairwise intersecting family extends to a total feasible function and
    then descends to an extremal one while only increasing the required
    inflation, so the worst case is max over extremal f of
    min_x max_v (d(x,v) - f(v))_+, and that value is attained by the family f
    itself.  By the fixed-point identity max_v (d(x,v) - f(v)) = f(x), so xi
    is the max over extremal f of min_x f(x): xi >= t iff the search with
    every lower bound raised to t has a leaf.  t = 1, 2, ... are tried in
    turn, each search stopping at its first leaf, and xi is the last t that
    has one.  Zero exactly when the graph is Helly, which `decide_helly`
    answers without searching; a non-distance extremal function has no zero,
    so a rejected graph with no leaf at t = 1 is a bug: AssertionError.
    """
    if decide_helly(g):
        return 0
    _check_bound(g, max_vertices)
    search = _extremal_search(g, _bfs_order(g))
    xi = 0
    while search(xi + 1, lambda f: True) is not None:
        xi += 1
    if xi == 0:
        raise AssertionError(_DECIDERS_DISAGREE)
    return xi


def is_pseudo_modular(g: Graph) -> tuple[bool, Optional[BallFamily]]:
    """True iff every pairwise intersecting triple of balls has a common vertex.

    Decided by the local criterion of Bandelt and Mulder (Pseudo-modular
    graphs, 1986): for all u, w with 1 <= d(u,w) <= 2 and every v with
    d(v,u) = d(v,w) = k >= 2, some common neighbour x of u and w has
    d(v,x) = k - 1.  A failing (u, w, v) gives the pairwise intersecting
    triple B_1(u), B_1(w), B_{k-1}(v) with no common vertex, returned as a
    ball family; the first failure is taken in the order u < w, then v, all
    increasing.
    """
    d = g.dist()
    adj = [set(a) for a in g.adj]
    for u, du in enumerate(d):
        for w in range(u + 1, g.n):
            if du[w] <= 2:
                common = adj[u] & adj[w]
                for v, (k, kw) in enumerate(zip(du, d[w])):
                    if k == kw >= 2 and all(d[v][x] != k - 1 for x in common):
                        return False, tuple(sorted(((u, 1), (w, 1), (v, k - 1))))
    return True, None


def stable_interval_constant(g: Graph) -> int:
    """Least beta >= 1 such that the graph has beta-stable intervals.

    For a geodesic from a to b, a vertex w on it, and u adjacent to a, some
    geodesic from u to b must pass within beta of w.  Every vertex of the
    interval I(u,b) lies on some u-b geodesic and vice versa, so the distance
    from w to the nearest vertex of I(u,b) is exactly the best achievable over
    geodesic choices; maximize over all (a, b, u, w).  For each b the
    intervals are bitsets, I(x,b) = {x} | the I(y,b) of the neighbours y of x
    one step closer to b.  For each u, I(u,b) grows one closed neighbourhood
    at a time until it covers I(a,b) for every a adjacent to u; the number of
    steps is the max over those a of the directed Hausdorff distance from
    I(a,b) to I(u,b).
    """
    nb = _closed_neighbourhoods(g)
    best = 1  # the defining property quantifies over beta >= 1
    for db in g.dist():
        iv = [0] * g.n
        for x in sorted(range(g.n), key=db.__getitem__):
            ix = 1 << x
            for y in g.adj[x]:
                if db[y] < db[x]:
                    ix |= iv[y]
            iv[x] = ix
        for u, grown in enumerate(iv):
            target = 0
            for a in g.adj[u]:
                target |= iv[a]
            fresh, steps = grown, 0
            while target & ~grown:
                reach = grown
                for v in _bits(fresh):
                    reach |= nb[v]
                fresh, grown, steps = reach & ~grown, reach, steps + 1
            best = max(best, steps)
    return best


def hellyfication(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND
                  ) -> tuple[Graph, list[int]]:
    """The graph on integral extremal functions with adjacency at sup-distance
    exactly 1, together with the embedding x -> d(x,.).

    Postconditions are asserted at runtime rather than assumed: the farthest
    hull vertex lies max over f of min(f) from the image (the hull's sup
    metric: Lang, J. Topol. Anal. 2013), the result is Helly (by `is_helly`,
    so in polynomial time), the embedding is isometric, and when the input is
    already Helly the embedding is an isomorphism.
    """
    from .graphs import bfs_row, is_isometric_subgraph

    if not g.is_connected():
        raise GraphError("graph not connected")
    fs = extremal_functions(g, max_vertices=max_vertices)
    index = {f: i for i, f in enumerate(fs)}
    # near[v][t]: the functions whose value at v is within 1 of t, as a
    # bitset (values lie in [0, ecc(v)]); the neighbours of f are the other
    # functions in the AND of near[v][f(v)] over all v
    near = []
    for v, row in enumerate(g.dist()):
        at = [0] * (max(row) + 3)  # at[t + 1]: the functions with value t
        for i, f in enumerate(fs):
            at[f[v] + 1] |= 1 << i
        near.append([x | y | z for x, y, z in zip(at, at[1:], at[2:])])
    edges = []
    for i, f in enumerate(fs):
        later = reduce(and_, map(list.__getitem__, near, f), -(2 << i))
        edges += ((i, j) for j in _bits(later))
    out = Graph(len(fs), edges)
    embedding = [index[row] for row in g.dist()]

    # one BFS from every embedded vertex at once: from an extra vertex n next
    # to each of them, so every hull vertex is one hop farther from n
    hops, xi = bfs_row([*out.adj, embedding], out.n), max(map(min, fs))
    if min(hops) < 0 or max(hops) - 1 != xi:
        raise AssertionError("hellyfication postcondition failed: the hull is "
                             f"not max over f of min(f) = {xi} deep from the image")
    # the output is searched only if decide_helly rejects it
    if not is_helly(out, max_vertices=out.n)[0]:
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


def analyze(g: Graph, max_vertices: int = EXTREMAL_VERTEX_BOUND) -> dict:
    """The `analyze` report result: xi by `coarse_helly_constant`, which runs
    `decide_helly` and searches only a non-Helly graph, then that graph's
    witness by `_witness_search`, pseudo-modularity and beta.  A Helly graph
    has xi 0 and no witness, at any size.  The witness is the ball family as
    a list of [centre, radius] pairs."""
    xi = coarse_helly_constant(g, max_vertices)
    result = {"is_helly": xi == 0, "xi": xi,
              "pseudo_modular": is_pseudo_modular(g)[0],
              "beta": stable_interval_constant(g)}
    if xi:
        result["witness"] = [list(pair) for pair in _witness_search(g)]
    return result

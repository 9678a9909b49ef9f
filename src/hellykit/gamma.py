"""Finite windows of the glued graph the CLI calls `gamma`: the barycentric
subdivision of the Cayley graph over X, together with one thickened parabolic
copy per right coset of each factor, joined by connecting edges.

Vertices come in three kinds:

  ("free", g)            g a group element
  ("med", (g, x))        the midpoint of the X-edge from g to image(x)*g,
                         stored as the lexicographically smaller of the two
                         equivalent (element, letter) pairs
  ("int", j, rep, u)     vertex u of the factor-j model, in the copy attached
                         to the coset with canonical representative
                         rep = GroupSpec.coset_rep(g, j)

Edges: free (free-medial), connecting (free-internal), internal (two vertices
of one copy at model distance <= N); an edge's kind follows from the kinds of
its ends, so a report lists the edges alone.  Every free vertex has degree
|X| + m and every medial vertex degree 2; no two free vertices are adjacent.

Windows are truncated balls around the identity free vertex.  A vertex's
neighbor set is materialized exactly when its distance from the base is < R,
which is what makes the distance certificate below sound: if
dist(u) + d(u, v) <= R, every potentially shorter path would stay strictly
inside the materialized region, so d(u, v) is the distance in the infinite
graph too.

A window (GammaWindow) is a ball that lists itself whole off the closed form
for d(., base) below, with no search: the free vertices of cost <= R, in order;
then by factor j and by free rep of cost <= R - 1 without a leading factor-j
syllable, copy (j, rep), the model ball of radius N(R - 1 - cost(rep)) around
project(rep, j); then the medial vertices, each made once from an end of cost
<= R - 1 and sorted once.  So ids come out in tuple order, and walks that pick
among neighbours in adjacency order choose alike on ids and tuples.  A row
below R is the neighbour rule's own pieces read as ids, by a copy's offsets and
a medial's slot; a row at R, its neighbours at R - 1, fills in one pass in id
order: no row is sorted.  to_json writes each vertex from a template and each
edge row with one join.  Its queries are the ball's.

A ball (GammaBall) reads d(w, free b) off a closed form.  A syllable costs
min(2|h|_j, 2 + ceil(|h|_j/N)) in factor j, 2|w| if a free word w, and cost(q)
sums them: d(free a, b) = cost(a b^-1), a medial vertex is 1 + its nearer end,
and an internal (j, rep, u) is ceil(d_j(u, t)/N) + 1 + cost(q), where the copy
is left at q b, q = coset_rep(rep b^-1, j), model vertex t = project(q b, j):
leaving elsewhere adds a factor-j syllable of norm c, costing >= ceil(c/N), to
save <= ceil(c/N) inside.  A pair with dist(u) + d(u, v) <= R is certified: its
geodesics expand only vertices strictly inside the ball, whose neighbours all
lie there, in order.  The ball samples, enumerates and counts them on one
geodesic DAG, its neighbour memo and the row d(., v) taken as graphs'
(adj, dv).
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import ceil
from typing import Optional

from .graphs import (GEODESIC_CAP_DEFAULT, count_geodesics, enumerate_geodesics,
                     sample_geodesic)
from .groups import Element, GroupError, GroupSpec, Letter
from .reports import Rows

WINDOW_GUARD_DEFAULT = 200_000

GammaVertex = tuple


class WindowError(GroupError):
    pass


def recommended_n(spec: GroupSpec) -> int:
    """Least N certifying the computable ambient clauses, that is, the
    short-cycle condition on parabolic letters (every N >= 1 meets the
    quotient radius; see certified_clauses).

    A cyclic word of length <= 3 over the relative alphabet with single-letter
    components and trivial image must, in a free product, be either an X-letter
    against the parabolic letter with the same image (norm 1) or two X-letters
    against the parabolic letter carrying their product; so the condition
    reduces to products of two generators of one factor.  Without N at least
    this large, genuine window geodesics exist whose derived words are not
    2-local geodesics (two generator hops against one parabolic letter).
    """
    need = 1
    for factor in spec.factors:
        for g1 in factor.generators:
            for g2 in factor.generators:
                h = factor.mul(g1, g2)
                if h != factor.identity:
                    need = max(need, factor.graph_distance(factor.identity, h))
    return need


def certified_clauses(spec: GroupSpec, n_thick: int) -> dict[str, object]:
    """Which ambient assumption clauses a given N certifies.  The prohibited-
    path clause depends on a non-constructive word list and stays assumed."""
    return {
        "quotient_radius": True,  # the shipped models act transitively
        "prohibited_words": "assumed",
        "short_cycles": n_thick >= recommended_n(spec),
    }


@dataclass(frozen=True)
class GammaConfig:
    spec: GroupSpec
    n_thick: int

    def __post_init__(self):
        if self.n_thick < 1:
            raise WindowError("N must be >= 1")

    # -- vertex constructors ------------------------------------------------

    @cached_property
    def _x_moves(self) -> dict[Letter, tuple[Element, Letter]]:
        """Image and inverse letter of each X-letter, in x_letters order."""
        spec = self.spec
        return {x: (spec.letter_image(x), spec.letter_invert(x))
                for x in spec.x_letters()}

    def medial(self, g: Element, x: Letter) -> GammaVertex:
        return ("med", self._across(g, x)[0])

    def _across(self, g: Element, x: Letter) -> tuple[tuple[Element, Letter], Element]:
        """The X-edge from free g along x: its medial's name, and image(x) * g."""
        image, inverse = self._x_moves[x]
        h = self.spec.multiply(image, g)
        return min((g, x), (h, inverse)), h

    def _entry(self, g: Element, j: int) -> GammaVertex:
        """The vertex of a factor-j copy joined to free g."""
        return ("int", j, self.spec.coset_rep(g, j), self.spec.project(g, j))

    def _exit(self, j: int, rep: Element, u) -> Element:
        """The free vertex h * rep joined to (j, rep, u), h taking project(rep, j) to u."""
        spec, factor = self.spec, self.spec.factors[j]
        h = factor.mul(u, factor.inv(spec.project(rep, j)))
        return spec.multiply(spec.parabolic(j, h), rep)

    def base_vertex(self) -> GammaVertex:
        return ("free", self.spec.identity)

    @cached_property
    def _near(self) -> _Memo:
        """The model vertices at distance 1..N from u in factor j, by (j, u),
        each list built once and each model vertex one object in all lists
        (they are ints or int tuples, so equal ones are interchangeable)."""
        same: dict = {}
        return _Memo(lambda ju: [same.setdefault(u2, u2) for u2 in
                                 self.spec.factors[ju[0]].near(ju[1], self.n_thick)])

    # -- the neighbor rule ----------------------------------------------------

    def neighbors(self, v: GammaVertex) -> list[GammaVertex]:
        """Neighbours of v in increasing tuple order ("free" < "int" < "med"),
        each once; the walks in derived read them in this order."""
        kind = v[0]
        if kind == "free":
            g = v[1]
            out = [self._entry(g, j) for j in range(len(self.spec.factors))]
            return out + sorted(self.medial(g, x) for x in self._x_moves)
        if kind == "med":
            g, x = v[1]  # the smaller of two pairs, so g < image(x) * g
            return [("free", g), ("free", self._across(g, x)[1])]
        if kind == "int":
            _, j, rep, u = v
            out = [("free", self._exit(j, rep, u))]
            return out + [("int", j, rep, u2) for u2 in self._near[j, u]]
        raise WindowError(f"unknown vertex kind {kind!r}")


class GammaBall:
    """The radius-R ball around the base, read lazily off the closed form."""

    def __init__(self, config: GammaConfig, radius: int,
                 max_free: int = WINDOW_GUARD_DEFAULT):
        if radius < 0:
            raise WindowError(f"radius must be >= 0, got {radius}")
        self.config, self.radius, self.base = config, radius, config.base_vertex()
        self.max_free = max_free
        self._neighbors = _Memo(config.neighbors)
        self._costs = _Memo(self._syllable_cost)
        self.distances = _Memo(self._closed_form)  # d(w, v) is distances[v][w]

    def _syllable_cost(self, syl: tuple) -> int:
        if syl[0] == "f":
            return 2 * len(syl[1])
        k = self.config.spec.factors[syl[1]].word_length(syl[2])
        return min(2 * k, 2 - (-k // self.config.n_thick))

    def _closed_form(self, v: GammaVertex) -> _Memo:
        """d(w, v) by vertex w, for a free v, each filled in on its first read."""
        if v[0] != "free":
            raise WindowError(f"a ball measures distances to free vertices, not {v}")
        spec, cost = self.config.spec, self._costs.__getitem__
        b_inv, n = spec.invert(v[1]), self.config.n_thick

        def exit_of(copy: tuple) -> tuple:  # (t, 1 + cost(q)), per copy
            j, rep = copy
            q = spec.coset_rep(spec.multiply(rep, b_inv), j)
            return spec.project(spec.multiply(q, v[1]), j), 1 + sum(map(cost, q))

        def fill(w: GammaVertex) -> int:
            if w[0] == "free":
                return sum(map(cost, spec.multiply(w[1], b_inv)))
            if w[0] == "med":
                return 1 + min(map(row.__getitem__, self._neighbors[w]))
            t, c = exits[w[1], w[2]]
            return c - (-spec.factors[w[1]].graph_distance(w[3], t) // n)
        exits, row = _Memo(exit_of), _Memo(fill)
        return row

    def _contains(self, path: list[GammaVertex]) -> bool:
        return max(map(self.distances[self.base].__getitem__, path)) <= self.radius

    def free_vertices(self) -> list[GammaVertex]:
        """The free vertices within R in tuple order, by a DFS over syllables."""
        r, spec, cost = self.radius, self.config.spec, self._costs
        cap = max(r // 2, self.config.n_thick * (r - 2))  # longer ones cost > R
        too_many = WindowError(f"ball exceeds {self.max_free} free vertices at R={r}")
        if any(f.ball_size(cap) > self.max_free for f in spec.factors):
            raise too_many  # each element within cap is a free vertex
        groups = [[("p", j, h) for h in factor.nontrivial_elements(cap)]
                  for j, factor in enumerate(spec.factors)]
        letters = [x for i in range(1, spec.free_rank + 1) for x in (i, -i)]
        words, free = [(x,) for x in letters], []
        while words and 2 * len(words[0]) <= r and len(free) <= self.max_free:
            free += [("f", w) for w in words]  # each one free vertex
            words = [w + (x,) for w in words for x in letters if w[-1] != -x]
        lists = [sorted((cost[s], s) for s in g) for g in groups + [free]]
        found: list[Element] = []

        def grow(g: Element, last: int, budget: int) -> None:
            found.append(g)
            if len(found) > self.max_free:
                raise too_many
            for key, costed in enumerate(lists):
                for c, syl in costed if key != last else ():
                    if c > budget:
                        break
                    grow(g + (syl,), key, budget - c)
        grow((), -1, r)
        return sorted(("free", g) for g in found)

    def _certified_row(self, u: GammaVertex, v: GammaVertex) -> Optional[_Memo]:
        """d(., v) for a free v if dist(u) + d(u, v) <= R, else None."""
        row = self.distances[v]
        return row if self.distances[self.base][u] + row[u] <= self.radius else None

    def window_distance(self, u: GammaVertex, v: GammaVertex
                        ) -> tuple[Optional[int], bool]:
        """(d(u, v), True), the distance in the infinite graph, for a
        certified pair, v free; (None, False) otherwise."""
        row = self._certified_row(u, v)
        return (None, False) if row is None else (row[u], True)

    def random_geodesic(self, rng, u: GammaVertex, v: GammaVertex
                        ) -> Optional[list[GammaVertex]]:
        """A random geodesic u -> v, v free, or None when dist(u) + d(u, v) > R
        (no draw is taken from rng then)."""
        row = self._certified_row(u, v)
        return None if row is None else sample_geodesic(self._neighbors, row, u, rng)

    def _dag(self, u: GammaVertex, v: GammaVertex) -> tuple:
        """(adj, dv, u) of the geodesic DAG of a certified pair, v free."""
        row = self._certified_row(u, v)
        if row is None:
            raise WindowError("distance not certified; enlarge the ball")
        return self._neighbors, row, u

    def geodesics_between(self, u: GammaVertex, v: GammaVertex,
                          cap: int = GEODESIC_CAP_DEFAULT
                          ) -> list[list[GammaVertex]]:
        """All geodesics u -> v, v free, each step in tuple order."""
        return list(map(list, enumerate_geodesics(*self._dag(u, v), cap)))

    def count_geodesics(self, u: GammaVertex, v: GammaVertex) -> int:
        """The geodesic count u -> v, v free, by dynamic programming on the
        same DAG: the independent cross-check for geodesics_between."""
        return count_geodesics(*self._dag(u, v))

    # -- path analysis ----------------------------------------------------------

    def check_path(self, path: list[GammaVertex]) -> None:
        if not path:
            raise WindowError("empty path")
        if not self._contains(path):
            raise WindowError("path leaves the window")
        for a, b in zip(path, path[1:]):
            if b not in self._neighbors[a]:
                raise WindowError(f"not an edge: {a} - {b}")

    def copy_distance(self, u: GammaVertex, v: GammaVertex) -> int:
        """Distance inside a thickened copy: ceil of the model distance over N."""
        if u[0] != "int" or v[0] != "int" or u[1] != v[1] or u[2] != v[2]:
            raise WindowError("vertices are not in one copy")
        factor = self.config.spec.factors[u[1]]
        return ceil(factor.graph_distance(u[3], v[3]) / self.config.n_thick)

    def parabolic_shortenings(self, path: list[GammaVertex]
                              ) -> list[tuple[int, int, int, int]]:
        """All-internal subpaths that are not geodesic inside their copy,
        as (start, end, length, copy_distance).  Checking maximal runs
        suffices: subpaths of copy-geodesics are copy-geodesics."""
        self.check_path(path)
        out, a = [], 0
        for internal, run in groupby(path, lambda v: v[0] == "int"):
            b = a + len(list(run)) - 1
            if internal and b > a:
                need = self.copy_distance(path[a], path[b])
                if b - a > need:
                    out.append((a, b, b - a, need))
            a = b + 1
        return out


class GammaWindow(GammaBall):
    """The ball, listed whole and immutable once built: vertex i is verts[i],
    adj[i] lists its neighbour ids in increasing order and dist_from_base[i]
    is its distance from the base.  Its queries are the ball's.
    """

    def __init__(self, config: GammaConfig, radius: int,
                 max_vertices: int = WINDOW_GUARD_DEFAULT):
        super().__init__(config, radius, max_free=max_vertices)
        spec, n, r = config.spec, config.n_thick, radius
        too_many = WindowError(f"window exceeds {max_vertices} vertices at R={radius}")
        try:
            verts = self.free_vertices()
        except WindowError:
            raise too_many from None
        dist = [sum(map(self._costs.__getitem__, v[1])) for v in verts]
        free_id = {v[1]: i for i, v in enumerate(verts)}
        inner = [i for i, d in enumerate(dist) if d < r]
        rows: list = [[] for _ in verts]
        # the copies, by factor and then rep: copy (j, rep) holds the model
        # ball of radius N(R - 1 - cost(rep)) around t = project(rep, j)
        copy_ids, same, near = {}, {}, config._near  # same interns model vertices
        for j, factor in enumerate(spec.factors):
            for i in inner:
                rep = verts[i][1]
                if spec.coset_rep(rep, j) != rep:
                    continue
                reach = n * (r - 1 - dist[i])
                if len(verts) + factor.ball_size(reach) > max_vertices:
                    raise too_many
                t = spec.project(rep, j)
                us = [same.setdefault(u, u) for u in factor.ball(t, reach)]
                ids = copy_ids[j, rep] = dict(zip(us, range(len(verts), len(verts) + len(us))))
                verts += [("int", j, rep, u) for u in us]
                dist += [dist[i] + 1 - (-factor.graph_distance(t, u) // n) for u in us]
                rows += [(free_id[config._exit(j, rep, u)], *map(ids.__getitem__, near[j, u]))
                         if d < r else [] for u, d in zip(us, dist[-len(us):])]
        # each medial made at its first end below R; done marks the other end
        moves = list(config._x_moves)
        back = [moves.index(config._x_moves[x][1]) for x in moves]
        done, meds, ends = bytearray(len(moves) * len(free_id)), [], []
        for a in inner:
            g = verts[a][1]
            for j in range(len(spec.factors)):
                _, _, rep, u = config._entry(g, j)
                rows[a].append(copy_ids[j, rep][u])
            for i, x in enumerate(moves):
                if done[a * len(moves) + i]:
                    continue
                pair, h = config._across(g, x)
                b = free_id.get(h)
                if b is not None:
                    done[b * len(moves) + back[i]] = 1
                if len(verts) + len(meds) >= max_vertices:
                    raise too_many
                meds.append(pair)
                ends += (a, b)
        del copy_ids, free_id, done
        for c in sorted(range(len(meds)), key=meds.__getitem__):
            a, b, k = ends[2 * c], ends[2 * c + 1], len(verts)
            verts.append(("med", meds[c]))
            dist.append(1 + min(dist[a], r if b is None else dist[b]))
            rows.append((min(a, b), max(a, b)) if dist[k] < r else [])
            rows[a].append(k)
            if b is not None and dist[b] < r:
                rows[b].append(k)
        # a row at R lists the neighbours at R - 1, met here in id order
        for i, row in enumerate(rows):
            if dist[i] == r - 1:
                for k in row:
                    if dist[k] == r:
                        rows[k].append(i)
        self.verts, self.dist_from_base = verts, dist
        self.adj = tuple(map(tuple, rows))

    # -- export ---------------------------------------------------------------

    def kind_counts(self) -> dict[str, int]:
        counts = {"free": 0, "med": 0, "int": 0}
        for v in self.verts:
            counts[v[0]] += 1
        return counts

    def _later(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(a, the neighbour ids above a) for each vertex id a, in order."""
        return ((a, ws[bisect(ws, a):]) for a, ws in enumerate(self.adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge (a, b), a < b, once and in order, read lazily from adj."""
        return ((a, b) for a, later in self._later() for b in later)

    def to_graph(self):
        """Project the window to a plain graph on its vertex ids, e.g. to use
        it as the ambient graph of an orbit analysis.  Returns (graph, vertex
        list); vertex i of the graph is vertices[i]."""
        from .graphs import Graph

        labels = {i: v[0] for i, v in enumerate(self.verts)}
        return Graph(len(self.verts), self.edges(), labels=labels), self.verts

    def to_json(self) -> dict:
        """The window's report fields: dist_from_base, and vertices and edges
        as Rows over verts and adj, each item written from a template.  Each
        distinct element's text is made once, from its syllables' texts, and
        looked up by value: vertices hold only ints and strs, so no two equal
        values encode differently.  The config holds the group, N and R, so
        they are not repeated here."""
        verts = self.verts

        def vertices(nl: str, encode) -> Iterator[str]:
            k = nl + "  "
            free = f'{{{k}"element": %s,{k}"kind": "free"{nl}}}'
            med = f'{{{k}"element": %s,{k}"kind": "medial",{k}"letter": %s{nl}}}'
            cop = (f'{{{k}"coset": %s,{k}"factor": %d,{k}"kind": "internal",'
                   f'{k}"vertex": %s{nl}}}')
            inner = k + "  "
            syllables = _Memo(lambda syl: encode(syl, inner))
            texts = _Memo(lambda g: "[" + inner + ("," + inner).join(
                map(syllables.__getitem__, g)) + k + "]" if g else "[]")
            small = _Memo(lambda o: encode(o, k))  # letters and model vertices
            for v in verts:
                if v[0] == "free":
                    yield free % texts[v[1]]
                elif v[0] == "med":
                    yield med % (texts[v[1][0]], small[v[1][1]])
                else:
                    yield cop % (texts[v[2]], v[1], small[v[3]])

        def edges(nl: str, encode) -> Iterator[str]:
            # a's edges to later ids as one text, joined as the array joins items
            tail = nl + "]"
            for a, later in self._later():
                if later:
                    head = f"[{nl}  {a},{nl}  "
                    yield head + f"{tail},{nl}{head}".join(map(str, later)) + tail

        return {"vertices": Rows(vertices), "dist_from_base": self.dist_from_base,
                "edges": Rows(edges)}

    def to_dot(self) -> Iterator[str]:
        """The DOT text of the window, one line per piece."""
        shape = {"free": "circle", "med": "point", "int": "box"}
        yield "graph gamma_window {\n"
        for i, v in enumerate(self.verts):
            yield f'  {i} [shape={shape[v[0]]}, label="{v[0]}"];\n'
        for a, b in self.edges():
            yield f"  {a} -- {b};\n"
        yield "}\n"


class _Memo(dict):
    """The values of fn by argument, each computed on its first read."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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

Windows are truncated balls around the identity free vertex: a vertex's
neighbour set is materialized exactly when its distance from the base is < R.

A window (GammaWindow) is a ball that lists itself whole off the closed form
for d(., base) below, with no BFS: the free vertices of cost <= R, in order;
then by factor j and by free rep of cost <= R - 1 without a leading factor-j
syllable, copy (j, rep), the model ball of radius N(R - 1 - cost(rep)) around
project(rep, j); then the medial vertices, each made once from an end of cost
<= R - 1 and sorted once.  So ids come out in tuple order, in three blocks
(free, internal, medial), and walks that pick among neighbours in adjacency
order choose alike on ids and tuples.  The rows, in two int arrays, are made in
id order, an internal row at R from its copy's rows at R - 1 naming it, and the
free rows last, by one counting sort of the rows naming them: none is sorted.
to_json writes each vertex from a template and each edge row with one join.

A ball (GammaBall) reads d(w, free b) off a closed form.  A syllable costs
min(2|h|_j, 2 + ceil(|h|_j/N)) in factor j, 2|w| if a free word w, and cost(q)
sums them: d(free a, b) = cost(a b^-1), a medial vertex is 1 + its nearer end,
and an internal (j, rep, u) is ceil(d_j(u, t)/N) + 1 + cost(q), where the copy
is left at q b, q = coset_rep(rep b^-1, j), model vertex t = project(q b, j):
leaving elsewhere adds a factor-j syllable of norm c, costing >= ceil(c/N), to
save <= ceil(c/N) inside.  The closed form is exact in the infinite graph, so
the ball answers every pair whose target is free, wherever its geodesics run:
R picks the endpoints and nothing else.  Its free vertices are the group's
syllable walk on these costs.  It samples, enumerates and counts geodesics on
one DAG: its neighbour memo and the row d(., v) as graphs' (adj, dv).
"""

from __future__ import annotations

from array import array
from bisect import bisect
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count, groupby, repeat
from math import ceil

from .graphs import (GEODESIC_CAP_DEFAULT, _Memo, count_geodesics,
                     enumerate_geodesics, sample_geodesic)
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
        """The free vertex h * rep joined to (j, rep, u), h taking project(rep, j) to
        u: rep, from _entry, has no leading factor-j syllable to multiply."""
        spec, factor = self.spec, self.spec.factors[j]
        return spec.parabolic(j, factor.mul(u, factor.inv(spec.project(rep, j)))) + rep

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

    def free_vertices(self) -> list[GammaVertex]:
        """The free vertices within R in tuple order, by the group's syllable walk."""
        r = self.radius
        return [("free", g) for g in self.config.spec.syllable_walk(
            r, self._costs.__getitem__, max(r // 2, self.config.n_thick * (r - 2)),
            self.max_free, WindowError(f"ball exceeds {self.max_free} free vertices at R={r}"))]

    def window_distance(self, u: GammaVertex, v: GammaVertex) -> tuple[int, bool]:
        """(d(u, v), True), the distance in the infinite graph, v free."""
        return self.distances[v][u], True

    def random_geodesic(self, rng, u: GammaVertex, v: GammaVertex
                        ) -> list[GammaVertex]:
        """A random geodesic u -> v, v free."""
        return sample_geodesic(self._neighbors, self.distances[v], u, rng)

    def _dag(self, u: GammaVertex, v: GammaVertex) -> tuple:
        """(adj, dv, u) of the geodesic DAG of a pair, v free."""
        return self._neighbors, self.distances[v], u

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
        """A path of Γ: nonempty, each step an edge.  It may leave the ball,
        as a geodesic between two of its points may."""
        if not path:
            raise WindowError("empty path")
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
    is its distance from the base; adj is a read-only view of two int arrays.
    Its queries are the ball's.
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
        inner, nfree = [i for i, d in enumerate(dist) if d < r], len(verts)
        # nbrs lists the internal and medial rows in id order, and deg their
        # lengths; names[e] is a free id named by row ks[e], in the order of ks
        deg, nbrs, names, ks = (array("i") for _ in range(4))
        # the copies, by factor and then rep: copy (j, rep) holds the model
        # ball of radius N(R - 1 - cost(rep)) around t = project(rep, j)
        same, near = {}, config._near  # same interns model vertices
        for j, factor in enumerate(spec.factors):
            for i in inner:
                rep = verts[i][1]
                if spec.coset_rep(rep, j) != rep:
                    continue
                reach = n * (r - 1 - dist[i])
                if len(verts) + factor.ball_size(reach) > max_vertices:
                    raise too_many
                t, first = spec.project(rep, j), len(verts)
                if not reach:  # the copy is t alone, at R, joined to rep
                    verts.append(("int", j, rep, same.setdefault(t, t)))
                    dist.append(r)
                    deg.append(1)
                    nbrs.append(i)
                    names.append(i)
                    ks.append(first)
                    continue
                us = [same.setdefault(u, u) for u in factor.ball(t, reach)]
                ids = dict(zip(us, range(first, first + len(us))))
                verts += [("int", j, rep, u) for u in us]
                dist += [dist[i] + 1 - (-factor.graph_distance(t, u) // n) for u in us]
                # a row below R is its exit, as _exit finds it, and its copy
                # neighbours; a row at R, the rows at R - 1 naming it, in id order
                top = {u: [] for u, d in zip(us, dist[first:]) if d == r}
                rows, t_inv = [], factor.inv(t)
                for k, u, d in zip(count(first), us, dist[first:]):
                    if d == r:
                        rows.append(top[u])
                        continue
                    x = free_id[spec.parabolic(j, factor.mul(u, t_inv)) + rep]
                    names.append(x)
                    ks.append(k)
                    rows.append([x, *map(ids.__getitem__, near[j, u])])
                    for u2 in filter(top.__contains__, near[j, u]) if d == r - 1 else ():
                        top[u2].append(k)
                deg.extend(map(len, rows))
                nbrs.fromlist(list(chain.from_iterable(rows)))
        # each medial made at its first end below R; done marks the other end
        moves = list(config._x_moves)
        back = [moves.index(config._x_moves[x][1]) for x in moves]
        done, meds, ends = bytearray(len(moves) * nfree), [], array("i")
        for a in inner:
            g = verts[a][1]
            for i, x in enumerate(moves):
                if done[a * len(moves) + i]:
                    continue
                pair, h = config._across(g, x)
                b = free_id.get(h, -1)
                if b >= 0:
                    done[b * len(moves) + back[i]] = 1
                if len(verts) + len(meds) >= max_vertices:
                    raise too_many
                meds.append(pair)
                ends.extend((a, b))
        del free_id, done
        first, size = len(verts), len(nbrs)
        order = sorted(range(len(meds)), key=meds.__getitem__)
        verts += [("med", meds[c]) for c in order]
        for c in order:  # a is below R; b is listed if it is, or if the medial is
            a, b = ends[2 * c], ends[2 * c + 1]
            dist.append(d := 1 + min(dist[a], r if b < 0 else dist[b]))
            row = ((a, b) if a < b else (b, a)) if b >= 0 and min(d, dist[b]) < r else (a,)
            nbrs.extend(row)
            deg.append(len(row))
        del meds, ends, order
        names.extend(nbrs[size:])  # a medial row names free ids alone
        ks.extend(chain.from_iterable(map(repeat, range(first, len(verts)),
                                          deg[first - nfree:])))
        # each free row lists the rows naming it, in id order, ahead of them all
        named = Counter(names)
        starts = array("i", accumulate(chain(map(named.__getitem__, range(nfree)), deg),
                                       initial=0))
        head, at = array("i", bytes(4 * starts[nfree])), starts[:nfree].tolist()
        for a, k in zip(names, ks):
            head[at[a]] = k
            at[a] += 1
        nbrs[:0] = head
        self.verts, self.dist_from_base = verts, dist
        self.adj = Adjacency(starts, nbrs)

    # -- export ---------------------------------------------------------------

    def kind_counts(self) -> dict[str, int]:
        internal, medial = bisect(self.verts, ("int",)), bisect(self.verts, ("med",))
        return {"free": internal, "med": len(self.verts) - medial, "int": medial - internal}

    def _later(self) -> Iterator[tuple[int, array]]:
        """(a, the neighbour ids above a) for each vertex id a in order, up to
        the medial block: a medial's neighbours are free, so below it."""
        starts, nbrs, counts = self.adj.starts, self.adj.nbrs, self.kind_counts()
        for a in range(counts["free"] + counts["int"]):
            yield a, nbrs[bisect(nbrs, a, starts[a], starts[a + 1]):starts[a + 1]]

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


class Adjacency(Sequence):
    """Rows kept in two int arrays, read-only: row i is nbrs[starts[i]:starts[i + 1]]
    read as a tuple, so the view equals the tuple of its rows."""

    def __init__(self, starts: array, nbrs: array):
        self.starts, self.nbrs = starts, nbrs

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i: int) -> tuple[int, ...]:
        i = range(len(self))[i]
        return tuple(self.nbrs[self.starts[i]:self.starts[i + 1]])

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

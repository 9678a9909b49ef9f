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
of one copy at model distance <= N).  Every free vertex has degree |X| + m and
every medial vertex degree 2; no two free vertices are adjacent.

Windows are truncated balls around the identity free vertex.  A vertex's
neighbor set is materialized exactly when its distance from the base is < R,
which is what makes the distance certificates below sound: if
dist(u) + d_window(u, v) <= R, every potentially shorter path would stay
strictly inside the materialized region, so the window distance is the true
distance in the infinite graph.

A window's BFS interns each vertex as an int id when it first meets it and
keeps adjacency and base distances on ids; one sort then renumbers them 0..n-1
in tuple order.  Id order is tuple order, so a walk that picks among neighbours
in adjacency order makes the same choices on ids as on tuples.

The certificate needs no distance beyond R - dist(u): one BFS from v, bounded
at that depth and stopped once u is labelled, reaches u exactly when
dist(u) + d_window(u, v) <= R.  Its levels are complete below d_window(u, v),
which is all a walk from u down to v reads, so that one BFS both certifies a
pair and samples a geodesic between it.  An uncertified pair gets no distance:
window_distance returns (None, False).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Optional

from .graphs import (bfs_row, count_geodesics, enumerate_geodesics,
                     sample_geodesic)
from .groups import Element, GroupError, GroupSpec, Letter

WINDOW_GUARD_DEFAULT = 200_000

GammaVertex = tuple

# edge kind by the kinds of its two endpoints, in either order
_EDGE_KINDS = {("free", "med"): "free", ("med", "free"): "free",
               ("free", "int"): "connecting", ("int", "free"): "connecting",
               ("int", "int"): "internal"}


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

    def medial(self, g: Element, x: Letter) -> GammaVertex:
        other = (self.spec.multiply(self.spec.letter_image(x), g),
                 self.spec.letter_invert(x))
        return ("med", min((g, x), other))

    def base_vertex(self) -> GammaVertex:
        return ("free", self.spec.identity)

    # -- the neighbor rule ----------------------------------------------------

    def neighbors(self, v: GammaVertex) -> list[GammaVertex]:
        """Neighbours of v in increasing tuple order ("free" < "int" < "med"),
        each once; the walks in derived read them in this order."""
        spec = self.spec
        kind = v[0]
        if kind == "free":
            g = v[1]
            out = [("int", j, spec.coset_rep(g, j), spec.project(g, j))
                   for j in range(len(spec.factors))]
            return out + sorted(self.medial(g, x) for x in spec.x_letters())
        if kind == "med":
            g, x = v[1]  # the smaller of two pairs, so g < image(x) * g
            return [("free", g), ("free", spec.multiply(spec.letter_image(x), g))]
        if kind == "int":
            _, j, rep, u = v
            factor = spec.factors[j]
            # the connecting free vertex h * rep, with h moving the basepoint
            # image of rep onto u; transitive models give exactly one
            h = factor.mul(u, factor.inv(spec.project(rep, j)))
            out = [("free", spec.multiply(spec.parabolic(j, h), rep))]
            return out + [("int", j, rep, u2)
                          for u2 in factor.near(u, self.n_thick)]
        raise WindowError(f"unknown vertex kind {kind!r}")

    def is_edge(self, u: GammaVertex, v: GammaVertex) -> bool:
        return v in self.neighbors(u)

    @staticmethod
    def edge_kind(u: GammaVertex, v: GammaVertex) -> str:
        kind = _EDGE_KINDS.get((u[0], v[0]))
        if kind is None:
            raise WindowError(f"impossible edge {u[0]}-{v[0]}")
        return kind


class GammaWindow:
    """BFS closure of the base free vertex to depth R; immutable once built.

    Vertex i is verts[i] (index maps back), adj[i] lists its neighbour ids in
    increasing order and dist_from_base[i] is its distance from the base.
    """

    def __init__(self, config: GammaConfig, radius: int,
                 max_vertices: int = WINDOW_GUARD_DEFAULT):
        self.config = config
        self.radius = radius
        self.base = config.base_vertex()
        # ids are handed out in discovery (BFS) order, so iterating the
        # growing list is the BFS queue and distances never decrease along it
        found, dist, adj = [self.base], [0], [[]]
        ids = {self.base: 0}
        for i, v in enumerate(found):
            if dist[i] == radius:
                break
            row = adj[i]
            for w in config.neighbors(v):
                k = ids.get(w)
                if k is None:
                    k = ids[w] = len(found)
                    if k >= max_vertices:
                        raise WindowError(
                            f"window exceeds {max_vertices} vertices at R={radius}")
                    found.append(w)
                    dist.append(dist[i] + 1)
                    adj.append([])
                if dist[k] == radius:  # never expanded; the rule is symmetric
                    adj[k].append(i)
                row.append(k)
        order = sorted(range(len(found)), key=found.__getitem__)
        rank = sorted(range(len(order)), key=order.__getitem__)  # inverse
        self.verts = [found[k] for k in order]
        self.index = dict(zip(self.verts, range(len(order))))
        self.dist_from_base = [dist[k] for k in order]
        self.adj = tuple(tuple(sorted(map(rank.__getitem__, adj[k])))
                         for k in order)

    def free_vertices(self) -> list[GammaVertex]:
        return [v for v in self.verts if v[0] == "free"]

    def has_full_neighborhood(self, v: GammaVertex) -> bool:
        return self.dist_from_base[self._id(v)] < self.radius

    def degree(self, v: GammaVertex) -> int:
        return len(self.adj[self._id(v)])

    def _id(self, v: GammaVertex) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise WindowError(f"vertex not in window: {v}") from None

    def _certified_row(self, u: GammaVertex, v: GammaVertex
                       ) -> tuple[int, Optional[list[int]]]:
        """(id of u, distance row from v) for a certified pair, where the
        row comes from one BFS bounded at depth R - dist(u) and stopped once u
        is labelled; (id of u, None) when that BFS does not reach u."""
        iu, iv = self._id(u), self._id(v)
        row = bfs_row(self.adj, iv, depth=self.radius - self.dist_from_base[iu],
                      stop=iu)
        return iu, (row if row[iu] >= 0 else None)

    def window_distance(self, u: GammaVertex, v: GammaVertex
                        ) -> tuple[Optional[int], bool]:
        """(distance, True) when the pair is certified, where the distance is
        provably the one in the infinite graph; (None, False) otherwise."""
        iu, row = self._certified_row(u, v)
        return (None, False) if row is None else (row[iu], True)

    def random_geodesic(self, rng, u: GammaVertex, v: GammaVertex
                        ) -> Optional[list[GammaVertex]]:
        """A random geodesic u -> v drawn from the certifying BFS, or None
        when the pair is not certified (no draw is taken from rng then)."""
        iu, row = self._certified_row(u, v)
        if row is None:
            return None
        return [self.verts[i] for i in sample_geodesic(self.adj, row, iu, rng)]

    def _dag_rows(self, u: GammaVertex, v: GammaVertex
                  ) -> tuple[list[int], list[int]]:
        """(du, dv) rows of a certified pair, complete below d(u, v)."""
        iu, dv = self._certified_row(u, v)
        if dv is None:
            raise WindowError("distance not certified; enlarge the window")
        return bfs_row(self.adj, iu, depth=dv[iu]), dv

    # -- path analysis -------------------------------------------------------

    def check_path(self, path: list[GammaVertex]) -> None:
        if not path:
            raise WindowError("empty path")
        if any(v not in self.index for v in path):
            raise WindowError("path leaves the window")
        for a, b in zip(path, path[1:]):
            if (self.index[b] not in self.adj[self.index[a]]
                    and not self.config.is_edge(a, b)):
                raise WindowError(f"not an edge: {a} - {b}")

    def _internal_runs(self, path: list[GammaVertex]) -> list[tuple[int, int]]:
        runs = []
        i = 0
        while i < len(path):
            if path[i][0] != "int":
                i += 1
                continue
            k = i
            while k + 1 < len(path) and path[k + 1][0] == "int":
                k += 1
            runs.append((i, k))
            i = k + 1
        return runs

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
        out = []
        for a, b in self._internal_runs(path):
            if a == b:
                continue
            need = self.copy_distance(path[a], path[b])
            if b - a > need:
                out.append((a, b, b - a, need))
        return out

    def penetration_profile(self, path: list[GammaVertex]
                            ) -> list[tuple[tuple, GammaVertex, GammaVertex]]:
        """Copies visited, in order, with entry and exit vertices."""
        self.check_path(path)
        out = []
        for a, b in self._internal_runs(path):
            copy_id = (path[a][1], path[a][2])
            out.append((copy_id, path[a], path[b]))
        return out

    def geodesics_between(self, u: GammaVertex, v: GammaVertex,
                          cap: int = 100_000, allow_truncate: bool = False
                          ) -> tuple[list[list[GammaVertex]], bool]:
        """All geodesics between a certified pair, via the distance DAG."""
        paths, truncated = enumerate_geodesics(self.adj, *self._dag_rows(u, v),
                                               cap=cap,
                                               allow_truncate=allow_truncate)
        return [[self.verts[i] for i in p] for p in paths], truncated

    def count_geodesics(self, u: GammaVertex, v: GammaVertex) -> int:
        """Geodesic count by dynamic programming over the distance DAG; the
        independent cross-check for geodesics_between."""
        return count_geodesics(self.adj, *self._dag_rows(u, v))

    # -- export ---------------------------------------------------------------

    def kind_counts(self) -> dict[str, int]:
        counts = {"free": 0, "med": 0, "int": 0}
        for v in self.verts:
            counts[v[0]] += 1
        return counts

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a, ws in enumerate(self.adj) for b in ws if a < b]

    def to_graph(self):
        """Project the window to a plain graph on its vertex ids, e.g. to use
        it as the ambient graph of an orbit analysis.  Returns (graph, vertex
        list); vertex i of the graph is vertices[i]."""
        from .graphs import Graph

        labels = {i: v[0] for i, v in enumerate(self.verts)}
        return Graph(len(self.verts), self.edges(), labels=labels), self.verts

    def to_json(self) -> dict:
        verts = self.verts
        edges = self.edges()
        return {
            "radius": self.radius,
            "n_thick": self.config.n_thick,
            "group": self.config.spec.to_json(),
            "vertices": [vertex_to_obj(v) for v in verts],
            "dist_from_base": self.dist_from_base,
            "edges": [[a, b] for a, b in edges],
            "edge_kinds": [GammaConfig.edge_kind(verts[a], verts[b])
                           for a, b in edges],
        }

    def to_dot(self) -> str:
        shape = {"free": "circle", "med": "point", "int": "box"}
        lines = ["graph gamma_window {"]
        for i, v in enumerate(self.verts):
            lines.append(f'  {i} [shape={shape[v[0]]}, label="{v[0]}"];')
        for a, b in self.edges():
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def vertex_to_obj(v: GammaVertex) -> dict:
    """JSON object of a vertex; elements, letters and model vertices are kept
    as tuples, which reports.dumps writes as arrays."""
    if v[0] == "free":
        return {"kind": "free", "element": v[1]}
    if v[0] == "med":
        return {"kind": "medial", "element": v[1][0], "letter": v[1][1]}
    return {"kind": "internal", "factor": v[1], "coset": v[2], "vertex": v[3]}

"""Glued-graph windows: neighbor rule, degrees, partitions, certificates,
shortenings, penetration, geodesic enumeration."""

import gc
import json
import random
import tracemalloc
from bisect import bisect_left
from collections import Counter, deque

import pytest

from hellykit import corpus, reports
from hellykit.gamma import (GammaBall, GammaConfig, GammaWindow, WindowError,
                            certified_clauses, recommended_n)
from hellykit.graphs import bfs_row, count_geodesics, enumerate_geodesics
from hellykit.groups import CyclicFactor, FiniteFactor, FreeAbelianFactor, GroupSpec
from oracles import EDGE_KINDS, hop_distance, parent_window, penetration_profile


def vertex_to_obj(v):
    """The JSON object of a vertex, the form its report text is written from."""
    if v[0] == "free":
        return {"kind": "free", "element": v[1]}
    if v[0] == "med":
        return {"kind": "medial", "element": v[1][0], "letter": v[1][1]}
    return {"kind": "internal", "factor": v[1], "coset": v[2], "vertex": v[3]}


def window_neighbors(w, v):
    """Neighbours of a tagged vertex, read through the window's int ids,
    which are in tuple order."""
    return [w.verts[j] for j in w.adj[bisect_left(w.verts, v)]]


def ref_window_vertices(spec, n_thick, radius):
    """Second, independently written window generator: frontier expansion with
    the three vertex kinds spelled out inline.  Used to cross-check counts."""
    def strip(g, j):
        return g[1:] if g and g[0][0] == "p" and g[0][1] == j else g

    def expand(v):
        out = set()
        if v[0] == "free":
            g = v[1]
            for x in spec.x_letters():
                g2 = spec.multiply(spec.letter_image(x), g)
                pair = min((g, x), (g2, spec.letter_invert(x)))
                out.add(("med", pair))
            for j, factor in enumerate(spec.factors):
                out.add(("int", j, strip(g, j), spec.project(g, j)))
        elif v[0] == "med":
            g, x = v[1]
            out.add(("free", g))
            out.add(("free", spec.multiply(spec.letter_image(x), g)))
        else:
            _, j, rep, u = v
            factor = spec.factors[j]
            for u2 in factor.near(u, n_thick):
                out.add(("int", j, rep, u2))
            h = factor.mul(u, factor.inv(spec.project(rep, j)))
            out.add(("free", spec.multiply(spec.parabolic(j, h), rep)))
        return out

    layer = {("free", spec.identity)}
    seen = set(layer)
    for _ in range(radius):
        layer = {w for v in layer for w in expand(v)} - seen
        seen |= layer
    return seen


def assert_matches_parent_builder(config, radius):
    """The window read off the closed form is the one the BFS oracle finds,
    and the row of each vertex below R is config.neighbors read through the
    oracle's index."""
    w, oracle = GammaWindow(config, radius), parent_window(config, radius)
    assert w.verts == oracle.verts
    assert w.adj == oracle.adj and w.dist_from_base == oracle.dist_from_base
    for i, v in enumerate(w.verts):
        if w.dist_from_base[i] < radius:
            assert w.adj[i] == tuple(map(oracle.index.__getitem__, config.neighbors(v)))


class TestNBounds:
    def test_loop_bound(self):
        assert recommended_n(corpus.group_z2_z3()) == 1
        assert recommended_n(corpus.group_z2_z2()) == 1
        assert recommended_n(corpus.group_zsq_z2("king")) == 2
        assert recommended_n(corpus.group_zsq_z2("square")) == 2

    def test_recommended_and_clauses(self):
        spec = corpus.group_zsq_z2("king")
        assert recommended_n(spec) == 2
        clauses = certified_clauses(spec, 2)
        assert clauses["quotient_radius"] and clauses["short_cycles"]
        assert clauses["prohibited_words"] == "assumed"
        assert not certified_clauses(spec, 1)["short_cycles"]
        assert certified_clauses(spec, 1)["quotient_radius"] is True

    def test_small_n_needs_override(self):
        spec = corpus.group_z2_z3()
        with pytest.raises(WindowError):
            GammaConfig(spec, 0)
        GammaConfig(spec, 1)  # fine


class TestNeighborRule:
    def test_free_degree(self):
        spec = corpus.group_z2_z3()
        config = GammaConfig(spec, 1)
        nbrs = config.neighbors(config.base_vertex())
        assert len(nbrs) == len(spec.x_letters()) + len(spec.factors)
        assert sum(1 for v in nbrs if v[0] == "med") == len(spec.x_letters())
        assert sum(1 for v in nbrs if v[0] == "int") == len(spec.factors)

    def test_medial_degree_two(self):
        spec = corpus.group_z2_z3()
        config = GammaConfig(spec, 1)
        med = [v for v in config.neighbors(config.base_vertex()) if v[0] == "med"][0]
        ends = config.neighbors(med)
        assert len(ends) == 2 and all(v[0] == "free" for v in ends)

    def test_internal_king_neighbors(self):
        spec = corpus.group_zsq_z2("king")
        config = GammaConfig(spec, 1)
        internal = ("int", 0, spec.identity, (0, 0))
        nbrs = config.neighbors(internal)
        assert sum(1 for v in nbrs if v[0] == "int") == 8
        assert sum(1 for v in nbrs if v[0] == "free") == 1  # simply transitive

    def test_medial_canonical_class(self):
        spec = corpus.group_z2_z3()
        config = GammaConfig(spec, 1)
        g = spec.parabolic(1, 1)
        x = ("xg", 1, 1)
        same = config.medial(g, x)
        other = config.medial(spec.multiply(spec.letter_image(x), g),
                              spec.letter_invert(x))
        assert same == other

    @pytest.mark.parametrize("group, n_thick, radius", [
        (corpus.group_z2_z3, 1, 6), (corpus.group_z2_z2, 1, 6),
        (corpus.group_zsq_z2, 2, 5)], ids=["z2_z3", "z2_z2", "zsq_z2"])
    def test_sorted_and_duplicate_free(self, group, n_thick, radius):
        # derived.z_path reads neighbours in this order
        config = GammaConfig(group(), n_thick)
        for v in GammaWindow(config, radius).verts:
            nbrs = config.neighbors(v)
            assert nbrs == sorted(set(nbrs))

    def test_adjacency_symmetric(self):
        spec = corpus.group_z2_z3()
        config = GammaConfig(spec, 1)
        v0 = config.base_vertex()
        for v in config.neighbors(v0):
            assert v0 in config.neighbors(v)


# the most the N=2, R=8 king window may keep, as tracemalloc counts it
WINDOW_KEPT_BOUND = 3.25 * 2 ** 20


class TestWindow:
    def test_radius_zero_and_one(self):
        spec = corpus.group_z2_z3()
        config = GammaConfig(spec, 1)
        w0 = GammaWindow(config, 0)
        assert w0.verts == [config.base_vertex()]
        w1 = GammaWindow(config, 1)
        counts = w1.kind_counts()
        assert counts["free"] == 1
        assert counts["med"] == len(spec.x_letters())
        assert counts["int"] == len(spec.factors)

    def test_negative_radius_rejected_before_any_work(self, monkeypatch):
        expanded = []
        monkeypatch.setattr(GammaConfig, "neighbors",
                            lambda self, v: expanded.append(v) or [])
        with pytest.raises(WindowError, match="radius must be >= 0"):
            GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), -1)
        assert expanded == []

    def test_counts_match_reference_generator(self):
        spec = corpus.group_z2_z3()
        config = GammaConfig(spec, 1)
        w = GammaWindow(config, 4)
        ref = ref_window_vertices(spec, 1, 4)
        assert set(w.verts) == ref

    def test_counts_match_reference_generator_abelian(self):
        spec = corpus.group_zsq_z2("king")
        config = GammaConfig(spec, 2)
        w = GammaWindow(config, 4)
        assert set(w.verts) == ref_window_vertices(spec, 2, 4)

    def test_partition_and_edge_kinds(self):
        spec = corpus.group_z2_z3()
        w = GammaWindow(GammaConfig(spec, 1), 5)
        kinds = {"free": 0, "med": 0, "int": 0}
        for v in w.verts:
            kinds[v[0]] += 1
        assert sum(kinds.values()) == len(w.dist_from_base)
        for u in w.verts:
            for v in window_neighbors(w, u):
                assert EDGE_KINDS[u[0], v[0]] in ("free", "connecting",
                                                  "internal")

    def test_edge_kind_by_tags(self):
        for u, v, kind in [("free", "med", "free"), ("free", "int", "connecting"),
                           ("int", "int", "internal")]:
            assert EDGE_KINDS[u, v] == EDGE_KINDS[v, u] == kind
        for u, v in [("free", "free"), ("med", "med"), ("med", "int")]:
            assert (u, v) not in EDGE_KINDS and (v, u) not in EDGE_KINDS
        # the table lists exactly the pairs of kinds a window's edges join
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 5)
        pairs = {(w.verts[a][0], w.verts[b][0]) for a, b in w.edges()}
        assert pairs | {(b, a) for a, b in pairs} == set(EDGE_KINDS)

    def test_no_adjacent_free_vertices(self):
        spec = corpus.group_z2_z3()
        w = GammaWindow(GammaConfig(spec, 1), 5)
        for u in w.verts:
            if u[0] == "free":
                assert all(v[0] != "free" for v in window_neighbors(w, u))
        # consequence: free-free distances are >= 2
        free = w.free_vertices()
        for v in free[:10]:
            if v != w.base:
                hops, certified = w.window_distance(w.base, v)
                assert hops >= 2

    def test_internal_connecting_unique(self):
        spec = corpus.group_zsq_z2("king")
        w = GammaWindow(GammaConfig(spec, 2), 4)
        for v, d in zip(w.verts, w.dist_from_base):
            if v[0] == "int" and d < w.radius:
                free = [u for u in window_neighbors(w, v) if u[0] == "free"]
                assert len(free) == 1

    def test_guard(self):
        spec = corpus.group_zsq_z2("king")
        with pytest.raises(WindowError):
            GammaWindow(GammaConfig(spec, 2), 8, max_vertices=100)

    @pytest.mark.parametrize("n_thick, radius, guard, listed", [
        (2, 40, 1000, []), (20, 3, 2000, [20])], ids=["free_vertices", "base_copy"])
    def test_guard_counts_before_it_lists(self, n_thick, radius, guard, listed,
                                          monkeypatch):
        # Z^2 * Z/2 king.  At N=2, R=40 the 153^2 lattice elements of norm
        # <= 76, each a free vertex, exceed the guard, and so does the base
        # copy's ball.  At N=20, R=3 the 1,682 free vertices fit, listed from
        # the 41^2 elements of norm <= 20, and the base copy's 81^2 model
        # vertices exceed the guard.  Only the balls the guard admits are
        # listed, and the refusal comes at once
        spec = corpus.group_zsq_z2("king")
        lattice, radii = spec.factors[0], []
        ball = lattice.ball

        def counted_ball(u, r):
            radii.append(r)
            return ball(u, r)

        monkeypatch.setattr(lattice, "ball", counted_ball)
        with pytest.raises(WindowError,
                           match=f"window exceeds {guard} vertices at R={radius}"):
            GammaWindow(GammaConfig(spec, n_thick), radius, max_vertices=guard)
        assert radii == listed

    @pytest.mark.parametrize("group", [corpus.group_z2_z3,
                                       corpus.group_zsq_z2])
    def test_guard_boundary(self, group):
        config = GammaConfig(group(), 2)
        n = len(GammaWindow(config, 4).verts)
        assert len(GammaWindow(config, 4, max_vertices=n).verts) == n
        with pytest.raises(WindowError):
            GammaWindow(config, 4, max_vertices=n - 1)

    def test_build_peak_near_what_it_keeps(self):
        # the window keeps no vertex dict and one object per model vertex
        # value.  On this 16,647-vertex window the
        # traced peak is 1.22 times what the window keeps (3.5 of 2.9 MiB)
        config = GammaConfig(corpus.group_zsq_z2("king"), 2)
        GammaWindow(config, 2)  # warm the config's caches outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            w = GammaWindow(config, 8)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(w.verts) == 16_647
        assert peak < 1.5 * kept

    def test_window_keeps_its_adjacency_in_int_arrays(self):
        # the same window, traced: 2.9 MiB kept, its adjacency two int
        # arrays; as a tuple of int tuples, it kept 4.5 MiB
        config = GammaConfig(corpus.group_zsq_z2("king"), 2)
        GammaWindow(config, 2)  # warm the config's caches outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            w = GammaWindow(config, 8)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(w.verts) == 16_647
        assert kept <= WINDOW_KEPT_BOUND

    def test_adjacency_reads_as_tuples(self):
        config = GammaConfig(corpus.group_zsq_z2("king"), 2)
        w, rows = GammaWindow(config, 4), parent_window(config, 4).adj
        adj = w.adj
        assert len(adj) == len(rows) == len(w.verts)
        assert [adj[i] for i in range(len(adj))] == list(rows) == list(adj)
        assert type(adj[0]) is tuple and adj[-1] == rows[-1]
        assert adj == rows and rows == adj and not adj != rows
        with pytest.raises(IndexError):
            adj[len(adj)]
        with pytest.raises(TypeError):
            adj[0] = ()
        # one neighbour more, one fewer or another one, or one row fewer
        i = len(rows) // 2
        for row in (rows[i] + (0,), rows[i][1:], (rows[i][0] + 1,) + rows[i][1:]):
            assert adj != rows[:i] + (row,) + rows[i + 1:]
        assert adj != rows[:-1] and adj != list(rows)[:-1]
        # the ids come in three blocks: free, internal, medial
        counts = Counter(v[0] for v in w.verts)
        assert w.kind_counts() == {"free": counts["free"], "med": counts["med"],
                                   "int": counts["int"]}
        assert [v[0] for v in w.verts] == sorted(v[0] for v in w.verts)

    @pytest.mark.parametrize("radius", range(7))
    @pytest.mark.parametrize("n_thick", [1, 2, 3])
    @pytest.mark.parametrize("group", [
        corpus.group_z2_z3, corpus.group_z2_z2, corpus.group_zsq_z2,
        lambda: corpus.group_zsq_z2("square"), lambda: group_s3_z2(),
        lambda: GroupSpec([CyclicFactor(7), FreeAbelianFactor(2, "square")], 1),
        lambda: GroupSpec([FreeAbelianFactor(1), CyclicFactor(2)]),
        lambda: GroupSpec([CyclicFactor(4), CyclicFactor(5)]),
        lambda: corpus.free_product(["cyclic:2"], free_rank=1),
        lambda: GroupSpec([CyclicFactor(3)], free_rank=2),
        lambda: GroupSpec([], free_rank=2)],
        ids=["z2_z3", "z2_z2", "zsq_z2_king", "zsq_z2_square", "s3_z2",
             "z7_zsq_f1", "z_z2", "z4_z5", "z2_f1", "z3_f2", "f2"])
    def test_matches_parent_builder(self, group, n_thick, radius):
        assert_matches_parent_builder(GammaConfig(group(), n_thick), radius)

    def test_matches_parent_builder_on_the_benchmark_window(self):
        config = GammaConfig(corpus.group_zsq_z2("king"), 2)
        assert_matches_parent_builder(config, 8)


def neighbour_rule_distance(config, u, v):
    """d(u, v) in the infinite graph, by a BFS from u on config.neighbors
    that stops at v: no window, no closed form."""
    level, frontier, seen = 0, [u], {u}
    while v not in seen:
        level += 1
        nxt = []
        for z in frontier:
            for w in config.neighbors(z):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return level


class TestWindowDistance:
    """The BFS oracle's distances, which take targets of every kind: the
    reference the ball's closed form is checked against (TestBall)."""

    def test_same_vertex(self):
        w = parent_window(GammaConfig(corpus.group_z2_z3(), 1), 3)
        assert w.window_distance(w.base, w.base) == (0, True)
        ball = GammaBall(w.config, 3)
        assert ball.window_distance(ball.base, ball.base) == (0, True)

    def test_sphere_vertex_certified(self):
        w = parent_window(GammaConfig(corpus.group_z2_z3(), 1), 3)
        far = [v for i, v in enumerate(w.verts) if w.dist_from_base[i] == 3]
        assert far
        hops, answered = w.window_distance(w.base, far[0])
        assert hops == 3 and answered

    def test_antipodal_sphere_pair_uncertified(self):
        w = parent_window(GammaConfig(corpus.group_z2_z3(), 1), 3)
        sphere = [v for i, v in enumerate(w.verts) if w.dist_from_base[i] == 3]
        u, v = sphere[0], sphere[-1]
        # dist(u) = R leaves no room for a positive distance under the old
        # certificate dist(u) + d(u, v) <= R; the pair is answered all the same
        hops, answered = w.window_distance(u, v)
        assert u != v and answered
        assert hops == neighbour_rule_distance(w.config, u, v) > 0

    def test_certified_stable_under_enlargement(self):
        spec = corpus.group_z2_z3()
        w5 = parent_window(GammaConfig(spec, 1), 5)
        w7 = parent_window(GammaConfig(spec, 1), 7)
        rng = random.Random(5)
        verts = w5.verts
        for _ in range(300):
            u = verts[rng.randrange(len(verts))]
            v = verts[rng.randrange(len(verts))]
            assert w5.window_distance(u, v) == w7.window_distance(u, v)

    def test_outer_bfs_matches_unbounded_bfs(self):
        # the 2R + 1 window's BFS against a BFS on the neighbour rule alone,
        # and against a full BFS over the R window, exact where
        # dist(u) + d(u, v) <= R and never shorter elsewhere, since the R
        # window is a subgraph of Γ
        w = parent_window(GammaConfig(corpus.group_z2_z3(), 1), 5)
        rng = random.Random(11)
        verts = w.verts
        inside = 0
        for _ in range(500):
            u = verts[rng.randrange(len(verts))]
            v = verts[rng.randrange(len(verts))]
            iu, iv = w.index[u], w.index[v]
            level = {iu: 0}
            queue = deque([iu])
            while queue:
                z = queue.popleft()
                for y in w.adj[z]:
                    if y not in level:
                        level[y] = level[z] + 1
                        queue.append(y)
            hops, answered = w.window_distance(u, v)
            assert answered and hops == neighbour_rule_distance(w.config, u, v)
            if w.dist_from_base[iu] + level[iv] <= w.radius:
                assert hops == level[iv]
                inside += 1
            else:
                assert hops <= level[iv]
            path = w.random_geodesic(random.Random(0), u, v)
            assert len(path) == hops + 1
            assert path[0] == u and path[-1] == v
            for a, b in zip(path, path[1:]):
                assert b in w.config.neighbors(a)
        assert 50 <= inside <= 450


class TestSingleSyllableDistances:
    def test_bfs_matches_route_formula(self):
        # for a one-syllable element the best route is the cheaper of the
        # medial route (2 edges per generator letter) and the copy route
        # (enter + copy geodesic + leave); the oracle's BFS from the base
        # must agree
        from math import ceil

        for spec in (corpus.group_z2_z3(), corpus.group_zsq_z2("king"),
                     corpus.group_zsq_z2("square")):
            n = recommended_n(spec)
            w = parent_window(GammaConfig(spec, n), 7)
            checked = 0
            for v in w.free_vertices():
                g = v[1]
                if len(g) != 1 or g[0][0] != "p":
                    continue
                j, h = g[0][1], g[0][2]
                factor = spec.factors[j]
                copy_route = 2 + ceil(factor.graph_distance(factor.identity, h) / n)
                want = min(2 * factor.word_length(h), copy_route)
                assert w.dist_from_base[w.index[v]] == want, (g, want)
                checked += 1
            assert checked >= 3


class TestPathAnalysis:
    def test_no_internal_vertices_no_shortenings(self):
        spec = corpus.group_z2_z3()
        w = GammaWindow(GammaConfig(spec, 1), 4)
        base = w.base
        med = [v for v in window_neighbors(w, base) if v[0] == "med"][0]
        other = [v for v in window_neighbors(w, med) if v != base][0]
        assert w.parabolic_shortenings([base, med, other]) == []
        assert penetration_profile(w, [base, med, other]) == []

    def test_length_two_detour_detected(self):
        # (0,0) -> (1,1) -> (1,0) inside a king copy with N=1: endpoints
        # adjacent, so the two-edge run is not a copy geodesic
        spec = corpus.group_zsq_z2("king")
        w = GammaWindow(GammaConfig(spec, 1), 3)
        run = [("int", 0, (), (0, 0)), ("int", 0, (), (1, 1)),
               ("int", 0, (), (1, 0))]
        got = w.parabolic_shortenings(run)
        assert got == [(0, 2, 2, 1)]

    def test_geodesics_have_no_shortenings(self):
        # all-internal subpaths of geodesics are copy paths of minimal length
        spec = corpus.group_zsq_z2("king")
        w = GammaWindow(GammaConfig(spec, 2), 5)
        rng = random.Random(6)
        free = w.free_vertices()
        for _ in range(200):
            v = free[rng.randrange(len(free))]
            hops, certified = w.window_distance(w.base, v)
            if not certified or hops == 0:
                continue
            path = w.random_geodesic(rng, w.base, v)
            assert w.parabolic_shortenings(path) == []

    def test_penetration_single_copy(self):
        spec = corpus.group_z2_z3()
        config = GammaConfig(spec, 1)
        w = GammaWindow(config, 4)
        base = w.base
        inside = [v for v in window_neighbors(w, base)
                  if v[0] == "int" and v[1] == 1][0]
        out = [v for v in window_neighbors(w, inside)
               if v[0] == "free" and v != base]
        path = [base, inside, out[0]] if out else [base, inside, base]
        profile = penetration_profile(w, path)
        assert len(profile) == 1
        assert profile[0][0] == (1, ())
        assert profile[0][1] == inside and profile[0][2] == inside


# (group, N, R) of the windows whose geodesic DAG the ball's is checked
# against, both finite free products and Z^2 * Z/2 in both generating sets,
# with their certified (vertex, free target) pairs, u == v included, their
# geodesics and the most between one pair
DAG_WINDOWS = {
    "z2_z3": (corpus.group_z2_z3, 1, 8, 433, 452, 2),
    "z2_z2": (corpus.group_z2_z2, 1, 8, 137, 137, 1),
    "zsq_z2_king": (corpus.group_zsq_z2, 2, 5, 5213, 14381, 57),
    "zsq_z2_square": (lambda: corpus.group_zsq_z2("square"), 1, 6, 1334, 1826, 6),
}


class TestGeodesicEnumeration:
    """The ball's geodesic DAG: enumeration against the DP count, and both
    against the same graphs functions on a window's ids."""

    def test_adjacent_pair(self):
        config = GammaConfig(corpus.group_z2_z3(), 1)
        ball = GammaBall(config, 3)
        med = [v for v in config.neighbors(ball.base) if v[0] == "med"][0]
        assert ball.geodesics_between(med, ball.base) == [[med, ball.base]]
        assert ball.count_geodesics(med, ball.base) == 1

    def test_medial_hop(self):
        config = GammaConfig(corpus.group_z2_z3(), 1)
        ball = GammaBall(config, 3)
        med = [v for v in config.neighbors(ball.base) if v[0] == "med"][0]
        far = [v for v in config.neighbors(med) if v != ball.base][0]
        paths = ball.geodesics_between(ball.base, far)
        assert len(paths) >= 1
        assert all(len(p) == 3 for p in paths)

    def test_counts_match_dp(self):
        # targets of every kind, which the ball does not take, on the BFS
        # oracle's ids with a BFS row from the target
        w = parent_window(GammaConfig(corpus.group_z2_z3(), 1), 5)
        rng = random.Random(7)
        kinds = set()
        done = 0
        while done < 60:
            iu, iv = rng.randrange(len(w.verts)), rng.randrange(len(w.verts))
            hops, certified = w.window_distance(w.verts[iu], w.verts[iv])
            if not certified:
                continue
            dv = bfs_row(w.adj, iv)
            paths = enumerate_geodesics(w.adj, dv, iu, cap=5000)
            assert len(paths) == count_geodesics(w.adj, dv, iu)
            kinds.add(w.verts[iv][0])
            done += 1
        assert kinds == {"free", "med", "int"}

    def test_uncertified_pair_answered(self):
        # two free vertices at distance 2 from the base and 2 or more apart,
        # a pair the certificate dist(u) + d(u, v) <= R used to refuse: the
        # ball answers it as the BFS oracle does, with as many geodesics
        # listed as the DP counts
        config = GammaConfig(corpus.group_z2_z3(), 1)
        ball, w = GammaBall(config, 3), parent_window(config, 3)
        u, v = [f for f in ball.free_vertices() if f != ball.base][:2]
        assert ball.distances[ball.base][u] + ball.distances[v][u] > 3
        assert ball.window_distance(u, v) == w.window_distance(u, v)
        assert (ball.random_geodesic(random.Random(1), u, v)
                == w.random_geodesic(random.Random(1), u, v))
        _, index, adj, _ = w.outer
        want = [[w.outer[0][i] for i in p]
                for p in enumerate_geodesics(adj, w.bfs_distances(v), index[u])]
        paths = ball.geodesics_between(u, v)
        assert paths == want and len(paths) == ball.count_geodesics(u, v)

    def test_target_must_be_free(self):
        # the closed form measures to free vertices only, and a window's
        # queries are the ball's: both refuse a medial or internal target
        config = GammaConfig(corpus.group_z2_z3(), 1)
        for ball in (GammaBall(config, 3), GammaWindow(config, 3)):
            queries = (ball.geodesics_between, ball.count_geodesics,
                       ball.window_distance,
                       lambda u, v: ball.random_geodesic(random.Random(1), u, v))
            for v in config.neighbors(ball.base):  # internal and medial vertices
                for query in queries:
                    with pytest.raises(WindowError, match="free vertices"):
                        query(ball.base, v)

    @pytest.mark.parametrize("group, n_thick, radius, pairs, geodesics, most",
                             DAG_WINDOWS.values(), ids=DAG_WINDOWS.keys())
    def test_ball_dag_equals_window_dag(self, group, n_thick, radius, pairs,
                                        geodesics, most):
        # every certified pair (u of any kind, v free): the same paths in
        # the same order, and the DP count of the ball's memos, against the
        # BFS oracle's window, as GammaWindow reads the ball's closed form
        config = GammaConfig(group(), n_thick)
        w, ball = parent_window(config, radius), GammaBall(config, radius)
        kinds, counts = set(), []
        for v in w.free_vertices():
            dv = bfs_row(w.adj, w.index[v])
            for iu, u in enumerate(w.verts):
                if w.dist_from_base[iu] + dv[iu] > radius:
                    continue
                want = [[w.verts[i] for i in p]
                        for p in enumerate_geodesics(w.adj, dv, iu)]
                assert ball.geodesics_between(u, v) == want, (u, v)
                assert ball.count_geodesics(u, v) == len(want), (u, v)
                kinds.add(u[0])
                counts.append(len(want))
        assert kinds == {"free", "med", "int"}
        assert (len(counts), sum(counts), max(counts)) == (pairs, geodesics, most)


# generating sets of S3 by index into S3_PERMS: the three transpositions, a
# 3-cycle pair and a transposition, two transpositions, every element
S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
S3_GENERATING_SETS = ([3, 4, 5], [1, 2, 3], [3, 4], [1, 2, 3, 4, 5])


def s3(generators):
    index = {p: i for i, p in enumerate(S3_PERMS)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in S3_PERMS]
             for p in S3_PERMS]
    return FiniteFactor(table, generators)


def group_s3_z2():
    """S3 * Z/2, S3 generated by its three transpositions: a nonabelian
    parabolic, where left and right multiplication inside a copy differ."""
    return GroupSpec([s3(S3_GENERATING_SETS[0]), CyclicFactor(2)])


# (group, N, R, R_query) of the windows the ball is checked against: every
# group the CLI ships, the square Z^2 model, a free letter beside two
# factors, a nonabelian factor, and the free group with no factor at all.
# The oracle answers queries on the window of radius 2 R_query + 1, so
# R_query is R where that window holds 60,000 vertices or fewer, and the
# largest radius that does elsewhere: 501, 85, 42,823, 29,587, 12,032, 8,359
# and 52,485 vertices in this order
BALL_ORACLES = {
    "z2_z3": (corpus.group_z2_z3, 1, 8, 8),
    "z2_z2": (corpus.group_z2_z2, 2, 10, 10),
    "zsq_z2_king": (corpus.group_zsq_z2, 2, 7, 4),
    "zsq_z2_square": (lambda: corpus.group_zsq_z2("square"), 1, 7, 6),
    "z7_zsq_f1": (lambda: GroupSpec([CyclicFactor(7),
                                     FreeAbelianFactor(2, "square")], 1), 2, 6, 3),
    "s3_z2": (group_s3_z2, 2, 8, 8),
    "f2": (lambda: GroupSpec([], free_rank=2), 1, 8, 8),
}


@pytest.fixture(scope="module", params=BALL_ORACLES.values(),
                ids=BALL_ORACLES.keys())
def window_and_ball(request):
    group, n_thick, radius, _ = request.param
    config = GammaConfig(group(), n_thick)
    return parent_window(config, radius), GammaBall(config, radius)


@pytest.fixture(scope="module", params=BALL_ORACLES.values(),
                ids=BALL_ORACLES.keys())
def queried_window_and_ball(request):
    group, n_thick, _, radius = request.param
    config = GammaConfig(group(), n_thick)
    return parent_window(config, radius), GammaBall(config, radius)


class TestBall:
    """GammaBall's closed-form metric and walks against the BFS oracle's
    window, which GammaWindow does not build: it reads the closed form."""

    def test_closed_form_matches_window_bfs(self, window_and_ball):
        # every certified (vertex, free target) pair, for the base and six
        # more targets: the closed form against a full BFS from the target
        w, ball = window_and_ball
        free = w.free_vertices()
        kinds = set()
        for t in [w.base] + random.Random(3).sample(free, 6):
            row, d = bfs_row(w.adj, w.index[t]), ball.distances[t]
            for i, v in enumerate(w.verts):
                if w.dist_from_base[i] + row[i] <= w.radius:
                    assert d[v] == row[i], (v, t)
                    kinds.add(v[0])
        assert kinds == ({"free", "med", "int"} if w.config.spec.factors
                         else {"free", "med"})

    def test_base_distances_match_window(self, window_and_ball):
        w, ball = window_and_ball
        d = ball.distances[ball.base]
        assert [d[v] for v in w.verts] == w.dist_from_base

    def test_certified_window_distance_matches_closed_form(self, queried_window_and_ball):
        # every pair is answered, at the distance of the oracle's BFS on the
        # 2R + 1 window; u is drawn from the inner half, and v half the time
        # too, and the pairs past dist(u) + d(u, v) <= R, which the old
        # certificate refused, are answered alike
        w, ball = queried_window_and_ball
        rng = random.Random(7)
        inner = [v for i, v in enumerate(w.verts)
                 if 2 * w.dist_from_base[i] <= w.radius]
        targets = (w.free_vertices(), [v for v in inner if v[0] == "free"])
        base, refused = ball.distances[ball.base], 0
        for k in range(300):
            u = inner[rng.randrange(len(inner))]
            v = targets[k % 2][rng.randrange(len(targets[k % 2]))]
            d = ball.distances[v][u]
            assert w.window_distance(u, v) == ball.window_distance(u, v) == (d, True)
            refused += base[u] + d > w.radius
        assert refused > 0

    def test_free_vertices_match_window(self, window_and_ball):
        w, ball = window_and_ball
        assert ball.free_vertices() == w.free_vertices()

    def test_draws_match_window(self, queried_window_and_ball):
        # the same path from the same rng, which both leave in the same
        # state, against the oracle's BFS on the 2R + 1 window
        w, ball = queried_window_and_ball
        rng = random.Random(9)
        free = w.free_vertices()
        for seed in range(100):
            u = w.base if seed % 2 else free[rng.randrange(len(free))]
            v = free[rng.randrange(len(free))]
            r1, r2 = random.Random(seed), random.Random(seed)
            path = ball.random_geodesic(r1, u, v)
            assert path == w.random_geodesic(r2, u, v)
            assert r1.getstate() == r2.getstate()
            ball.check_path(path)
        # pairs on both sides of the old certificate's edge, where
        # dist(u) + d(u, v) is R or R + 1, from u of every kind
        base, seen = ball.distances[ball.base], Counter()
        for _ in range(3000):
            u = w.verts[rng.randrange(len(w.verts))]
            v = free[rng.randrange(len(free))]
            over = base[u] + ball.distances[v][u] - w.radius
            if over in (0, 1) and seen[over] < 10:
                seen[over] += 1
                path = ball.random_geodesic(random.Random(1), u, v)
                assert path == w.random_geodesic(random.Random(1), u, v)
                assert len(path) == ball.distances[v][u] + 1
        # without factors Γ is a subdivided tree, bipartite with every free
        # vertex at even distance, so dist(u) + d(u, v) is even there
        assert seen[0] and (seen[1] or not w.config.spec.factors)

    def test_check_path_rejects_what_the_window_rejects(self):
        config = GammaConfig(corpus.group_z2_z3(), 1)
        w, ball = parent_window(config, 3), GammaBall(config, 3)
        med = config.neighbors(w.base)[-1]
        far = [v for i, v in enumerate(w.verts) if w.dist_from_base[i] == 3][0]
        outside = [v for v in config.neighbors(far)
                   if v not in w.index][0]
        for bad, match in (([], "empty"), ([w.base, far], "not an edge")):
            for region in (w, ball):
                with pytest.raises(WindowError, match=match):
                    region.check_path(bad)
        # a path of Γ may leave the ball, as a geodesic between two of its
        # points may
        for region in (w, ball):
            region.check_path([w.base, med])
            region.check_path([far, outside])

    @pytest.mark.parametrize("group, n_thick, radius", [
        (corpus.group_z2_z3, 1, 8), (corpus.group_zsq_z2, 2, 4)],
        ids=["z2_z3", "zsq_z2_king"])
    def test_refused_pairs_match_the_oracle(self, group, n_thick, radius):
        # 300 (vertex, free target) pairs with dist(u) + d(u, v) > R, which
        # the old certificate refused: the closed form's distance is the
        # oracle's BFS distance on the 2R + 1 window, and a sampled geodesic
        # has that length and steps along config.neighbors only
        config = GammaConfig(group(), n_thick)
        w, ball = parent_window(config, radius), GammaBall(config, radius)
        base = ball.distances[ball.base]
        refused = [(u, v) for v in w.free_vertices() for u in w.verts
                   if base[u] + ball.distances[v][u] > radius]
        rng, kinds, outside = random.Random(14), set(), 0
        for u, v in rng.sample(refused, 300):
            d = ball.distances[v][u]
            assert w.window_distance(u, v) == (d, True), (u, v)
            path = ball.random_geodesic(rng, u, v)
            assert len(path) == d + 1 and path[0] == u and path[-1] == v
            assert all(b in config.neighbors(a) for a, b in zip(path, path[1:]))
            kinds.add(u[0])
            outside += max(map(base.__getitem__, path)) > radius
        assert kinds == {"free", "med", "int"} and outside > 0

    def test_deep_ball(self):
        # Z/2 * Z/2 at N=1: every syllable costs 2, so the free vertices
        # within R=2100 are the 2,101 alternating words of up to 1,050
        # syllables, more than Python's stack holds frames
        config = GammaConfig(corpus.group_z2_z2(), 1)
        free = GammaBall(config, 2100).free_vertices()
        assert len(free) == 2101 and free == sorted(free)
        assert max(len(v[1]) for v in free) == 1050

    def test_guard_boundary(self):
        # the guard counts free vertices as the walk meets them
        config = GammaConfig(corpus.group_zsq_z2("king"), 2)
        n = len(GammaBall(config, 6).free_vertices())
        assert len(GammaBall(config, 6, max_free=n).free_vertices()) == n
        with pytest.raises(WindowError, match=f"exceeds {n - 1} free vertices"):
            GammaBall(config, 6, max_free=n - 1).free_vertices()

    @pytest.mark.parametrize("rank, style", [(2, "king"), (2, "square"),
                                             (3, "king"), (3, "square")])
    def test_guard_counts_a_lattice_before_listing_it(self, rank, style,
                                                      monkeypatch):
        # with Z^rank alone, the free vertices within R are exactly its
        # elements of norm <= max(R // 2, N(R - 2)), one syllable each, so
        # their count decides the guard before any of them is listed
        factor = FreeAbelianFactor(rank, style)
        config = GammaConfig(GroupSpec([factor]), 2)
        n = factor.ball_size(max(6 // 2, 2 * (6 - 2)))
        assert len(GammaBall(config, 6, max_free=n).free_vertices()) == n

        def refuse(*args):
            raise AssertionError("listed the elements of a refused factor")

        monkeypatch.setattr(factor, "ball", refuse)
        with pytest.raises(WindowError, match=f"exceeds {n - 1} free vertices"):
            GammaBall(config, 6, max_free=n - 1).free_vertices()
        big = GammaConfig(GroupSpec([FreeAbelianFactor(3, "king")]), 8)
        with pytest.raises(WindowError, match="exceeds 200000 free vertices at R=40"):
            GammaBall(big, 40).free_vertices()  # 609^3 elements of norm <= 304

    def test_negative_radius_rejected(self):
        with pytest.raises(WindowError, match="radius must be >= 0"):
            GammaBall(GammaConfig(corpus.group_z2_z3(), 1), -1)


def random_free_product(rng):
    """A free product of up to three factors, each Z/2 to Z/7, S3 with one of
    S3_GENERATING_SETS, Z, or Z^2 square or king, with free rank 0-2."""
    factors = []
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(4)
        if kind == 0:
            factors.append(CyclicFactor(rng.randint(2, 7)))
        elif kind == 1:
            factors.append(s3(rng.choice(S3_GENERATING_SETS)))
        elif kind == 2:
            factors.append(FreeAbelianFactor(1))
        else:
            factors.append(FreeAbelianFactor(2, rng.choice(["square", "king"])))
    return GroupSpec(factors, rng.randint(0 if factors else 1, 2))


# seeds 0-299 draw the random groups, ten to a test, and the most vertices
# a window of one may hold: R is drawn from 3-6 and lowered until the window
# fits.  About 26,000 certified (vertex, free target) pairs in all
RANDOM_BATCHES, RANDOM_BATCH = 30, 10
RANDOM_WINDOW_CAP = 6000


class TestRandomFreeProducts:
    @pytest.mark.parametrize("batch", range(RANDOM_BATCHES))
    def test_window_and_ball_match_the_oracle(self, batch):
        # the window's lists, the ball's free vertices, and the ball's
        # distances to the base and six more free targets on every
        # certified pair, against the BFS oracle
        for seed in range(batch * RANDOM_BATCH, (batch + 1) * RANDOM_BATCH):
            rng = random.Random(seed)
            spec = random_free_product(rng)
            config, radius = GammaConfig(spec, rng.randint(1, 3)), rng.randint(3, 6)
            while True:
                try:
                    w = GammaWindow(config, radius, max_vertices=RANDOM_WINDOW_CAP)
                    break
                except WindowError:
                    radius -= 1
            oracle, ball = parent_window(config, radius), GammaBall(config, radius)
            where = (seed, spec.to_json(), config.n_thick, radius)
            assert w.verts == oracle.verts, where
            assert w.adj == oracle.adj, where
            assert w.dist_from_base == oracle.dist_from_base, where
            free = oracle.free_vertices()
            assert ball.free_vertices() == free, where
            for t in [ball.base] + rng.sample(free, min(6, len(free))):
                row, d = bfs_row(oracle.adj, oracle.index[t]), ball.distances[t]
                for v, dv, dt in zip(oracle.verts, oracle.dist_from_base, row):
                    if dv + dt <= radius:
                        assert d[v] == dt, (where, v, t)


class TestIdOrder:
    """The orders the window's ids rely on: neighbors() lists each vertex's
    neighbours in increasing tuple order, so a row below R, read off the
    rule's pieces, needs no sort; the rows at R fill in id order."""

    @pytest.mark.parametrize("n_thick", [1, 2])
    @pytest.mark.parametrize("group", [
        corpus.group_z2_z3, corpus.group_z2_z2, corpus.group_zsq_z2, group_s3_z2,
        lambda: corpus.free_product(["cyclic:2"], free_rank=1)],
        ids=["z2_z3", "z2_z2", "zsq_z2_king", "s3_z2", "z2_f1"])
    def test_rows_and_index_in_tuple_order(self, group, n_thick):
        config = GammaConfig(group(), n_thick)
        for radius in range(6):
            w = GammaWindow(config, radius)
            for i, v in enumerate(w.verts):
                near = config.neighbors(v)
                assert all(a < b for a, b in zip(near, near[1:])), v
                row = w.adj[i]
                assert all(a < b for a, b in zip(row, row[1:])), (radius, v)
                assert i == 0 or w.verts[i - 1] < v


class TestExport:
    def test_json_round_shape(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 2)
        rec = json.loads(reports.dumps(w.to_json()))
        assert len(rec["vertices"]) == len(w.dist_from_base)
        assert {v["kind"] for v in rec["vertices"]} <= {"free", "medial", "internal"}
        assert rec["edges"] == [list(e) for e in w.edges()]
        # an edge's kind follows from its ends, and N, R and the group are
        # the config's: the fields hold none of them
        assert set(rec) == {"vertices", "dist_from_base", "edges"}

    @pytest.mark.parametrize("spec, n, radius", [
        pytest.param(spec, n, radius, id=f"{name}-N{n}-R{radius}")
        for name, spec in [("z2_z3", corpus.group_z2_z3()),
                           ("z2_z2", corpus.group_z2_z2()),
                           ("zsq_z2", corpus.group_zsq_z2("king")),
                           ("zsq_z2_square", corpus.group_zsq_z2("square")),
                           ("s3_z2", group_s3_z2()),
                           ("z2_f1", corpus.free_product(["cyclic:2"], free_rank=1))]
        for n in (1, 2) for radius in (0, 1, 3, 5)] + [
        pytest.param(corpus.group_zsq_z2("king"), 2, 8, id="zsq_z2-N2-R8")])
    def test_json_bytes_equal_the_object_form(self, spec, n, radius):
        # the templates write each vertex and edge as json.dumps writes its
        # object form, each element's text looked up by value; R=0 has no
        # edges, free_rank=1 has "xf" letters, S3 a finite table factor
        w = GammaWindow(GammaConfig(spec, n), radius)
        edges = [[a, b] for a, ws in enumerate(w.adj) for b in ws if a < b]
        form = {**w.to_json(), "vertices": list(map(vertex_to_obj, w.verts)),
                "edges": edges}
        got = reports.dumps(w.to_json()).split("\n")
        want = (json.dumps(form, sort_keys=True, indent=2) + "\n").split("\n")
        # the first differing line, not a diff of megabytes of text
        assert next(((i, a, b) for i, (a, b) in enumerate(zip(got, want))
                     if a != b), None) is None
        assert len(got) == len(want)

    def test_dot_contains_edges(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 2)
        dot = "".join(w.to_dot())  # yielded line by line
        assert dot.startswith("graph") and "--" in dot

    def test_projection_to_plain_graph(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 3)
        g, verts = w.to_graph()
        assert g.n == len(w.dist_from_base)
        assert g.is_connected()
        index = {v: i for i, v in enumerate(verts)}
        for u in w.verts:
            for v in window_neighbors(w, u):
                assert index[v] in g.adj[index[u]]
        # projected distances agree with certified window distances
        far = w.free_vertices()[-1]
        hops, certified = w.window_distance(w.base, far)
        assert certified and hop_distance(g, index[w.base], index[far]) == hops

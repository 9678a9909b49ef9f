"""Glued-graph windows: neighbor rule, degrees, partitions, certificates,
shortenings, penetration, geodesic enumeration."""

import gc
import random
import tracemalloc
from collections import deque
from types import GeneratorType

import pytest

from hellykit import corpus
from hellykit.gamma import (GammaConfig, GammaWindow, WindowError,
                            certified_clauses, recommended_n)


def window_neighbors(w, v):
    """Neighbours of a tagged vertex, read through the window's int ids."""
    return [w.verts[j] for j in w.adj[w.index[v]]]


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


def parent_window(config, radius):
    """The dict/set window builder that interning on discovery replaced: a
    queue BFS on tuple vertices, then one sort.  Returns (verts, index, adj,
    dist_from_base) in the window's layout."""
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
    verts = sorted(dist)
    index = {v: i for i, v in enumerate(verts)}
    return (verts, index,
            tuple(tuple(sorted(index[w] for w in adj[v])) for v in verts),
            [dist[v] for v in verts])


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
                assert GammaConfig.edge_kind(u, v) in ("free", "connecting",
                                                       "internal")

    def test_edge_kind_by_tags(self):
        free = ("free", ())
        med = ("med", ((), ("xf", 0)))
        internal = ("int", 0, (), 1)
        for u, v, kind in [(free, med, "free"), (free, internal, "connecting"),
                           (internal, internal, "internal")]:
            assert GammaConfig.edge_kind(u, v) == kind
            assert GammaConfig.edge_kind(v, u) == kind
        for u, v in [(free, free), (med, med), (med, internal)]:
            with pytest.raises(WindowError, match="impossible edge"):
                GammaConfig.edge_kind(u, v)

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
        for v in w.verts:
            if v[0] == "int" and w.has_full_neighborhood(v):
                free = [u for u in window_neighbors(w, v) if u[0] == "free"]
                assert len(free) == 1

    def test_guard(self):
        spec = corpus.group_zsq_z2("king")
        with pytest.raises(WindowError):
            GammaWindow(GammaConfig(spec, 2), 8, max_vertices=100)

    @pytest.mark.parametrize("group", [corpus.group_z2_z3,
                                       corpus.group_zsq_z2])
    def test_guard_boundary(self, group):
        config = GammaConfig(group(), 2)
        n = len(GammaWindow(config, 4).verts)
        assert len(GammaWindow(config, 4, max_vertices=n).verts) == n
        with pytest.raises(WindowError):
            GammaWindow(config, 4, max_vertices=n - 1)

    def test_build_peak_near_what_it_keeps(self):
        # the window is renumbered in place: no second vertex dict, order
        # list or adjacency copy.  On this 16,647-vertex window the traced
        # peak is 1.33 times what the window keeps, against 1.75 with copies
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

    @pytest.mark.parametrize("radius", [3, 5, 6])
    @pytest.mark.parametrize("n_thick", [1, 2])
    @pytest.mark.parametrize("group", [
        corpus.group_z2_z3, corpus.group_z2_z2, corpus.group_zsq_z2,
        lambda: corpus.group_zsq_z2("square")],
        ids=["z2_z3", "z2_z2", "zsq_z2_king", "zsq_z2_square"])
    def test_matches_parent_builder(self, group, n_thick, radius):
        config = GammaConfig(group(), n_thick)
        w = GammaWindow(config, radius)
        verts, index, adj, dist = parent_window(config, radius)
        assert w.verts == verts and w.index == index
        assert w.adj == adj and w.dist_from_base == dist


class TestWindowDistance:
    def test_same_vertex(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 3)
        assert w.window_distance(w.base, w.base) == (0, True)

    def test_sphere_vertex_certified(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 3)
        far = [v for i, v in enumerate(w.verts) if w.dist_from_base[i] == 3]
        assert far
        hops, certified = w.window_distance(w.base, far[0])
        assert hops == 3 and certified

    def test_antipodal_sphere_pair_uncertified(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 3)
        sphere = [v for i, v in enumerate(w.verts) if w.dist_from_base[i] == 3]
        u, v = sphere[0], sphere[-1]
        # dist(u) = R leaves no room for a positive distance, and an
        # uncertified pair gets no distance at all
        assert u != v
        assert w.window_distance(u, v) == (None, False)

    def test_certified_stable_under_enlargement(self):
        spec = corpus.group_z2_z3()
        w5 = GammaWindow(GammaConfig(spec, 1), 5)
        w7 = GammaWindow(GammaConfig(spec, 1), 7)
        rng = random.Random(5)
        verts = w5.verts
        pairs = 0
        while pairs < 300:
            u = verts[rng.randrange(len(verts))]
            v = verts[rng.randrange(len(verts))]
            hops, certified = w5.window_distance(u, v)
            if not certified:
                continue
            hops2, certified2 = w7.window_distance(u, v)
            assert certified2 and hops2 == hops
            pairs += 1


    def test_bounded_certificate_matches_unbounded_bfs(self):
        # oracle: a full BFS from u over the whole window, certified when
        # dist(u) + d(u, v) <= R, against the bounded, early-stopping BFS
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 5)
        rng = random.Random(11)
        verts = w.verts
        certified_pairs = 0
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
            want = w.dist_from_base[iu] + level[iv] <= w.radius
            hops, certified = w.window_distance(u, v)
            assert certified == want
            assert hops == (level[iv] if want else None)
            path = w.random_geodesic(random.Random(0), u, v)
            if not want:
                assert path is None
                continue
            certified_pairs += 1
            assert len(path) == level[iv] + 1
            assert path[0] == u and path[-1] == v
            for a, b in zip(path, path[1:]):
                assert b in window_neighbors(w, a)
        assert 50 <= certified_pairs <= 450


class TestSingleSyllableDistances:
    def test_bfs_matches_route_formula(self):
        # for a one-syllable element the best route is the cheaper of the
        # medial route (2 edges per generator letter) and the copy route
        # (enter + copy geodesic + leave); certified BFS must agree
        from math import ceil

        for spec in (corpus.group_z2_z3(), corpus.group_zsq_z2("king"),
                     corpus.group_zsq_z2("square")):
            n = recommended_n(spec)
            w = GammaWindow(GammaConfig(spec, n), 7)
            checked = 0
            for v in w.free_vertices():
                g = v[1]
                if len(g) != 1 or g[0][0] != "p":
                    continue
                j, h = g[0][1], g[0][2]
                factor = spec.factors[j]
                copy_route = 2 + ceil(factor.graph_distance(factor.identity, h) / n)
                want = min(2 * factor.word_length(h), copy_route)
                hops, certified = w.window_distance(w.base, v)
                if certified:
                    assert hops == want, (g, hops, want)
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
        assert w.penetration_profile([base, med, other]) == []

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
        profile = w.penetration_profile(path)
        assert len(profile) == 1
        assert profile[0][0] == (1, ())
        assert profile[0][1] == inside and profile[0][2] == inside


class TestGeodesicEnumeration:
    def test_adjacent_pair(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 3)
        med = [v for v in window_neighbors(w, w.base) if v[0] == "med"][0]
        paths, truncated = w.geodesics_between(w.base, med)
        assert paths == [[w.base, med]] and not truncated

    def test_medial_hop(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 3)
        med = [v for v in window_neighbors(w, w.base) if v[0] == "med"][0]
        far = [v for v in window_neighbors(w, med) if v != w.base][0]
        paths, _ = w.geodesics_between(w.base, far)
        assert len(paths) >= 1
        assert all(len(p) == 3 for p in paths)

    def test_counts_match_dp(self):
        spec = corpus.group_z2_z3()
        w = GammaWindow(GammaConfig(spec, 1), 5)
        rng = random.Random(7)
        verts = w.verts
        done = 0
        while done < 60:
            u = verts[rng.randrange(len(verts))]
            v = verts[rng.randrange(len(verts))]
            hops, certified = w.window_distance(u, v)
            if not certified:
                continue
            paths, truncated = w.geodesics_between(u, v, cap=5000)
            assert not truncated
            assert len(paths) == w.count_geodesics(u, v)
            done += 1

    def test_uncertified_rejected(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 3)
        sphere = [v for i, v in enumerate(w.verts) if w.dist_from_base[i] == 3]
        u, v = sphere[0], sphere[-1]
        hops, certified = w.window_distance(u, v)
        if not certified:
            with pytest.raises(WindowError):
                w.geodesics_between(u, v)


class TestExport:
    def test_json_round_shape(self):
        w = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 2)
        # vertices, edges and edge_kinds are one-shot generators
        rec = {k: list(v) if isinstance(v, GeneratorType) else v
               for k, v in w.to_json().items()}
        assert len(rec["vertices"]) == len(w.dist_from_base)
        assert {v["kind"] for v in rec["vertices"]} <= {"free", "medial", "internal"}
        assert rec["edges"] == [list(e) for e in w.edges()]
        assert len(rec["edges"]) == len(rec["edge_kinds"])
        assert set(rec["edge_kinds"]) <= {"free", "connecting", "internal"}

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
        hops, certified = w.window_distance(w.base, verts[-1])
        if certified:
            assert g.d(index[w.base], len(verts) - 1) == hops

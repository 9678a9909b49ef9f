"""Graph core: metric, intervals, powers, quasigeodesic paths, geodesic
enumeration and counting, and the Hausdorff and thin/slim constants over
distance rows."""

import itertools
import random

import pytest

from hellykit import corpus
from hellykit.graphs import (Graph, GeodesicCapExceeded, GraphError,
                             NotConnectedError, bfs_row, count_geodesics,
                             enumerate_geodesics, full_subgraph, hausdorff,
                             is_isometric_subgraph, power_graph, slim_constant,
                             thin_constant)
from hellykit.groups import random_element
from oracles import (directed_hausdorff, hop_distance, hop_rows, interval,
                     satisfies_quasigeodesic)


def brute_distance(g, u, v):
    """Independent Dijkstra-free oracle: iterate adjacency closure."""
    frontier = {u}
    seen = {u}
    d = 0
    while v not in seen:
        d += 1
        frontier = {w for z in frontier for w in g.adj[z]} - seen
        if not frontier:
            return None
        seen |= frontier
    return d


def random_connected_graphs(count, n_lo=4, n_hi=12, seed=99):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(n_lo, n_hi)
        out.append(corpus.random_connected(n, rng.randint(0, n), rng.randrange(10 ** 6)))
    return out


class TestDistanceMatrix:
    def test_path_graph(self):
        g = corpus.path(3)
        assert hop_distance(g, 0, 2) == 2

    def test_complete(self):
        g = corpus.complete(4)
        d = g.dist()
        assert all(d[u][v] == 1 for u in range(4) for v in range(4) if u != v)

    def test_cycle_diameter(self):
        assert hop_distance(corpus.cycle(6), 0, 3) == 3

    def test_disconnected_raises(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(NotConnectedError):
            g.dist()

    def test_matches_brute_oracle(self):
        for g in random_connected_graphs(25):
            d = g.dist()
            for u in range(g.n):
                for v in range(g.n):
                    assert d[u][v] == brute_distance(g, u, v)

    def test_symmetric_zero_diagonal(self):
        for g in random_connected_graphs(10):
            d = g.dist()
            assert all(d[u][u] == 0 for u in range(g.n))
            assert all(d[u][v] == d[v][u] for u in range(g.n) for v in range(g.n))

    def test_loops_and_multiedges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
        assert g.edge_count() == 2
        assert hop_distance(g, 0, 2) == 2


class TestInterval:
    def test_degenerate(self):
        assert interval(corpus.cycle(5), 3, 3) == [3]

    def test_c4_opposite_is_everything(self):
        assert interval(corpus.cycle(4), 0, 2) == [0, 1, 2, 3]

    def test_tree_unique_geodesic(self):
        g = corpus.path(6)
        assert interval(g, 1, 4) == [1, 2, 3, 4]

    def test_equals_union_of_geodesics(self):
        for g in random_connected_graphs(20, n_hi=9, seed=5):
            d = g.dist()
            for u in range(g.n):
                for v in range(g.n):
                    paths = enumerate_geodesics(g.adj, d[v], u)
                    union = sorted({z for p in paths for z in p})
                    assert union == interval(g, u, v)


class TestPowerGraph:
    def test_power_one_is_identity(self):
        g = corpus.cycle(6)
        assert power_graph(g, 1) == g

    def test_p5_power4_complete(self):
        assert power_graph(corpus.path(5), 4) == corpus.complete(5)

    def test_c6_power2_antipodes(self):
        g2 = power_graph(corpus.cycle(6), 2)
        assert hop_distance(g2, 0, 3) == 2

    def test_zero_power_rejected(self):
        with pytest.raises(GraphError):
            power_graph(corpus.cycle(4), 0)

    def test_distance_law(self):
        for g in random_connected_graphs(15):
            d = g.dist()
            for k in (2, 3, 4):
                gk = power_graph(g, k)
                dk = gk.dist()
                for u in range(g.n):
                    for v in range(g.n):
                        assert dk[u][v] == -(-d[u][v] // k)

    def test_ball_scaling(self):
        def ball(h, center, rho):
            return [v for v, d in enumerate(h.dist()[center]) if d <= rho]

        for g in random_connected_graphs(10, seed=17):
            for k in (2, 3):
                gk = power_graph(g, k)
                for rho in (0, 1, 2):
                    for w in range(g.n):
                        assert ball(gk, w, rho) == ball(g, w, rho * k)


class TestFullSubgraph:
    def test_whole_vertex_set(self):
        g = corpus.cycle(5)
        sub, index = full_subgraph(g, range(5))
        assert sub == g and index == {v: v for v in range(5)}

    def test_c4_minus_vertex_is_p3(self):
        sub, _ = full_subgraph(corpus.cycle(4), [0, 1, 2])
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_king_grid_band(self):
        g = corpus.king_grid(5, 5)
        middle_row = [2 * 5 + x for x in range(5)]
        closed = sorted({w for v in middle_row for w in g.adj[v]} | set(middle_row))
        sub, _ = full_subgraph(g, closed)
        assert sub.n == 15 and sub.is_connected()

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            full_subgraph(corpus.cycle(6), [0, 3])


class TestIsometricSubgraph:
    def test_identity_embedding(self):
        g = corpus.king_grid(3, 3)
        ok, witness = is_isometric_subgraph(g, list(range(g.n)), g)
        assert ok and witness is None

    def test_p5_in_c6_fails(self):
        # five consecutive cycle vertices: path distance 4, cycle distance 2
        ok, witness = is_isometric_subgraph(corpus.path(5), [0, 1, 2, 3, 4],
                                            corpus.cycle(6))
        assert not ok
        assert witness == (0, 4)

    def test_subtree_of_tree(self):
        g = corpus.random_tree(9, 2)
        sub, index = full_subgraph(g, interval(g, 0, 5))
        back = sorted(index, key=index.get)
        ok, _ = is_isometric_subgraph(sub, back, g)
        assert ok

    def test_non_edge_preserving_rejected(self):
        with pytest.raises(GraphError):
            is_isometric_subgraph(corpus.path(3), [0, 2, 4], corpus.cycle(6))

    def test_matches_all_pairs_on_random_induced_subgraphs(self):
        # the BFS from the embedded vertices against the all-pairs matrices:
        # same verdict and the same first failing pair
        rng = random.Random(5)
        verdicts = []
        for _ in range(200):
            g = corpus.random_connected(rng.randint(4, 12), rng.randint(0, 8),
                                        rng.randrange(10 ** 6))
            try:
                sub, index = full_subgraph(g, rng.sample(range(g.n), g.n // 2 + 1))
            except GraphError:
                continue  # a disconnected piece
            back = sorted(index, key=index.get)
            d, ds = g.dist(), sub.dist()
            first = next(((u, v) for u in range(sub.n) for v in range(u + 1, sub.n)
                          if ds[u][v] != d[back[u]][back[v]]), None)
            assert is_isometric_subgraph(sub, back, g) == (first is None, first)
            verdicts.append(first is None)
        assert 20 <= sum(verdicts) <= len(verdicts) - 20


class TestClassifyPath:
    """Paths in the hop metric against satisfies_quasigeodesic."""

    def test_single_edge(self):
        assert satisfies_quasigeodesic(hop_rows(corpus.cycle(5)), [0, 1], 1, 0)

    def test_c6_four_arc(self):
        # endpoints at distance 2; not geodesic but a (2,0)-quasigeodesic
        g = corpus.cycle(6)
        arc = [0, 1, 2, 3, 4]
        assert hop_distance(g, 0, 4) == 2 < len(arc) - 1
        assert satisfies_quasigeodesic(hop_rows(g), arc, 2, 0)
        assert not satisfies_quasigeodesic(hop_rows(g), arc, 1, 1)

    def test_geodesics_are_quasigeodesic_for_all_params(self):
        rng = random.Random(1)
        for g in random_connected_graphs(10, seed=21):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            d = g.dist()
            paths = enumerate_geodesics(g.adj, d[v], u)
            for p in paths[:5]:
                for lam, c in ((1, 0), (1, 3), (2, 0), (3, 2)):
                    assert satisfies_quasigeodesic(hop_rows(g), p, lam, c)


class TestHausdorff:
    """hausdorff, and the directed distance it is the larger of, over the hop
    metric."""

    def test_equal_sets(self):
        assert hausdorff(hop_rows(corpus.cycle(6)), [0, 2], [0, 2]) == 0

    def test_antipodes(self):
        assert hausdorff(hop_rows(corpus.cycle(6)), [0], [3]) == 3

    def test_two_antipodal_arcs(self):
        # the two geodesics between antipodes of C6 stay 1 apart
        assert hausdorff(hop_rows(corpus.cycle(6)), [0, 1, 2, 3], [0, 5, 4, 3]) == 1

    def test_four_arc_vs_geodesic(self):
        # frozen from the metric: arc vertex 2 is 2 from {0,5,4}, 5 is 1 from the arc
        g = corpus.cycle(6)
        assert directed_hausdorff(hop_rows(g), [0, 1, 2, 3, 4], [0, 5, 4]) == 2
        assert directed_hausdorff(hop_rows(g), [0, 5, 4], [0, 1, 2, 3, 4]) == 1
        assert hausdorff(hop_rows(g), [0, 5, 4], [0, 1, 2, 3, 4]) == 2

    def test_symmetry_and_zero_iff_equal(self):
        rng = random.Random(7)
        for g in random_connected_graphs(10, seed=31):
            a = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            b = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            row = hop_rows(g)
            assert (directed_hausdorff(row, a, b) == 0) == set(a).issubset(b)
            assert (directed_hausdorff(row, b, a) == 0) == set(b).issubset(a)
            assert hausdorff(row, a, b) == hausdorff(row, b, a)
            assert (hausdorff(row, a, b) == 0) == (set(a) == set(b))


def directed_slim(row, p, q, r):
    """The slim constant as its definition reads: each side's directed
    distance to the union of the other two."""
    return max(directed_hausdorff(row, p, (*q, *r)),
               directed_hausdorff(row, q, (*r, *p)),
               directed_hausdorff(row, r, (*p, *q)))


class TestAgainstDirectedDefinitions:
    """hausdorff and slim_constant compute each cross distance once; they
    must agree with the directed terms on the hop metric and on both group
    metrics, on sequences with repeats and on single points."""

    @staticmethod
    def check(row, points, rng, rounds):
        for _ in range(rounds):
            a, b, c = ([rng.choice(points) for _ in range(rng.randint(1, 7))]
                       for _ in range(3))
            assert hausdorff(row, a, b) == max(directed_hausdorff(row, a, b),
                                               directed_hausdorff(row, b, a))
            assert slim_constant(row, a, b, c) == directed_slim(row, a, b, c)

    def test_hop_metric(self):
        rng = random.Random(17)
        for g in random_connected_graphs(20, seed=41):
            self.check(hop_rows(g), range(g.n), rng, 10)

    def test_group_metrics(self):
        rng = random.Random(18)
        for spec in (corpus.group_z2_z3(), corpus.group_zsq_z2(),
                     corpus.free_product(["cyclic:2"], free_rank=1)):
            points = [random_element(spec, rng, rng.randint(0, 5))
                      for _ in range(40)]
            for row in (spec.x_row, spec.rel_row):
                self.check(row, points, rng, 60)


class TestGeodesicEnumeration:
    def test_counts_match_dp(self):
        for g in random_connected_graphs(15, n_hi=9, seed=13):
            d = g.dist()
            for u in range(g.n):
                for v in range(g.n):
                    paths = enumerate_geodesics(g.adj, d[v], u)
                    assert len(paths) == count_geodesics(g.adj, d[v], u)
                    assert paths == sorted(paths) and len(set(paths)) == len(paths)
                    assert all(p[0] == u and p[-1] == v and len(p) == d[u][v] + 1
                               and all(b in g.adj[a] for a, b in zip(p, p[1:]))
                               for p in paths)

    def test_unreachable_pair_has_none(self):
        # a row that leaves u unreached, from a disconnected graph or a BFS
        # from 3 stopped at depth 2, below d(0, 3)
        split, path = Graph(4, [(0, 1), (2, 3)]).adj, corpus.path(4).adj
        for adj, dv in ((split, bfs_row(split, 3)), (path, [-1, 2, 1, 0])):
            assert enumerate_geodesics(adj, dv, 0) == []
            assert count_geodesics(adj, dv, 0) == 0

    def test_cap_raises_loudly(self):
        # hypercube-ish king power has many geodesics between far corners
        g = corpus.grid(4, 4)
        d = g.dist()
        with pytest.raises(GeodesicCapExceeded, match="more than 3 geodesics"):
            enumerate_geodesics(g.adj, d[15], 0, cap=3)
        # the 20 corner-to-corner geodesics: a cap of 20 binds none of them
        with pytest.raises(GeodesicCapExceeded):
            enumerate_geodesics(g.adj, d[15], 0, cap=19)
        paths = enumerate_geodesics(g.adj, d[15], 0, cap=20)
        assert len(paths) == 20 == count_geodesics(g.adj, d[15], 0)


def thin_slim(g):
    """Max thin and slim constants over every geodesic triangle of g."""
    d, row = g.dist(), hop_rows(g)
    geos = {(u, v): enumerate_geodesics(g.adj, d[v], u)
            for u in range(g.n) for v in range(g.n)}
    triangles = [(p, q, r) for a, b, c in itertools.product(range(g.n), repeat=3)
                 for p in geos[a, b] for q in geos[b, c] for r in geos[c, a]]
    return (max(thin_constant(row, *t) for t in triangles),
            max(slim_constant(row, *t) for t in triangles))


class TestThinness:
    def test_trees_are_zero_thin(self):
        for seed in range(4):
            assert thin_slim(corpus.random_tree(8, seed)) == (0, 0)

    def test_c6_slim_one(self):
        # antipodal bigon corners sit 2 apart
        assert thin_slim(corpus.cycle(6)) == (2, 1)

    def test_complete_graphs_thin(self):
        for n in (3, 4, 5):
            assert thin_slim(corpus.complete(n))[0] <= 1


class TestCorpusSizes:
    # a size below 1 is rejected as corpus.generate rejects it, not passed
    # on: random_tree(0) used to fail in heappop, and grid(-1, -1) and
    # king_grid(-1, -1) to give one vertex, as (-1) * (-1) = 1
    @pytest.mark.parametrize("build", [
        lambda: corpus.random_tree(0, 3), lambda: corpus.random_tree(-2, 3),
        lambda: corpus.random_connected(0, 1, 3),
        lambda: corpus.grid(-1, -1), lambda: corpus.grid(0, 4),
        lambda: corpus.grid(4, 0), lambda: corpus.king_grid(-1, -1),
        lambda: corpus.king_grid(0, 3), lambda: corpus.king_grid(3, -2),
    ])
    def test_size_below_one_raises(self, build):
        with pytest.raises(GraphError, match=">= 1"):
            build()

    @pytest.mark.parametrize("build, n, m", [
        (lambda: corpus.random_tree(1, 3), 1, 0),
        (lambda: corpus.random_tree(2, 3), 2, 1),
        (lambda: corpus.grid(1, 1), 1, 0), (lambda: corpus.grid(1, 3), 3, 2),
        (lambda: corpus.king_grid(1, 1), 1, 0),
        (lambda: corpus.king_grid(2, 2), 4, 6),
    ])
    def test_size_one_still_builds(self, build, n, m):
        g = build()
        assert (g.n, g.edge_count()) == (n, m)

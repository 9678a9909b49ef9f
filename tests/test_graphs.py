"""Graph core: metric, balls, intervals, powers, quasigeodesic paths, and the
Hausdorff and thin/slim constants over distance rows."""

import itertools
import random

import pytest

from hellykit import corpus
from hellykit.graphs import (Graph, GeodesicCapExceeded, GraphError,
                             NotConnectedError, ball, count_geodesics,
                             directed_hausdorff, enumerate_geodesics,
                             full_subgraph, interval, is_isometric_subgraph,
                             power_graph, satisfies_quasigeodesic, slim_constant,
                             thin_constant)


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
        assert g.d(0, 2) == 2

    def test_complete(self):
        g = corpus.complete(4)
        d = g.dist()
        assert all(d[u][v] == 1 for u in range(4) for v in range(4) if u != v)

    def test_cycle_diameter(self):
        assert corpus.cycle(6).d(0, 3) == 3

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
        assert g.d(0, 2) == 2


class TestBall:
    def test_c4_radius_one(self):
        g = corpus.cycle(4)
        assert ball(g, 0, 1) == [0, 1, 3]

    def test_radius_zero(self):
        assert ball(corpus.cycle(5), 2, 0) == [2]

    def test_diameter_covers_all(self):
        g = corpus.random_tree(9, 5)
        assert ball(g, 0, g.diameter()) == list(range(9))

    def test_c6_radius_two_has_five(self):
        assert len(ball(corpus.cycle(6), 0, 2)) == 5


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
                    paths, _ = enumerate_geodesics(g.adj, d[u], d[v])
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
        assert g2.d(0, 3) == 2

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
        assert satisfies_quasigeodesic(corpus.cycle(5).rows(), [0, 1], 1, 0)

    def test_c6_four_arc(self):
        # endpoints at distance 2; not geodesic but a (2,0)-quasigeodesic
        g = corpus.cycle(6)
        arc = [0, 1, 2, 3, 4]
        assert g.d(0, 4) == 2 < len(arc) - 1
        assert satisfies_quasigeodesic(g.rows(), arc, 2, 0)
        assert not satisfies_quasigeodesic(g.rows(), arc, 1, 1)

    def test_geodesics_are_quasigeodesic_for_all_params(self):
        rng = random.Random(1)
        for g in random_connected_graphs(10, seed=21):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            d = g.dist()
            paths, _ = enumerate_geodesics(g.adj, d[u], d[v], cap=50,
                                           allow_truncate=True)
            for p in paths[:5]:
                for lam, c in ((1, 0), (1, 3), (2, 0), (3, 2)):
                    assert satisfies_quasigeodesic(g.rows(), p, lam, c)


def hausdorff(g, a, b):
    row = g.rows()
    return max(directed_hausdorff(row, a, b), directed_hausdorff(row, b, a))


class TestHausdorff:
    """directed_hausdorff in both directions over the hop metric."""

    def test_equal_sets(self):
        assert hausdorff(corpus.cycle(6), [0, 2], [0, 2]) == 0

    def test_antipodes(self):
        assert hausdorff(corpus.cycle(6), [0], [3]) == 3

    def test_two_antipodal_arcs(self):
        # the two geodesics between antipodes of C6 stay 1 apart
        assert hausdorff(corpus.cycle(6), [0, 1, 2, 3], [0, 5, 4, 3]) == 1

    def test_four_arc_vs_geodesic(self):
        # frozen from the metric: arc vertex 2 is 2 from {0,5,4}, 5 is 1 from the arc
        g = corpus.cycle(6)
        assert directed_hausdorff(g.rows(), [0, 1, 2, 3, 4], [0, 5, 4]) == 2
        assert directed_hausdorff(g.rows(), [0, 5, 4], [0, 1, 2, 3, 4]) == 1

    def test_symmetry_and_zero_iff_equal(self):
        rng = random.Random(7)
        for g in random_connected_graphs(10, seed=31):
            a = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            b = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            row = g.rows()
            assert (directed_hausdorff(row, a, b) == 0) == set(a).issubset(b)
            assert (directed_hausdorff(row, b, a) == 0) == set(b).issubset(a)


class TestGeodesicEnumeration:
    def test_counts_match_dp(self):
        for g in random_connected_graphs(15, n_hi=9, seed=13):
            d = g.dist()
            for u in range(g.n):
                for v in range(g.n):
                    paths, truncated = enumerate_geodesics(g.adj, d[u], d[v])
                    assert not truncated
                    assert len(paths) == count_geodesics(g.adj, d[u], d[v])

    def test_cap_raises_loudly(self):
        # hypercube-ish king power has many geodesics between far corners
        g = corpus.grid(4, 4)
        d = g.dist()
        with pytest.raises(GeodesicCapExceeded):
            enumerate_geodesics(g.adj, d[0], d[15], cap=3)
        paths, truncated = enumerate_geodesics(g.adj, d[0], d[15], cap=3,
                                               allow_truncate=True)
        assert truncated and len(paths) == 3


def thin_slim(g):
    """Max thin and slim constants over every geodesic triangle of g."""
    d, row = g.dist(), g.rows()
    geos = {(u, v): enumerate_geodesics(g.adj, d[u], d[v])[0]
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

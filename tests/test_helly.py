"""Helly recognition: extremal functions against a box-search oracle, the
polynomial decider against the enumeration verdict and the brute-force family
oracle, the bitset clique-Helly test and stable-interval constant against the
per-triangle and interval oracles they replaced, coarse constants,
pseudo-modularity, stable intervals, Hellyfication postconditions, and ξ
read off the Helly hull."""

import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx import is_connected
from networkx.generators.atlas import graph_atlas_g

from hellykit import corpus, helly
from hellykit.graphs import Graph, power_graph
from hellykit.helly import (SizeBoundExceeded, analyze, clique_helly,
                            coarse_helly_constant, decide_helly, dismantlable,
                            extremal_functions, hellyfication, is_helly,
                            is_pseudo_modular, stable_interval_constant)
from oracles import (ORACLE_VERTEX_BOUND, _witness, _xi,
                     clique_helly_per_triangle, diameter, helly_oracle_bruteforce,
                     hull_depth, stable_interval_hausdorff,
                     stable_interval_oracle)


def box_extremal_oracle(g):
    """Independent enumeration: every function in the eccentricity box,
    filtered to feasible ones, then to pointwise-minimal ones by comparison."""
    d = g.dist()
    n = g.n
    ecc = [max(row) for row in d]
    feasible = []
    for vals in itertools.product(*(range(e + 1) for e in ecc)):
        if all(vals[u] + vals[v] >= d[u][v] for u in range(n) for v in range(u, n)):
            feasible.append(vals)
    out = []
    for f in feasible:
        if not any(g2 != f and all(a <= b for a, b in zip(g2, f)) for g2 in feasible):
            out.append(f)
    return sorted(out)


def ordered_extremal_oracle(g, order):
    """Independent enumeration in `order`, ascending: every function into the
    eccentricity box that is feasible and 1-Lipschitz against the vertices
    before it, kept when it satisfies the fixed-point identity.  Tuples of
    values in `order`, so the list is in lexicographic order."""
    d = g.dist()
    out = []

    def extend(f):
        if len(f) == g.n:
            if all(fv == max(d[u][v] - fu for u, fu in zip(order, f))
                   for v, fv in zip(order, f)):
                out.append(tuple(f))
            return
        v = order[len(f)]
        for x in range(max(d[v]) + 1):
            if all(abs(x - fu) <= d[u][v] <= x + fu for u, fu in zip(order, f)):
                extend(f + [x])

    extend([])
    return out


def coarse_oracle(g):
    """Needed inflation, maximized over the oracle's minimal families."""
    d = g.dist()
    xi = 0
    for f in box_extremal_oracle(g):
        xi = max(xi, min(max(max(0, d[x][v] - f[v]) for v in range(g.n))
                         for x in range(g.n)))
    return xi


def coarse_oracle_unreduced(g):
    """Reduction-free inflation oracle: every nonempty center subset and every
    radius vector up to the diameter.  Exponential; tiny graphs only."""
    d = g.dist()
    n, diam = g.n, diameter(g)
    worst = 0
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            for radii in itertools.product(range(diam + 1), repeat=size):
                fam = list(zip(centers, radii))
                if all(r1 + r2 >= d[s1][s2] for s1, r1 in fam for s2, r2 in fam):
                    need = min(max(max(0, d[x][s] - r) for s, r in fam)
                               for x in range(n))
                    worst = max(worst, need)
    return worst


def small_random_graphs(count, n_lo, n_hi, seed):
    rng = random.Random(seed)
    return [corpus.random_connected(rng.randint(n_lo, n_hi), rng.randint(0, 4),
                                    rng.randrange(10 ** 6))
            for _ in range(count)]


@st.composite
def connected_graphs(draw, max_n=6):
    """A spanning tree (each vertex hangs off an earlier one) plus any subset
    of the remaining pairs, on 1..max_n vertices."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in edges]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return Graph(n, sorted(edges) + extra)


# derandomized and without an example database, so a tier-1 run is
# reproducible and leaves no files behind
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


class TestProperties:
    @PROPERTY
    @given(connected_graphs())
    def test_extremal_functions_match_box_oracle(self, g):
        fs = extremal_functions(g)
        assert fs == box_extremal_oracle(g)
        d = g.dist()
        for f in fs:
            for v in range(g.n):
                assert f[v] == max(d[u][v] - f[u] for u in range(g.n))

    @PROPERTY
    @given(connected_graphs())
    def test_coarse_constant_matches_oracle(self, g):
        assert coarse_helly_constant(g) == coarse_oracle(g)

    @PROPERTY
    @given(connected_graphs())
    def test_coarse_constant_is_the_hull_depth(self, g):
        assert coarse_helly_constant(g) == hull_depth(g)


class TestExtremalFunctions:
    def test_k2(self):
        assert extremal_functions(corpus.complete(2)) == [(0, 1), (1, 0)]

    def test_c4_five_functions(self):
        fs = extremal_functions(corpus.cycle(4))
        assert len(fs) == 5
        assert (1, 1, 1, 1) in fs

    def test_p3_distance_rows_only(self):
        g = corpus.path(3)
        assert extremal_functions(g) == sorted(g.dist())

    def test_matches_box_oracle(self):
        graphs = [corpus.cycle(n) for n in (3, 4, 5, 6)]
        graphs += [corpus.path(n) for n in (2, 4, 5)]
        graphs += [corpus.star(3), corpus.complete(4), corpus.grid(2, 3)]
        graphs += small_random_graphs(10, 4, 6, seed=3)
        for g in graphs:
            assert extremal_functions(g) == box_extremal_oracle(g)

    def test_contains_distance_rows(self):
        for g in small_random_graphs(10, 4, 8, seed=4):
            fs = set(extremal_functions(g))
            assert set(g.dist()) <= fs

    def test_fixed_point_identity(self):
        for g in small_random_graphs(10, 4, 8, seed=5):
            d = g.dist()
            for f in extremal_functions(g):
                for v in range(g.n):
                    assert f[v] == max(d[u][v] - f[u] for u in range(g.n))

    def test_size_guard(self):
        with pytest.raises(SizeBoundExceeded, match="bounded to 14 vertices"):
            extremal_functions(corpus.king_grid(4, 4))
        # a larger bound passed explicitly lifts it, without a warning
        assert extremal_functions(corpus.path(15), max_vertices=15)

    # sha256 of repr() of the sorted list on C16 (3,281 functions) and on the
    # 41-vertex Hellyfication output of C8 (41 functions, its distance rows)
    @pytest.mark.parametrize("graph, digest", [
        (lambda: corpus.cycle(16),
         "e127a270338ce9b62b55ff701348835ff9b31bec86459c0b066f7f2132a1cb0f"),
        (lambda: hellyfication(corpus.cycle(8))[0],
         "7b045ff6813ad5a606aa6235e5f07ef1933873bb8414dcf3274e344cfc3454e8"),
    ], ids=["c16", "hull-c8"])
    def test_pinned_list_digest(self, graph, digest):
        g = graph()
        fs = extremal_functions(g, max_vertices=g.n)
        assert hashlib.sha256(repr(fs).encode()).hexdigest() == digest


def cycles_with_chords(count, seed):
    """Seeded cycles on 8 to 11 vertices, each with one to three chords."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(8, 11)
        chords = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 3))]
        out.append(Graph(n, [(i, (i + 1) % n) for i in range(n)] + chords))
    return out


SEARCH_INPUTS = corpus.standard_corpus() + [
    (f"chorded{i}", g) for i, g in enumerate(cycles_with_chords(4, 37))]


class TestExtremalSearch:
    """The generator behind the three searches, against an independent
    enumeration, and on inputs deeper than Python's recursion limit."""

    @pytest.mark.parametrize("g", [g for _, g in SEARCH_INPUTS],
                             ids=[name for name, _ in SEARCH_INPUTS])
    def test_floor_t_yields_the_leaves_with_min_at_least_t(self, g):
        for order in (helly._bfs_order(g), list(range(g.n))):
            leaves = ordered_extremal_oracle(g, order)
            for t in range(max(map(max, g.dist())) + 1):
                got = list(helly._extremal_search(g, order, t))
                assert got == [f for f in leaves if min(f) >= t]

    def test_witness_past_the_recursion_limit(self):
        g = corpus.cycle(1100)
        helly_, witness = is_helly(g, max_vertices=1100)
        assert not helly_
        assert [s for s, _ in witness] == list(range(1100))
        assert_pairwise_intersecting_without_common_vertex(g, witness)

    def test_witness_search_memory(self):
        # the Lipschitz rows are made as values are tried; making every row
        # first, for every value up to the eccentricity, takes about 60 MiB
        g = corpus.cycle(300)
        g.dist()
        tracemalloc.start()
        try:
            helly._witness_search(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


class TestIsHelly:
    def test_trees(self):
        for seed in range(5):
            helly, witness = is_helly(corpus.random_tree(10, seed))
            assert helly and witness is None

    def test_c4_with_unit_ball_witness(self):
        helly, witness = is_helly(corpus.cycle(4))
        assert not helly
        assert witness == ((0, 1), (1, 1), (2, 1), (3, 1))
        radii = dict(witness)
        assert radii == {0: 1, 1: 1, 2: 1, 3: 1}
        # the witness family pairwise intersects but has empty intersection
        g = corpus.cycle(4)
        d = g.dist()
        assert all(radii[u] + radii[v] >= d[u][v] for u in radii for v in radii)
        assert not any(all(d[x][v] <= radii[v] for v in radii) for x in range(4))

    def test_complete_graphs(self):
        for n in (2, 3, 5, 7):
            assert is_helly(corpus.complete(n))[0]

    def test_king_grids(self):
        assert is_helly(corpus.king_grid(3, 3))[0]
        assert is_helly(corpus.king_grid(4, 3), max_vertices=12)[0]


def enumeration_verdict(g):
    """Helly by enumeration: every extremal function is a distance row."""
    return _witness(g, extremal_functions(g, max_vertices=g.n)) is None


def assert_deciders_agree(g, oracle_bound=ORACLE_VERTEX_BOUND):
    """decide_helly, the enumeration verdict and, on at most oracle_bound
    vertices, the brute-force oracle give one verdict, which is returned."""
    verdict = decide_helly(g)
    assert enumeration_verdict(g) == verdict
    if g.n <= oracle_bound:
        assert helly_oracle_bruteforce(g, max_vertices=oracle_bound) == verdict
    return verdict


def three_sun():
    """The 3-sun (Hajos graph): triangle 0 1 2 with an ear on each side."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4),
                     (0, 5), (2, 5)])


class TestDecideHelly:
    """The Bandelt-Prisner decider against the two enumerating deciders.  The
    brute-force oracle searches all ball families and takes up to 30 s on a
    single sparse 11-vertex graph, so it joins only on small graphs."""

    def test_atlas(self):
        graphs = atlas_connected_graphs()
        assert len(graphs) == 996
        assert sum(assert_deciders_agree(g) for g in graphs) == 440

    def test_random_graphs(self):
        rng = random.Random(23)
        verdicts = []
        for _ in range(300):
            n = rng.randint(7, 11)
            g = corpus.random_connected(n, rng.randint(0, 3 * n),
                                        rng.randrange(10 ** 6))
            verdicts.append(assert_deciders_agree(g))
        assert 50 <= sum(verdicts) <= 250  # both verdicts well represented

    @PROPERTY
    @given(connected_graphs(max_n=10))
    def test_property(self, g):
        assert_deciders_agree(g)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_cycle_hulls(self, n):
        # 41, 37 and 122 vertices: beyond the brute-force oracle
        assert assert_deciders_agree(hellyfication(corpus.cycle(n))[0])

    def test_king_grids(self):
        for w, h in ((2, 2), (3, 3), (4, 3), (4, 4), (5, 5)):
            assert assert_deciders_agree(corpus.king_grid(w, h), oracle_bound=12)

    def test_three_sun_dismantlable_not_clique_helly(self):
        g = three_sun()
        assert dismantlable(g)
        assert not clique_helly(g)
        assert not assert_deciders_agree(g)

    def test_c4_clique_helly_not_dismantlable(self):
        g = corpus.cycle(4)
        assert clique_helly(g)
        assert not dismantlable(g)
        assert not assert_deciders_agree(g)

    def test_helly_graph_above_the_bound(self):
        # only the enumeration is bounded, and a Helly graph needs none
        g = corpus.king_grid(4, 4)
        assert is_helly(g) == (True, None)
        assert coarse_helly_constant(g) == 0
        assert analyze(g)["xi"] == 0
        for decide in (is_helly, coarse_helly_constant, analyze):
            with pytest.raises(SizeBoundExceeded):
                decide(corpus.cycle(16))

    def test_disagreement_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(helly, "decide_helly", lambda g: False)
        for decide in (is_helly, coarse_helly_constant, analyze):
            with pytest.raises(AssertionError, match="deciders disagree"):
                decide(corpus.king_grid(3, 3))


class TestBruteForceOracle:
    def test_c4_false(self):
        assert not helly_oracle_bruteforce(corpus.cycle(4))

    def test_c3_true(self):
        assert helly_oracle_bruteforce(corpus.cycle(3))

    def test_star_true(self):
        assert helly_oracle_bruteforce(corpus.star(3))

    def test_agrees_with_extremal_method(self):
        graphs = [corpus.cycle(n) for n in (3, 4, 5, 6, 7)]
        graphs += [corpus.grid(2, 3), corpus.wheel(5), corpus.king_grid(2, 2)]
        graphs += small_random_graphs(40, 4, 7, seed=6)
        for g in graphs:
            assert helly_oracle_bruteforce(g) == enumeration_verdict(g)


def assert_searches_match_enumeration(g):
    """The witness and xi searches against the full enumeration oracles; a
    witness is a pairwise intersecting ball family with no common vertex.
    Returns xi."""
    fs = extremal_functions(g, max_vertices=g.n)
    xi = coarse_helly_constant(g)
    assert xi == _xi(g, fs)
    helly_, witness = is_helly(g)
    assert witness == _witness(g, fs)
    assert helly_ == (xi == 0)
    if witness is not None:
        assert_pairwise_intersecting_without_common_vertex(g, witness)
    return xi


def assert_pairwise_intersecting_without_common_vertex(g, family):
    d = g.dist()
    assert all(r + q >= d[s][t] for s, r in family for t, q in family)
    assert not any(all(d[x][s] <= r for s, r in family) for x in range(g.n))


def four_point_delta2(g):
    """Twice the four-point hyperbolicity constant: over all quadruples, the
    largest of the three pair sums d(x,y)+d(z,w) minus the second largest."""
    d = g.dist()
    worst = 0
    for x, y, z, w in itertools.combinations(range(g.n), 4):
        sums = sorted((d[x][y] + d[z][w], d[x][z] + d[y][w], d[x][w] + d[y][z]))
        worst = max(worst, sums[2] - sums[1])
    return worst


class TestSearches:
    """The witness and xi searches against the enumeration they replace, and
    the laws they obey."""

    def test_atlas(self):
        graphs = atlas_connected_graphs()
        xis = [assert_searches_match_enumeration(g) for g in graphs]
        assert sum(xi == 0 for xi in xis) == 440

    def test_random_graphs(self):
        rng = random.Random(29)
        xis = []
        for _ in range(300):
            n = rng.randint(7, 11)
            g = corpus.random_connected(n, rng.randint(0, 3 * n),
                                        rng.randrange(10 ** 6))
            xis.append(assert_searches_match_enumeration(g))
        assert 50 <= sum(xi == 0 for xi in xis) <= 250
        assert max(xis) >= 2

    @PROPERTY
    @given(connected_graphs(max_n=10))
    def test_property(self, g):
        assert_searches_match_enumeration(g)

    @pytest.mark.parametrize("n", range(3, 29))
    def test_cycle_xi_is_quarter_length(self, n):
        g = corpus.cycle(n)
        xi = coarse_helly_constant(g, max_vertices=28)
        helly_, witness = is_helly(g, max_vertices=28)
        fs = extremal_functions(g, max_vertices=16) if n <= 16 else None
        assert xi == n // 4
        assert helly_ == (n == 3)
        if witness is not None:
            assert_pairwise_intersecting_without_common_vertex(g, witness)
        if fs is not None:
            assert xi == _xi(g, fs)
            assert witness == _witness(g, fs)

    def test_xi_at_most_twice_four_point_delta(self):
        # Lang (2013, Prop. 1.3): the injective hull of a delta-hyperbolic
        # space lies within 2 delta of it.  The bound is a cap, not the
        # answer: it is tight on 26 of the 556 non-Helly graphs
        non_helly = tight = 0
        for g in atlas_connected_graphs():
            xi, bound = coarse_helly_constant(g), four_point_delta2(g)
            assert xi <= bound
            if xi:
                non_helly += 1
                tight += xi == bound
        assert (non_helly, tight) == (556, 26)

    def test_analyze_decides_helly_once(self, monkeypatch):
        calls = []
        decide = helly.decide_helly
        monkeypatch.setattr(helly, "decide_helly",
                            lambda g: calls.append(g) or decide(g))
        for g in (corpus.cycle(6), corpus.king_grid(3, 3)):
            calls.clear()
            analyze(g)
            assert len(calls) == 1

    def test_size_bound_is_silent_below_it(self):
        # the searches keep the enumeration's bound: above it they raise,
        # within it they answer, and warn in neither case (a UserWarning
        # fails the suite)
        with pytest.raises(SizeBoundExceeded, match="bounded to 15 vertices"):
            analyze(corpus.cycle(16), max_vertices=15)
        assert analyze(corpus.cycle(16), max_vertices=16)["xi"] == 4


class TestCoarseConstant:
    def test_zero_iff_helly(self):
        for g in small_random_graphs(20, 4, 7, seed=7):
            assert (coarse_helly_constant(g) == 0) == is_helly(g)[0]

    def test_c4(self):
        assert coarse_helly_constant(corpus.cycle(4)) == 1

    def test_cycles_match_oracle(self):
        for n in (3, 4, 5, 6, 7):
            g = corpus.cycle(n)
            assert coarse_helly_constant(g) == coarse_oracle(g)

    def test_random_match_oracle(self):
        for g in small_random_graphs(12, 4, 6, seed=8):
            assert coarse_helly_constant(g) == coarse_oracle(g)

    def test_unreduced_oracle_on_tiny_graphs(self):
        graphs = [corpus.cycle(4), corpus.cycle(5), corpus.path(4),
                  corpus.complete(4), corpus.star(3), corpus.grid(2, 3)]
        graphs += small_random_graphs(6, 4, 5, seed=12)
        for g in graphs:
            assert coarse_helly_constant(g) == coarse_oracle_unreduced(g)


def pseudo_modular_scan(g):
    """Reference decider: every triple of distinct centres with every triple
    of radii below the eccentricities, keeping the triples that pairwise
    intersect with every positive radius tight against a partner (shrinking
    radii keeps an empty intersection empty).  Returns (bool, the
    lexicographically first failing ((centre, radius), ...) triple)."""
    d = g.dist()
    n = g.n
    ecc = [max(row) for row in d]
    for x1, x2, x3 in itertools.combinations(range(n), 3):
        d12, d13, d23 = d[x1][x2], d[x1][x3], d[x2][x3]
        for r1, r2, r3 in itertools.product(range(max(ecc[x1], 1)),
                                            range(max(ecc[x2], 1)),
                                            range(max(ecc[x3], 1))):
            if r1 + r2 < d12 or r1 + r3 < d13 or r2 + r3 < d23:
                continue
            if (r1 != max(0, d12 - r2, d13 - r3)
                    or r2 != max(0, d12 - r1, d23 - r3)
                    or r3 != max(0, d13 - r1, d23 - r2)):
                continue
            if not any(d[x][x1] <= r1 and d[x][x2] <= r2 and d[x][x3] <= r3
                       for x in range(n)):
                return False, ((x1, r1), (x2, r2), (x3, r3))
    return True, None


def assert_pseudo_modular_matches_scan(g):
    pm, witness = is_pseudo_modular(g)
    assert pm == pseudo_modular_scan(g)[0]
    if pm:
        assert witness is None
        return
    # the witness is a real failure: three balls, sorted by centre, that
    # pairwise intersect and share no vertex
    d = g.dist()
    assert len(witness) == 3
    assert [c for c, _ in witness] == sorted({c for c, _ in witness})
    for (s, r), (t, q) in itertools.combinations(witness, 2):
        assert r + q >= d[s][t]
    assert not any(all(d[x][c] <= r for c, r in witness) for x in range(g.n))


def atlas_connected_graphs():
    """Every connected graph with 1..7 vertices, from the networkx atlas."""
    return [Graph(G.number_of_nodes(), list(G.edges()))
            for G in graph_atlas_g()
            if G.number_of_nodes() and is_connected(G)]


class TestPseudoModular:
    def test_c4(self):
        assert is_pseudo_modular(corpus.cycle(4))[0]

    def test_c6_witness(self):
        pm, witness = is_pseudo_modular(corpus.cycle(6))
        assert not pm
        assert witness == ((0, 1), (2, 1), (4, 1))
        assert pseudo_modular_scan(corpus.cycle(6))[1] == witness

    def test_matches_scan_on_atlas(self):
        graphs = atlas_connected_graphs()
        assert len(graphs) == 996
        for g in graphs:
            assert_pseudo_modular_matches_scan(g)

    def test_matches_scan_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(7, 11)
            g = corpus.random_connected(n, rng.randint(0, 3 * n),
                                        rng.randrange(10 ** 6))
            assert_pseudo_modular_matches_scan(g)

    @PROPERTY
    @given(connected_graphs(max_n=10))
    def test_matches_scan_property(self, g):
        assert_pseudo_modular_matches_scan(g)

    def test_helly_implies_pseudo_modular(self):
        for g in small_random_graphs(25, 4, 7, seed=9):
            helly = is_helly(g)[0]
            pm = is_pseudo_modular(g)[0]
            if helly:
                assert pm
            if not pm:
                assert coarse_helly_constant(g) >= 1


class TestStableIntervals:
    def test_trees_are_one(self):
        for seed in range(4):
            assert stable_interval_constant(corpus.random_tree(9, seed)) == 1

    def test_helly_samples_at_most_one(self):
        assert stable_interval_constant(corpus.complete(4)) <= 1
        assert stable_interval_constant(corpus.king_grid(3, 3)) <= 1

    def test_c6_value_and_oracle(self):
        g = corpus.cycle(6)
        assert stable_interval_constant(g) == 2
        assert stable_interval_oracle(g) == 2

    def test_matches_geodesic_oracle(self):
        for g in small_random_graphs(10, 4, 7, seed=10):
            assert stable_interval_constant(g) == stable_interval_oracle(g)


def assert_bitset_checks_match_oracles(g):
    """clique_helly and beta equal their per-triangle and interval/Hausdorff
    oracles; the clique-Helly verdict is returned."""
    verdict = clique_helly(g)
    assert clique_helly_per_triangle(g) == verdict
    assert stable_interval_constant(g) == stable_interval_hausdorff(g)
    return verdict


class TestBitsetChecks:
    """The bitset clique_helly and beta against the algorithms they replaced."""

    def test_atlas(self):
        graphs = atlas_connected_graphs()
        assert sum(assert_bitset_checks_match_oracles(g) for g in graphs) == 914

    def test_random_graphs(self):
        rng = random.Random(31)
        verdicts = []
        for _ in range(150):
            n = rng.randint(7, 16)
            g = corpus.random_connected(n, rng.randint(0, 3 * n),
                                        rng.randrange(10 ** 6))
            verdicts.append(assert_bitset_checks_match_oracles(g))
        assert 40 <= sum(verdicts) <= 110  # both verdicts well represented

    @PROPERTY
    @given(connected_graphs(max_n=10))
    def test_property(self, g):
        assert_bitset_checks_match_oracles(g)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_cycles(self, n):
        # beta(C_n) grows to 4 here; the atlas and random graphs stop at 2
        assert_bitset_checks_match_oracles(corpus.cycle(n))

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
    def test_cycle_hulls(self, n):
        # dense Helly graphs of 41 to 365 vertices, and a copy with a seeded
        # 2% of the edges removed, which is not clique-Helly
        hull = hellyfication(corpus.cycle(n))[0]
        rng = random.Random(n)
        damaged = Graph(hull.n, [e for e in hull.edges() if rng.random() > 0.02])
        for g, verdict in ((hull, True), (damaged, False)):
            assert clique_helly(g) == clique_helly_per_triangle(g) == verdict
        # the interval oracle takes about 0.5 s on the 41-vertex C8 hull and
        # 36 s on the 122-vertex C10 hull, so beta is compared on C8 and C9
        if hull.n <= 41:
            assert stable_interval_constant(hull) == stable_interval_hausdorff(hull) == 1


class TestHellyfication:
    def test_tree_fixed_point(self):
        g = corpus.random_tree(7, 1)
        out, embedding = hellyfication(g)
        assert out.n == g.n
        assert sorted(embedding) == list(range(g.n))

    def test_c4_becomes_wheel(self):
        out, embedding = hellyfication(corpus.cycle(4))
        assert out.n == 5
        assert sorted(len(a) for a in out.adj) == [3, 3, 3, 3, 4]
        hub = max(range(5), key=lambda v: len(out.adj[v]))
        rim = [v for v in range(5) if v != hub]
        assert all(hub in out.adj[v] for v in rim)

    def test_complete_fixed_point(self):
        out, _ = hellyfication(corpus.complete(4))
        assert out == corpus.complete(4)

    @pytest.mark.parametrize("n, cut", [(8, 1), (12, 1), (12, 2)])
    def test_corrupted_hull_trips_the_depth_postcondition(self, n, cut, monkeypatch):
        # the C8 and C12 hulls (ξ 2 and 3) less every function whose min is
        # cut, a middle layer: the deeper functions are cut off the image,
        # and the depth postcondition, which runs first, fails
        fs = helly.extremal_functions(corpus.cycle(n), max_vertices=n)
        kept = [f for f in fs if min(f) != cut]
        monkeypatch.setattr(helly, "extremal_functions", lambda g, max_vertices: kept)
        with pytest.raises(AssertionError, match="deep from the image"):
            hellyfication(corpus.cycle(n), max_vertices=n)

    def test_postconditions_on_random_graphs(self):
        # postconditions are asserted inside hellyfication itself
        for g in small_random_graphs(15, 4, 7, seed=11):
            out, embedding = hellyfication(g)
            assert out.n >= g.n

    def test_hull_depth_is_xi_on_atlas(self):
        for g in atlas_connected_graphs():
            assert hull_depth(g) == coarse_helly_constant(g), g.edges()

    def test_hull_depth_is_xi_on_random_graphs(self):
        for g in small_random_graphs(300, 4, 10, seed=23):
            assert hull_depth(g) == coarse_helly_constant(g), g.edges()

    def test_hull_depth_is_xi_on_cycles(self):
        # the atlas and the random graphs stop at ξ = 1; C8 and C12 reach
        # 2 and 3 (the C12 hull has 365 vertices)
        cycles = [corpus.cycle(n) for n in range(3, 13)]
        depths = list(map(hull_depth, cycles))
        assert depths == list(map(coarse_helly_constant, cycles))
        assert depths == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]

    def test_postconditions_on_corpus_up_to_eight(self):
        for name, g in corpus.standard_corpus():
            if g.n <= 8:
                out, _ = hellyfication(g, max_vertices=16)
                assert out.n >= g.n, name


class TestPowerLemmas:
    def test_helly_preserved_under_powers(self):
        helly_corpus = [g for _, g in corpus.standard_corpus()
                        if g.n <= 12 and is_helly(g, max_vertices=12)[0]]
        assert len(helly_corpus) >= 10
        for g in helly_corpus:
            for k in (2, 3):
                assert is_helly(power_graph(g, k), max_vertices=12)[0]

    def test_coarse_constant_bound(self):
        for name, g in corpus.standard_corpus():
            if g.n > 12:
                continue
            xi = coarse_helly_constant(g, max_vertices=12)
            for k in (2, 3):
                xik = coarse_helly_constant(power_graph(g, k), max_vertices=12)
                assert xik <= -(-xi // k), name

    def test_stable_interval_bound(self):
        for name, g in corpus.standard_corpus():
            beta = stable_interval_constant(g)
            for k in (2, 3):
                betak = stable_interval_constant(power_graph(g, k))
                assert betak <= 3 * beta + 1, name


class TestAnalyze:
    def test_report_shape(self):
        rep = analyze(corpus.cycle(6))
        assert not rep["is_helly"]
        assert rep["xi"] >= 1
        assert not rep["pseudo_modular"]
        assert rep["beta"] == 2
        assert rep["witness"] is not None

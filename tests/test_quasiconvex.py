"""Orbit subgraphs in power graphs and the two subgraph lemmas."""

import random
from fractions import Fraction

import pytest

from hellykit import corpus
from hellykit.gamma import GammaConfig, GammaWindow
from hellykit.graphs import GraphError
from hellykit.helly import SizeBoundExceeded, is_helly
from hellykit.quasiconvex import (SECTION5_VERTEX_BOUND, OrbitSpec, QGParams,
                                  build_delta, quasiconvexity_k, verify_section5)
from oracles import hop_distance


class _Stop(Exception):
    pass


def quasigeodesic_reference(g, orbit, lam, c, cap=None, stop=True):
    """(k, enumerated, explored, capped) by the defining inequality in exact
    Fraction arithmetic: every walk prefix, in adjacency order, whose steps
    all satisfy len(walk[i:j]) <= lam * d(walk[i], walk[j]) + c.  With
    `stop`, the walk ends once k reaches the orbit's covering radius; a walk
    past `cap` prefixes ends the search with capped set.  Without either,
    it is the exhaustive sweep."""
    d = g.dist()
    lam, c = Fraction(lam), Fraction(c)
    to_orbit = [min(d[v][w] for w in orbit) for v in range(g.n)]
    stats = {"k": 0, "enumerated": 0, "explored": 0, "capped": False}

    def walk_from(walk):
        if stats["explored"] == cap:
            stats["capped"] = True
            raise _Stop
        stats["explored"] += 1
        if walk[-1] in orbit:
            stats["enumerated"] += 1
            stats["k"] = max(stats["k"], max(to_orbit[v] for v in walk))
            if stop and stats["k"] == max(to_orbit):
                raise _Stop
        for w in g.adj[walk[-1]]:
            if all(len(walk) - i <= lam * d[v][w] + c for i, v in enumerate(walk)):
                walk_from(walk + [w])

    try:
        for w in sorted(set(orbit)):
            walk_from([w])
    except _Stop:
        pass
    return stats["k"], stats["enumerated"], stats["explored"], stats["capped"]


def covering_radius(g, orbit):
    d = g.dist()
    return max(min(d[v][w] for w in orbit) for v in range(g.n))


def king_lines(w, h):
    """Rows, columns and full-length diagonals of a w x h king grid."""
    def vid(x, y):
        return y * w + x
    lines = [[vid(x, y) for x in range(w)] for y in range(h)]
    lines += [[vid(x, y) for y in range(h)] for x in range(w)]
    m = min(w, h)
    for x0 in range(w - m + 1):
        lines.append([vid(x0 + i, i) for i in range(m)])
        lines.append([vid(x0 + i, h - 1 - i) for i in range(m)])
    return lines


def seeded_sweep_case(seed):
    """A cycle, king grid or random connected graph on 2-10 vertices, a
    random orbit, (lam, c) and cap."""
    rng = random.Random(seed)
    kind = rng.choice(("cycle", "king", "random"))
    if kind == "king":
        g = corpus.king_grid(*rng.choice([(w, h) for w in range(1, 11)
                                          for h in range(1, 11)
                                          if 2 <= w * h <= 10]))
    else:
        n = rng.randint(2, 10)
        g = corpus.cycle(n) if kind == "cycle" else corpus.random_connected(
            n, rng.randint(0, n), rng.randrange(2 ** 30))
    orbit = rng.sample(range(g.n), rng.randint(1, g.n))
    q = QGParams(rng.choice((1, Fraction(3, 2), 2, 5)),
                 rng.choice((0, Fraction(1, 2), 1, 2)))
    return g, orbit, q, rng.choice((30, 1000, 20000))


class TestQuasiconvexityK:
    def test_whole_vertex_set_is_zero(self):
        g = corpus.king_grid(3, 3)
        got = quasiconvexity_k(g, range(g.n), QGParams(1, 0))
        assert got.k == 0 and not got.capped

    def test_king_grid_row_geodesics(self):
        g = corpus.king_grid(5, 5)
        row = [2 * 5 + x for x in range(5)]
        got = quasiconvexity_k(g, row, QGParams(1, 0))
        assert not got.capped
        # rows are NOT geodesically convex: zigzag geodesics such as
        # (0,2)-(1,3)-(2,4)-(3,3)-(4,2) drift up to two rows away
        assert got.k == 2

    def test_monotone_in_lambda_and_c(self):
        g = corpus.king_grid(4, 3)
        row = [4 + x for x in range(4)]
        base = quasiconvexity_k(g, row, QGParams(1, 0)).k
        wider = quasiconvexity_k(g, row, QGParams(1, 2)).k
        assert wider >= base
        widest = quasiconvexity_k(g, row, QGParams(2, 2), cap=500_000).k
        assert widest >= wider

    def test_path_endpoints_in_cycle(self):
        g = corpus.cycle(8)
        got = quasiconvexity_k(g, [0, 4], QGParams(1, 0))
        # both 4-arcs are geodesics; their middles sit 2 away from {0,4}
        assert got.k == 2

    def test_walk_past_the_recursion_limit(self):
        # the geodesic from 0 to 1499 is a walk of 1,500 vertices, deeper
        # than Python's stack; its middle is 749 from both ends
        got = quasiconvexity_k(corpus.path(1500), [0, 1499], QGParams(1, 0))
        assert (got.k, got.capped) == (749, False)

    def test_cap_semantics(self):
        # a binding cap stops the search and flags k as a lower bound; the
        # sweep meets the covering radius after 11 prefixes, so a cap of 5
        # binds
        g, q = corpus.king_grid(4, 4), QGParams(2, 2)
        got = quasiconvexity_k(g, [0, 15], q, cap=5)
        assert got.capped and got.explored == 5
        full = quasiconvexity_k(g, [0, 15], q)
        assert not full.capped and got.k <= full.k
        # a cap of exactly the prefixes explored does not bind
        assert quasiconvexity_k(g, [0, 15], q, cap=full.explored) == full


    @pytest.mark.parametrize("lam, c", [("3/2", "1/2"), ("3/2", "1/3"),
                                        ("1", "2"), ("5", "0")])
    def test_fractional_params_match_reference(self, lam, c):
        # at (3/2, 1/2), lam*d + c is an integer at every odd d: a walk of
        # exactly that length is allowed, one step longer is not
        g = corpus.king_grid(4, 3)
        row = [4 + x for x in range(4)]
        got = quasiconvexity_k(g, row, QGParams(Fraction(lam), Fraction(c)))
        assert not got.capped
        assert (got.k, got.enumerated, got.explored, False) == quasigeodesic_reference(
            g, row, lam, c)

    def test_stopping_sweep_matches_the_exhaustive_one(self):
        # the stopping sweep visits a prefix of the exhaustive sweep's walks,
        # the reference's without the stop, and ends only at the covering
        # radius, which no walk exceeds
        stopped = capped = 0
        for seed in range(400):
            g, orbit, q, cap = seeded_sweep_case(seed)
            k, _, explored, full_capped = quasigeodesic_reference(
                g, orbit, q.lam, q.c, cap=cap, stop=False)
            fast = quasiconvexity_k(g, orbit, q, cap)
            assert fast.explored <= explored, seed
            if full_capped:
                capped += 1
                assert fast.k >= k, seed
                if not fast.capped:
                    assert fast.k == covering_radius(g, orbit), seed
            else:
                stopped += fast.explored < explored
                assert (fast.k, fast.capped) == (k, False), seed
        assert stopped >= 100 and capped >= 40

    @pytest.mark.parametrize("orbit", [[0, 9], [0, -1]])
    def test_orbit_outside_ambient_rejected(self, orbit):
        g = corpus.king_grid(3, 3)
        with pytest.raises(GraphError, match="not a vertex"):
            quasiconvexity_k(g, orbit, QGParams(1, 0))
        with pytest.raises(GraphError, match="not a vertex"):
            OrbitSpec(g, tuple(orbit), 1)


class TestBuildDelta:
    def test_identity_construction(self):
        g = corpus.cycle(6)
        delta, embedding, gk = build_delta(OrbitSpec(g, tuple(range(6)), 1))
        assert delta == g and gk == g
        assert embedding == list(range(6))

    def test_c8_two_antipodes_k2(self):
        g = corpus.cycle(8)
        delta, embedding, gk = build_delta(OrbitSpec(g, (0, 4), 2))
        want = sorted(v for v in range(8)
                      if min(hop_distance(g, v, 0), hop_distance(g, v, 4)) <= 2)
        assert sorted(embedding) == want
        assert delta.n == len(want)

    def test_king_row_thickened(self):
        g = corpus.king_grid(5, 5)
        row = tuple(2 * 5 + x for x in range(5))
        delta, embedding, _ = build_delta(OrbitSpec(g, row, 2))
        assert sorted(embedding) == list(range(25))  # rows reach everything in 2


class TestVerifySection5:
    def test_helly_ambient_bound_three(self):
        g = corpus.king_grid(3, 3)
        assert is_helly(g)[0]
        row = tuple(3 + x for x in range(3))
        k = max(1, quasiconvexity_k(g, row, QGParams(1, 0)).k)
        rep = verify_section5(OrbitSpec(g, row, k), instance="king3x3-row")
        assert rep["xi_ambient"] == 0
        assert rep["coarse_hypothesis"]["holds"]
        assert rep["coarse_conclusion"]["checked"]
        assert rep["coarse_conclusion"]["bound"] == 3
        assert rep["coarse_conclusion"]["holds"]
        assert rep["violations"] == 0

    def test_tree_ambient_isometric(self):
        g = corpus.random_tree(9, 4)
        sub = tuple(sorted({0, 1, g.adj[0][0]}))
        rep = verify_section5(OrbitSpec(g, sub, 2), instance="tree9")
        assert rep["isometric_hypothesis"]["pseudo_modular"]
        if rep["isometric_hypothesis"]["holds"]:
            assert rep["isometric_conclusion"]["checked"]
            assert rep["isometric_conclusion"]["holds"]
        assert rep["violations"] == 0

    def test_c6_isometric_lemma_skipped(self):
        g = corpus.cycle(6)
        rep = verify_section5(OrbitSpec(g, (0, 3), 3), instance="C6")
        assert not rep["isometric_hypothesis"]["pseudo_modular"]
        assert not rep["isometric_conclusion"]["checked"]
        assert rep["isometric_conclusion"]["reason"] == "hypothesis failed, skipped"
        assert rep["violations"] == 0

    def test_claimed_xi_checked(self):
        g = corpus.cycle(6)
        with pytest.raises(Exception):
            verify_section5(OrbitSpec(g, (0, 3), 2), xi_ambient=0)

    def test_grid_reported(self):
        g = corpus.complete(4)
        rep = verify_section5(OrbitSpec(g, (0, 1), 1), instance="K4")
        assert rep["swept_grid"] == ["(1,0)", "(5,0)"]

    def test_requested_pair_swept_once(self, monkeypatch):
        import hellykit.quasiconvex as qc_mod

        swept = []
        real = qc_mod.quasiconvexity_k

        def counting(g, orbit, q, **kw):
            swept.append(q)
            return real(g, orbit, q, **kw)

        monkeypatch.setattr(qc_mod, "quasiconvexity_k", counting)
        g = corpus.king_grid(3, 3)
        rep = verify_section5(OrbitSpec(g, (3, 4, 5), 1), requested=QGParams(1, 0))
        assert swept == [QGParams(1, 0), QGParams(5, 0)]
        assert rep["swept_grid"] == ["(1,0)", "(5,0)", "(1,0)"]
        want = real(g, (3, 4, 5), QGParams(1, 0))
        assert rep["requested_qc"] == {
            "lambda": "1", "c": "0", "k": want.k, "capped": want.capped,
            "enumerated": want.enumerated}
        rep = verify_section5(OrbitSpec(g, (3, 4, 5), 1),
                              requested=QGParams(Fraction(3, 2), 1))
        assert swept[2:] == [QGParams(1, 0), QGParams(5, 0),
                             QGParams(Fraction(3, 2), 1)]
        assert rep["swept_grid"][-1] == "(3/2,1)"
        # a requested grid pair is swept once and serves both its lemma and
        # the reported count
        rep = verify_section5(OrbitSpec(g, (3, 4, 5), 1), requested=QGParams(5, 0))
        assert swept[5:] == [QGParams(1, 0), QGParams(5, 0)]
        want = real(g, (3, 4, 5), QGParams(5, 0))
        assert rep["requested_qc"]["enumerated"] == want.enumerated
        assert rep["isometric_hypothesis"]["qc_constant"] == want.k

    def test_grid_sweep_stops_at_the_covering_radius(self, monkeypatch):
        # the (5,0) lemma sweep over every king line of the 3x3 and 4x3
        # grids: 164,780 prefixes exhaustively, a few hundred when it stops
        import hellykit.quasiconvex as qc_mod

        real, results = qc_mod.quasiconvexity_k, []

        def recording(g, orbit, q, **kw):
            results.append((q, real(g, orbit, q, **kw)))
            return results[-1][1]

        monkeypatch.setattr(qc_mod, "quasiconvexity_k", recording)
        explored = 0
        for w, h in ((3, 3), (4, 3)):
            g = corpus.king_grid(w, h)
            for line in king_lines(w, h):
                del results[:]
                rep = verify_section5(OrbitSpec(g, tuple(line), 1),
                                      requested=QGParams(1, 0))
                (qc5,) = [r for q, r in results if q == QGParams(5, 0)]
                assert qc5.k == covering_radius(g, line) and not qc5.capped
                assert rep["isometric_hypothesis"]["qc_constant"] == qc5.k
                explored += qc5.explored
        assert explored <= 1_000

    def test_size_bound_raises_above_max_vertices(self):
        # an 83-vertex window of Z/2*Z/3, which is not Helly
        g, _ = GammaWindow(GammaConfig(corpus.group_z2_z3(), 1), 8).to_graph()
        assert g.n == 83 > SECTION5_VERTEX_BOUND
        with pytest.raises(SizeBoundExceeded, match="bounded to 64 vertices"):
            verify_section5(OrbitSpec(g, (0,), 1))

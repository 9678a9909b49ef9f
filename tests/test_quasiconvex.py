"""Orbit subgraphs in power graphs and the two subgraph lemmas."""

from fractions import Fraction

import pytest

from hellykit import corpus
from hellykit.graphs import GraphError, QGParams
from hellykit.helly import is_helly
from hellykit.quasiconvex import (EnumerationCapExceeded, OrbitSpec, build_delta,
                                  quasiconvexity_k, verify_section5)


def quasigeodesic_reference(g, orbit, lam, c):
    """(k, enumerated, explored) by the defining inequality in exact
    Fraction arithmetic: every walk prefix, in adjacency order, whose steps
    all satisfy len(walk[i:j]) <= lam * d(walk[i], walk[j]) + c."""
    d = g.dist()
    lam, c = Fraction(lam), Fraction(c)
    to_orbit = [min(d[v][w] for w in orbit) for v in range(g.n)]
    stats = {"k": 0, "enumerated": 0, "explored": 0}

    def walk_from(walk):
        stats["explored"] += 1
        if walk[-1] in orbit:
            stats["enumerated"] += 1
            stats["k"] = max(stats["k"], max(to_orbit[v] for v in walk))
        for w in g.adj[walk[-1]]:
            if all(len(walk) - i <= lam * d[v][w] + c for i, v in enumerate(walk)):
                walk_from(walk + [w])

    for w in sorted(set(orbit)):
        walk_from([w])
    return stats["k"], stats["enumerated"], stats["explored"]


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

    def test_cap_semantics(self):
        g = corpus.king_grid(4, 4)
        with pytest.raises(EnumerationCapExceeded):
            quasiconvexity_k(g, [0, 15], QGParams(2, 2), cap=50)
        got = quasiconvexity_k(g, [0, 15], QGParams(2, 2), cap=50, allow_cap=True)
        assert got.capped and not got.is_exact()


    @pytest.mark.parametrize("lam, c", [("3/2", "1/2"), ("3/2", "1/3"),
                                        ("1", "2"), ("5", "0")])
    def test_fractional_params_match_reference(self, lam, c):
        # at (3/2, 1/2), lam*d + c is an integer at every odd d: a walk of
        # exactly that length is allowed, one step longer is not
        g = corpus.king_grid(4, 3)
        row = [4 + x for x in range(4)]
        got = quasiconvexity_k(g, row, QGParams(Fraction(lam), Fraction(c)))
        assert not got.capped
        assert (got.k, got.enumerated, got.explored) == quasigeodesic_reference(
            g, row, lam, c)

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
                      if min(g.d(v, 0), g.d(v, 4)) <= 2)
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
        want = real(g, (3, 4, 5), QGParams(1, 0), allow_cap=True)
        assert rep["requested_qc"] == {
            "lambda": "1", "c": "0", "k": want.k, "capped": want.capped,
            "enumerated": want.enumerated}
        rep = verify_section5(OrbitSpec(g, (3, 4, 5), 1),
                              requested=QGParams(Fraction(3, 2), 1))
        assert swept[2:] == [QGParams(1, 0), QGParams(5, 0),
                             QGParams(Fraction(3, 2), 1)]
        assert rep["swept_grid"][-1] == "(3/2,1)"

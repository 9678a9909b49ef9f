"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the theorem-grade checks are exact
with zero tolerance, the measurement-grade quantities are only required to be
reported, seeded, and reproducible.
"""

import json
import random
import time
from bisect import bisect_left

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from hellykit import corpus
from hellykit.cli import main
from hellykit.derived import verify_derivation_theorems
from hellykit.gamma import GammaBall, GammaConfig, GammaWindow, recommended_n
from hellykit.graphs import Graph, power_graph
from hellykit.groups import random_element
from hellykit.helly import (coarse_helly_constant, decide_helly,
                            extremal_functions, hellyfication, is_helly,
                            is_pseudo_modular, stable_interval_constant)
from hellykit.quasiconvex import (OrbitSpec, QGParams, quasiconvexity_k,
                                 verify_section5)
from hellykit.relwords import (analyze_word, geodesic_word, measure_bcp,
                               measure_triangles)
from oracles import (EDGE_KINDS, _witness, ball_bfs, helly_oracle_bruteforce,
                     parent_window)


def window_neighbors(w, v):
    """Neighbours of a tagged vertex, read through the window's int ids,
    which are in tuple order."""
    return [w.verts[j] for j in w.adj[bisect_left(w.verts, v)]]


def atlas_connected(max_n):
    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(G):
            out.append(Graph(n, list(G.edges())))
    return out


def example_groups():
    return [("Z2*Z3", corpus.group_z2_z3()),
            ("Z2*Z2", corpus.group_z2_z2()),
            ("Zsq*Z2", corpus.group_zsq_z2("king"))]


def ok(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_oracle_equivalence():
    """Three independent Helly deciders agree: the Bandelt-Prisner decider,
    the extremal-function enumeration and the brute-force oracle;
    exhaustively on all connected graphs with <= 6 vertices (112 on exactly 6
    vertices) and on 500 random connected 7-8 vertex graphs; zero
    disagreements, under 5 minutes."""
    def verdicts(g):
        return (decide_helly(g),
                _witness(g, extremal_functions(g)) is None,
                helly_oracle_bruteforce(g))

    t0 = time.time()
    small = atlas_connected(6)
    assert sum(1 for g in small if g.n == 6) == 112
    assert len(small) == 143
    disagreements = [g for g in small if len(set(verdicts(g))) != 1]
    assert disagreements == []

    rng = random.Random(12345)
    for _ in range(500):
        n = rng.choice([7, 8])
        g = corpus.random_connected(n, rng.randint(0, 6), rng.randrange(10 ** 6))
        assert len(set(verdicts(g))) == 1
    elapsed = time.time() - t0
    assert elapsed < 300
    ok(f"1: PASS - three-decider equivalence on 143 exhaustive + 500 random "
       f"graphs, 0 disagreements, {elapsed:.1f}s")


def test_criterion_2_known_classifications():
    """Trees and complete graphs Helly; C4, C5, C6 non-Helly by the oracle;
    xi(C4) = 1; C6 not pseudo-modular with the three-unit-balls witness."""
    for seed in range(5):
        assert is_helly(corpus.random_tree(10, seed))[0]
    for n in (2, 3, 4, 5, 6, 7):
        assert is_helly(corpus.complete(n))[0]
    for n in (4, 5, 6):
        g = corpus.cycle(n)
        assert not helly_oracle_bruteforce(g)
        assert not is_helly(g)[0]
    assert coarse_helly_constant(corpus.cycle(4)) == 1
    pm, witness = is_pseudo_modular(corpus.cycle(6))
    assert not pm
    assert witness == ((0, 1), (2, 1), (4, 1))
    ok("2: PASS - trees/completes Helly, C4/C5/C6 non-Helly, xi(C4)=1, "
       "C6 pseudo-modularity witness B1(0),B1(2),B1(4)")


def test_criterion_3_hellyfication_sweep():
    """On every connected graph with <= 7 vertices: the output is Helly, the
    input embeds isometrically, and Helly inputs are fixed points (all three
    asserted inside hellyfication); C4 maps to the 5-vertex wheel."""
    t0 = time.time()
    graphs = atlas_connected(7)
    assert len(graphs) == 996
    for g in graphs:
        out, _ = hellyfication(g, max_vertices=16)
        assert out.n >= g.n
    out, _ = hellyfication(corpus.cycle(4))
    assert out.n == 5
    assert sorted(len(a) for a in out.adj) == [3, 3, 3, 3, 4]
    hub = max(range(5), key=lambda v: len(out.adj[v]))
    assert all(hub in out.adj[v] for v in range(5) if v != hub)
    elapsed = time.time() - t0
    assert elapsed < 600
    ok(f"3: PASS - hellyfication postconditions on 996 graphs, C4 -> wheel, "
       f"{elapsed:.1f}s")


def test_criterion_4_power_graph_lemmas():
    """Exact, zero tolerance, k in {2,3}: Hellyness is preserved by powers;
    xi(G_k) <= ceil(xi(G)/k); beta(G_k) <= 3*beta(G)+1; the power distance law
    holds on all pairs."""
    graphs = corpus.standard_corpus()
    assert len(graphs) >= 30
    helly_members = 0
    for name, g in graphs:
        d = g.dist()
        xi = coarse_helly_constant(g, max_vertices=g.n)
        beta = stable_interval_constant(g)
        helly = is_helly(g, max_vertices=g.n)[0]
        helly_members += helly
        for k in (2, 3):
            gk = power_graph(g, k)
            dk = gk.dist()
            for u in range(g.n):
                for v in range(g.n):
                    assert dk[u][v] == -(-d[u][v] // k), (name, k)
            if helly:
                assert is_helly(gk, max_vertices=g.n)[0], (name, k)
            assert coarse_helly_constant(gk, max_vertices=g.n) <= -(-xi // k), (name, k)
            assert stable_interval_constant(gk) <= 3 * beta + 1, (name, k)
    ok(f"4: PASS - power lemmas exact on {len(graphs)} graphs "
       f"({helly_members} Helly), k in {{2,3}}, 0 violations")


def test_criterion_5_relative_cayley_sanity():
    """rel_length equals BFS distance in the truncated relative graph on the
    radius-4 ball (all elements for finite factors; elements within the letter
    cap for the free-abelian factor), and 1000 sampled relative geodesics per
    group are non-backtracking with every vertex phase."""
    checked_total = 0
    for name, spec in example_groups():
        cap = 2
        dist = ball_bfs(spec, 4, metric="rel", parabolic_cap=cap)
        mismatches = 0
        checked = 0
        for g, d in dist.items():
            in_window = all(syl[0] != "p" or spec.factors[syl[1]].is_finite
                            or max(abs(x) for x in syl[2]) <= cap for syl in g)
            if in_window:
                checked += 1
                mismatches += spec.rel_length(g) != d
        assert mismatches == 0, name
        if all(f.is_finite for f in spec.factors):
            assert checked == len(dist), name  # literally the full ball
        else:
            assert checked >= 100, name
        checked_total += checked

        rng = random.Random(777)
        for _ in range(1000):
            g1 = random_element(spec, rng, rng.randint(0, 5))
            g2 = random_element(spec, rng, rng.randint(0, 5))
            w = geodesic_word(spec, g1, g2)
            got = analyze_word(spec, w)
            assert not got.backtracks, name
            assert got.phase_vertices == tuple(range(len(w.letters) + 1)), name
    ok(f"5: PASS - rel_length = BFS on {checked_total} ball elements, "
       f"0 mismatches; 3000 sampled geodesics clean")


def test_criterion_6_window_structure():
    """Every fully materialized free vertex has degree |X|+m, every medial
    vertex degree 2; vertex and edge kinds partition; over 1000+ pairs of
    the R-ball, one end free and the other of any kind, the closed-form
    distance of the ball equals the BFS oracle's on the window of radius
    2R + 1, which holds every geodesic between points of the R-ball.  The
    pairs are drawn at R = 6, and at R = 4 for Z^2 * Z/2, whose 2R + 1
    window then holds 42,823 vertices."""
    pairs_checked = 0
    for name, spec in example_groups():
        n = recommended_n(spec)
        radius = 5 if name == "Zsq*Z2" else 6
        w = GammaWindow(GammaConfig(spec, n), radius)
        expected = len(spec.x_letters()) + len(spec.factors)
        for i, v in enumerate(w.verts):
            assert v[0] in ("free", "med", "int")
            if w.dist_from_base[i] == radius:  # neighbours not materialized
                continue
            if v[0] == "free":
                assert len(w.adj[i]) == expected, name
                assert all(u[0] != "free" for u in window_neighbors(w, v))
            elif v[0] == "med":
                assert len(w.adj[i]) == 2, name
            for u in window_neighbors(w, v):
                assert EDGE_KINDS[u[0], v[0]] in ("free", "connecting",
                                                  "internal")

        pair_radius = 4 if name == "Zsq*Z2" else radius
        oracle = parent_window(GammaConfig(spec, n), pair_radius)
        ball = GammaBall(GammaConfig(spec, n), pair_radius)
        rng = random.Random(99)
        verts = oracle.verts
        want = 400 if name != "Zsq*Z2" else 250
        done = 0
        while done < want:
            u = verts[rng.randrange(len(verts))]
            v = verts[rng.randrange(len(verts))]
            if v[0] != "free":
                u, v = v, u  # d is symmetric
            if v[0] != "free":
                continue
            hops, answered = oracle.window_distance(u, v)
            assert answered and ball.distances[v][u] == hops, name
            done += 1
        pairs_checked += done
    assert pairs_checked >= 1000
    ok(f"6: PASS - degrees |X|+m / 2, kind partitions, {pairs_checked} "
       f"closed-form distances equal to BFS at 2R + 1")


def test_criterion_7_derived_path_theorem():
    """Per example group, at the least N certifying the computable ambient
    clauses and R=8: 200 geodesics sampled from the ball, as the CLI samples
    them, passing the shortening filter produce zero 2-local
    relative-geodesy failures; the derived word always represents the
    endpoint quotient and is never shorter than the relative distance.  The
    stretch and penetration constants are reported, seed-reproducible, and
    flagged as estimates."""
    for name, spec in example_groups():
        n = recommended_n(spec)
        w = GammaBall(GammaConfig(spec, n), 8)
        rep = verify_derivation_theorems(w, 200, seed=2024)
        assert rep["samples"] == 200, name
        assert rep["violations"] == 0, name
        assert rep["excluded_by_shortenings"] == 0, name  # geodesics never shorten
        assert rep["estimate"]
        rep2 = verify_derivation_theorems(w, 200, seed=2024)
        assert rep == rep2, name

        bcp = measure_bcp(spec, 1, 0, 1, samples=150, seed=5, radius=5)
        tri = measure_triangles(spec, 2, 1, samples=80, seed=5, radius=5)
        assert bcp["estimate"] and tri["estimate"]
        assert bcp["epsilon_hat"] is not None
        assert tri["nu_hat"] is not None and tri["mu_hat"] is not None
        assert bcp == measure_bcp(spec, 1, 0, 1, samples=150, seed=5, radius=5)
    ok("7: PASS - 0/600 two-local failures at R=8 across the example groups; "
       "lambda/c/epsilon/nu/mu reported as seeded estimates")


def test_criterion_8_section5_lemmas():
    """On instances whose hypotheses verify computationally, the orbit
    subgraph embeds isometrically in the power graph and is
    (3 + ceil(xi/k))-coarsely Helly, with zero violations; instances whose
    hypotheses fail are reported as skipped."""
    instances = [
        ("P7-half", corpus.path(7), (0, 1, 2, 3)),
        ("P8-ends", corpus.path(8), (0, 7)),
        ("star5-center", corpus.star(5), (0,)),
        ("star4-leaf-pair", corpus.star(4), (0, 1)),
        ("K4-pair", corpus.complete(4), (0, 1)),
        ("K5-triple", corpus.complete(5), (0, 1, 2)),
        ("tree9a-sub", corpus.random_tree(9, 1), (0, 1)),
        ("tree9b-sub", corpus.random_tree(9, 7), (2, 3)),
        ("king3x3-row", corpus.king_grid(3, 3), (3, 4, 5)),
        ("king4x3-row", corpus.king_grid(4, 3), (4, 5, 6, 7)),
        ("C4-pair", corpus.cycle(4), (0, 2)),
        ("C6-antipodes", corpus.cycle(6), (0, 3)),
        ("grid2x3-side", corpus.grid(2, 3), (0, 2, 4)),
    ]
    verified = 0
    skipped = 0
    for name, g, orbit in instances:
        qc1 = quasiconvexity_k(g, orbit, QGParams(1, 0), cap=500_000)
        qc5 = quasiconvexity_k(g, orbit, QGParams(5, 0), cap=500_000)
        k = max(1, qc1.k, 0 if qc5.capped else qc5.k)
        rep = verify_section5(OrbitSpec(g, orbit, k), cap=500_000,
                              instance=name)
        assert rep["violations"] == 0, name
        if rep["coarse_hypothesis"]["holds"] and rep["isometric_hypothesis"]["holds"]:
            assert rep["coarse_conclusion"]["holds"], name
            assert rep["isometric_conclusion"]["holds"], name
            verified += 1
        if not rep["isometric_hypothesis"]["holds"]:
            assert rep["isometric_conclusion"]["reason"] == "hypothesis failed, skipped"
            skipped += 1
    assert verified >= 10
    assert skipped >= 1  # C6 is not pseudo-modular
    ok(f"8: PASS - {verified} instances with verified hypotheses, "
       f"0 violations, {skipped} correctly skipped")


def test_criterion_9_cli_determinism(tmp_path):
    """Every report-producing CLI command emits byte-identical files across
    reruns with a fixed seed."""
    c4 = tmp_path / "c4.txt"
    c4.write_text("0 1\n1 2\n2 3\n3 0\n")
    king = tmp_path / "king.json"
    main(["corpus", "king-grid", "--param", "w=3", "--param", "h=3",
          "--out", str(king)])
    orbit = tmp_path / "orbit.json"
    orbit.write_text("[3, 4, 5]")
    group = tmp_path / "group.json"
    group.write_text(json.dumps(corpus.group_z2_z3().to_json()))

    commands = [
        ["analyze", str(c4)],
        ["hellyfy", str(c4)],
        ["group", "ball", "--spec", str(group), "--radius", "3"],
        ["gamma", "build", "--group", str(group), "--N", "1", "--radius", "3"],
        ["derive", "--group", str(group), "--N", "1", "--radius", "6",
         "--samples", "50", "--seed", "9"],
        ["measure", "--what", "bcp", "--group", str(group), "--radius", "4",
         "--samples", "40", "--seed", "9"],
        ["measure", "--what", "nu", "--group", str(group), "--radius", "4",
         "--samples", "30", "--seed", "9"],
        ["measure", "--what", "delta", "--group", str(group), "--radius", "4",
         "--samples", "30", "--seed", "9"],
        ["quasiconvex", "--ambient", str(king), "--orbit", str(orbit),
         "--k", "2"],
    ]
    for i, argv in enumerate(commands):
        a = tmp_path / f"run{i}a.json"
        b = tmp_path / f"run{i}b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv
    ok(f"9: PASS - {len(commands)} CLI commands byte-identical across reruns")

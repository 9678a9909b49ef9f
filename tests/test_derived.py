"""Derived words: escape paths, the cut rule against the three-case oracle,
segment letters, endpoint identities, and the sampled theorem checks."""

import random
from bisect import bisect_left
from collections import Counter

import pytest

from hellykit import corpus
from hellykit.derived import (derive, two_local_violations, verify_derivation_theorems,
                              z_path)
from hellykit.gamma import (GammaBall, GammaConfig, GammaWindow, WindowError,
                            recommended_n)
from hellykit.groups import CyclicFactor, FiniteFactor, FreeAbelianFactor, GroupSpec
from hellykit.relwords import analyze_word, value as word_value
from oracles import derive_segments, parent_window, penetration_profile
from test_gamma import group_s3_z2


def window_neighbors(w, v):
    """Neighbours of a tagged vertex, read through the window's int ids,
    which are in tuple order."""
    return [w.verts[j] for j in w.adj[bisect_left(w.verts, v)]]


def window_z23(radius=6):
    spec = corpus.group_z2_z3()
    return GammaWindow(GammaConfig(spec, 1), radius)


def window_zz2(radius=5, n=2):
    spec = corpus.group_zsq_z2("king")
    return GammaWindow(GammaConfig(spec, n), radius)


def z_path_search(config, v, depth_cap=4):
    """The frontier search z_path replaced: the lexicographically least
    shortest path from v to a free vertex."""
    if v[0] == "free":
        return [v]
    frontier = [[v]]
    for _ in range(depth_cap):
        nxt = []
        for path in frontier:
            for w in config.neighbors(path[-1]):
                if w in path:
                    continue
                if w[0] == "free":
                    return path + [w]
                nxt.append(path + [w])
        frontier = sorted(nxt)
    raise AssertionError(f"no free vertex within {depth_cap} steps of {v}")


class TestZPath:
    def test_free_trivial(self):
        w = window_z23(3)
        assert z_path(w.config, w.base) == [w.base]

    def test_medial_one_step(self):
        w = window_z23(3)
        med = [v for v in window_neighbors(w, w.base) if v[0] == "med"][0]
        z = z_path(w.config, med)
        assert len(z) == 2 and z[0] == med and z[1][0] == "free"

    def test_internal_one_step_transitive(self):
        w = window_zz2(3)
        internal = ("int", 0, (), (3, 1))
        z = z_path(w.config, internal)
        assert len(z) == 2
        assert z[1] == ("free", w.config.spec.parabolic(0, (3, 1)))

    def test_deterministic(self):
        w = window_z23(3)
        med = [v for v in window_neighbors(w, w.base) if v[0] == "med"][0]
        assert z_path(w.config, med) == z_path(w.config, med)

    def test_matches_search_on_every_window_vertex(self):
        specs = [corpus.group_z2_z3(), corpus.group_z2_z2(),
                 corpus.group_zsq_z2("king"), corpus.group_zsq_z2("square")]
        checked = 0
        for spec in specs:
            w = GammaWindow(GammaConfig(spec, recommended_n(spec)), 5)
            for v in w.verts:
                assert z_path(w.config, v) == z_path_search(w.config, v)
            checked += len(w.verts)
        assert checked == 39 + 21 + 1291 + 535


class TestDerive:
    def test_medial_hop_gives_x_letter(self):
        w = window_z23(4)
        spec = w.config.spec
        med = [v for v in window_neighbors(w, w.base) if v[0] == "med"][0]
        far = [v for v in window_neighbors(w, med) if v != w.base][0]
        word = derive(w, [w.base, med, far])
        assert len(word.letters) == 1
        letter = word.letters[0]
        assert letter[0] in ("xg", "xf")
        assert spec.multiply(spec.letter_image(letter), w.base[1]) == far[1]

    def test_all_internal_path_z_extended(self):
        w = window_zz2(4)
        spec = w.config.spec
        path = [("int", 0, (), (2, 0)), ("int", 0, (), (0, 0))]
        word = derive(w, path)
        assert len(word.letters) == 1
        assert word.letters[0] == ("h", 0, (-2, 0))
        assert word.base == spec.parabolic(0, (2, 0))

    def test_copy_excursion_gives_translation_letter(self):
        # enter a copy, walk two internal steps, leave: one parabolic letter
        # whose value is the copy translation, matching the step sum
        w = window_zz2(5, n=1)
        spec = w.config.spec
        steps = [(0, 0), (1, 0), (2, 0)]
        path = [("free", spec.identity)]
        path += [("int", 0, (), u) for u in steps]
        path.append(("free", spec.parabolic(0, (2, 0))))
        word = derive(w, path)
        assert word.letters == (("h", 0, (2, 0)),)
        total = (sum(b[0] - a[0] for a, b in zip(steps, steps[1:])),
                 sum(b[1] - a[1] for a, b in zip(steps, steps[1:])))
        assert word.letters[0][2] == total

    def test_short_prefix_dropped(self):
        # path starting 1 edge before its first free vertex: prefix dropped
        w = window_z23(4)
        med = [v for v in window_neighbors(w, w.base) if v[0] == "med"][0]
        far = [v for v in window_neighbors(w, med) if v != w.base][0]
        word, _, extended_first, extended_last = derive_segments(w, [med, far])
        assert derive(w, [med, far]) == word
        assert word.letters == ()
        assert not extended_first and not extended_last
        assert word.base == far[1]

    def test_long_prefix_extended(self):
        w = window_zz2(6)
        spec = w.config.spec
        inner = [(6, 0), (4, 0), (2, 0), (0, 0)]
        path = [("int", 0, (), u) for u in inner] + [("free", spec.identity)]
        word, _, extended_first, _ = derive_segments(w, path)
        assert derive(w, path) == word
        assert extended_first
        assert word.letters == (("h", 0, (-6, 0)),)
        assert word.base == spec.parabolic(0, (6, 0))

    def test_long_suffix_extended(self):
        # the reverse of the long-prefix path: four internal vertices after
        # the last free one, so the escape path of the end is appended
        w = window_zz2(6)
        spec = w.config.spec
        inner = [(0, 0), (2, 0), (4, 0), (6, 0)]
        path = [("free", spec.identity)] + [("int", 0, (), u) for u in inner]
        word, segments, extended_first, extended_last = derive_segments(w, path)
        assert derive(w, path) == word
        assert extended_last and not extended_first
        assert word.letters == (("h", 0, (6, 0)),)
        assert word.base == spec.identity
        assert segments[-1][0][-1] == z_path(w.config, path[-1])[-1]

    def test_trivial_path(self):
        w = window_z23(3)
        assert derive(w, [w.base]).letters == ()

    def test_non_edge_raises(self):
        w = window_z23(4)
        far = [v for v in w.free_vertices() if v != w.base][0]
        with pytest.raises(WindowError, match="not an edge"):
            derive(w, [w.base, far])

    def test_cut_rule_matches_three_cases_on_random_walks(self):
        # walks, not geodesics, from free, medial and internal starts; a walk
        # in a copy stays there with probability `stay` at each step, so the
        # walks have dangling ends of every length and some no free vertex
        specs = [corpus.group_z2_z3(), corpus.group_z2_z2(),
                 corpus.group_zsq_z2("king"), corpus.group_zsq_z2("square")]
        rng = random.Random(5)
        prefixes, suffixes, seen = Counter(), Counter(), Counter()
        for spec in specs:
            w = GammaWindow(GammaConfig(spec, recommended_n(spec)), 5)
            by_kind = {kind: [i for i, v in enumerate(w.verts) if v[0] == kind]
                       for kind in ("free", "med", "int")}
            for n in range(300):
                ids = [rng.choice(by_kind[("free", "med", "int")[n % 3]])]
                stay = rng.choice((0.0, 0.8, 1.0))
                for _ in range(rng.randrange(13)):
                    inner = [j for j in w.adj[ids[-1]] if w.verts[j][0] == "int"]
                    if w.verts[ids[-1]][0] == "int" and inner and rng.random() < stay:
                        ids.append(rng.choice(inner))
                    else:
                        ids.append(rng.choice(w.adj[ids[-1]]))
                walk = [w.verts[j] for j in ids]
                assert derive(w, walk) == derive_segments(w, walk)[0]
                kinds = [v[0] for v in walk]
                seen[kinds[0], kinds[-1]] += 1
                if "free" in kinds:
                    prefixes[kinds.index("free")] += 1
                    suffixes[kinds[::-1].index("free")] += 1
                else:
                    seen["no free"] += 1
        assert set(range(7)) <= set(prefixes) and set(range(7)) <= set(suffixes)
        assert seen["no free"] > 0
        assert all(seen[a, b] for a in ("free", "med", "int")
                   for b in ("free", "med", "int"))

    def test_endpoint_identity_on_samples(self):
        w = window_z23(7)
        spec = w.config.spec
        rng = random.Random(11)
        free = w.free_vertices()
        for _ in range(150):
            v = free[rng.randrange(len(free))]
            hops, certified = w.window_distance(w.base, v)
            if not certified or hops == 0:
                continue
            path = w.random_geodesic(rng, w.base, v)
            word = derive(w, path)
            got = word_value(spec, word)
            assert got == spec.multiply(v[1], spec.invert(w.base[1]))
            # free endpoints: derived endpoints are the path endpoints
            assert word.base == w.base[1]

    def test_h_letters_match_penetrations(self):
        w = window_zz2(6)
        rng = random.Random(12)
        free = w.free_vertices()
        total_penetrations = 0
        for _ in range(100):
            v = free[rng.randrange(len(free))]
            hops, certified = w.window_distance(w.base, v)
            if not certified or hops == 0:
                continue
            path = w.random_geodesic(rng, w.base, v)
            h_letters = [l for l in derive(w, path).letters if l[0] == "h"]
            assert len(h_letters) == len(penetration_profile(w, path))
            total_penetrations += len(h_letters)
        assert total_penetrations > 0  # copy shortcuts really get exercised


class TestTheoremHarness:
    def test_z23_zero_violations(self):
        spec = corpus.group_z2_z3()
        w = GammaWindow(GammaConfig(spec, recommended_n(spec)), 8)
        rep = verify_derivation_theorems(w, 200, seed=1)
        assert rep["samples"] == 200
        assert rep["violations"] == 0
        assert rep["excluded_by_shortenings"] == 0
        assert rep["estimate"]

    def test_z22_zero_violations(self):
        spec = corpus.group_z2_z2()
        w = GammaWindow(GammaConfig(spec, recommended_n(spec)), 8)
        rep = verify_derivation_theorems(w, 200, seed=2)
        assert rep["violations"] == 0

    def test_zz2_zero_violations_at_recommended_n(self):
        spec = corpus.group_zsq_z2("king")
        w = GammaWindow(GammaConfig(spec, recommended_n(spec)), 6)
        rep = verify_derivation_theorems(w, 120, seed=3)
        assert rep["violations"] == 0
        assert rep["notes"]["assumption_clauses"]["short_cycles"] is True

    def test_zz2_small_n_really_fails(self):
        # the short-cycle clause is sharp: at N=1 the king model has genuine
        # window geodesics whose derived words are not 2-local geodesics
        spec = corpus.group_zsq_z2("king")
        w = GammaWindow(GammaConfig(spec, 1), 6)
        rng = random.Random(4)
        free = w.free_vertices()
        bad = 0
        for _ in range(300):
            v = free[rng.randrange(len(free))]
            hops, certified = w.window_distance(w.base, v)
            if not certified or hops == 0:
                continue
            path = w.random_geodesic(rng, w.base, v)
            if w.parabolic_shortenings(path):
                continue
            bad += two_local_violations(w, derive(w, path))
        assert bad > 0

    def test_nonabelian_factor_zero_violations(self):
        # S3 * Z/2: right-coset bookkeeping with a nonabelian parabolic; the
        # generator-product bound is 2 here too (two transpositions compose to
        # a non-generator transposition)
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
                 for p in perms]
        spec = GroupSpec([FiniteFactor(table, [1, 2, 3]), CyclicFactor(2)])
        assert recommended_n(spec) == 2
        w = GammaWindow(GammaConfig(spec, 2), 8)
        rep = verify_derivation_theorems(w, 150, seed=17)
        assert rep["violations"] == 0
        w1 = GammaWindow(GammaConfig(spec, 1), 8)
        rep1 = verify_derivation_theorems(w1, 150, seed=17)
        assert rep1["violations"] > 0  # the bound is sharp here as well

    def test_free_letters_through_pipeline(self):
        spec = GroupSpec([CyclicFactor(2)], free_rank=1)
        w = GammaWindow(GammaConfig(spec, recommended_n(spec)), 8)
        rep = verify_derivation_theorems(w, 120, seed=8)
        assert rep["violations"] == 0

    def test_no_factors_degenerates_to_subdivision(self):
        # with no parabolic factors the construction is just the subdivided
        # Cayley graph of the free group: no internal vertices at all
        spec = GroupSpec([], free_rank=2)
        w = GammaWindow(GammaConfig(spec, 1), 6)
        counts = w.kind_counts()
        assert counts["int"] == 0
        assert counts["free"] >= 1 and counts["med"] >= 4
        rep = verify_derivation_theorems(w, 80, seed=8)
        assert rep["violations"] == 0

    def test_sampled_geodesics_have_no_parabolic_shortening(self):
        # a copy run longer than its copy distance could be replaced inside
        # the copy, so no geodesic of Γ has one: the harness's filter never
        # excludes a draw
        groups = [corpus.group_z2_z3, corpus.group_z2_z2,
                  lambda: corpus.group_zsq_z2("king"),
                  lambda: corpus.group_zsq_z2("square"),
                  lambda: GroupSpec([CyclicFactor(2), FreeAbelianFactor(1)], 1)]
        checked = long_runs = 0
        for group in groups:
            for n in (1, 2, 3):
                for radius in (4, 6, 8):
                    ball = GammaBall(GammaConfig(group(), n), radius)
                    rng = random.Random(10 * n + radius)
                    free = ball.free_vertices()
                    for _ in range(120):
                        u = ball.base if rng.random() < 0.5 else rng.choice(free)
                        path = ball.random_geodesic(rng, u, rng.choice(free))
                        if path is None:
                            continue
                        assert ball.parabolic_shortenings(path) == []
                        kinds = "".join(v[0][0] for v in path)
                        long_runs += "iii" in kinds
                        checked += 1
        assert checked > 3000 and long_runs > 0

    def test_seed_reproducible(self):
        spec = corpus.group_z2_z3()
        w = GammaWindow(GammaConfig(spec, 1), 7)
        r1 = verify_derivation_theorems(w, 80, seed=9)
        r2 = verify_derivation_theorems(w, 80, seed=9)
        assert r1 == r2

    # the three pinned derive groups at their least certifying N and 200
    # samples, the 50-sample derive of the benchmark's glued window, a
    # nonabelian factor and the free group with no factor
    @pytest.mark.parametrize("group, samples", [
        (corpus.group_z2_z3, 200), (corpus.group_z2_z2, 200),
        (corpus.group_zsq_z2, 200), (corpus.group_zsq_z2, 50),
        (group_s3_z2, 200), (lambda: GroupSpec([], free_rank=2), 200)],
        ids=["z2_z3", "z2_z2", "zsq_z2", "zsq_z2_50", "s3_z2", "f2"])
    def test_ball_gives_the_window_result(self, group, samples):
        # the BFS oracle's window, whose certified BFS draws independently
        # of the closed form that the ball, and GammaWindow, read
        spec = group()
        config = GammaConfig(spec, recommended_n(spec))
        w = parent_window(config, 8)
        for seed in (2024, 1, 7):
            assert (verify_derivation_theorems(GammaBall(config, 8), samples, seed)
                    == verify_derivation_theorems(w, samples, seed))

    def _mixed_closed_path(self, w, h):
        """Closed path: through the copy from 1 to h, back along medial hops."""
        spec = w.config.spec
        factor = spec.factors[0]
        origin = factor.identity
        copy_leg = [("free", spec.identity), ("int", 0, (), origin)]
        u = origin
        while u != h:
            u = min(factor.near(u, w.config.n_thick),
                    key=lambda u2: (factor.graph_distance(u2, h), u2))
            copy_leg.append(("int", 0, (), u))
        copy_leg.append(("free", spec.parabolic(0, h)))
        back = [("free", spec.parabolic(0, h))]
        v = h
        while v != origin:
            step = min(g for g in factor.generators
                       if factor.graph_distance(factor.mul(v, factor.inv(g)),
                                                origin)
                       < factor.graph_distance(v, origin))
            mid = w.config.medial(spec.parabolic(0, factor.mul(v, factor.inv(step))),
                                  ("xg", 0, step))
            v = factor.mul(v, factor.inv(step))
            back.extend([mid, ("free", spec.parabolic(0, v))])
        return copy_leg + back[1:]

    def test_closed_path_isolated_components_short_sources(self):
        # closed free-endpoint paths without shortenings and with short derived
        # words: an isolated parabolic letter comes from a source segment of at
        # most 3 edges when the short-cycle clause holds, and that bound is
        # sharp: at N=1 the same construction breaks it
        spec = corpus.group_zsq_z2("king")
        w = GammaWindow(GammaConfig(spec, 2), 4)
        checked = 0
        for h in ((2, 0), (0, 2), (2, 2), (2, -2), (-2, 1)):
            closed = self._mixed_closed_path(w, h)
            assert w.parabolic_shortenings(closed) == []
            word, segments, _, _ = derive_segments(w, closed)
            assert derive(w, closed) == word
            assert len(word.letters) <= 3
            analysis = analyze_word(spec, word)
            assert len(analysis.components) == 1
            assert analysis.isolated_components == (0,)
            source = [seg for seg, letter in segments
                      if letter is not None and letter[0] == "h"]
            assert len(source) == 1
            assert len(source[0]) - 1 <= 3
            checked += 1
        assert checked == 5

        w1 = GammaWindow(GammaConfig(spec, 1), 4)
        closed = self._mixed_closed_path(w1, (2, 0))
        assert w1.parabolic_shortenings(closed) == []
        word, segments, _, _ = derive_segments(w1, closed)
        assert derive(w1, closed) == word
        assert len(word.letters) <= 3
        source = [seg for seg, letter in segments
                  if letter is not None and letter[0] == "h"]
        assert len(source[0]) - 1 > 3

"""Relative words: components, connectedness, backtracking, phase vertices,
similarity, and the measurement harnesses."""

import random
from collections import Counter
from fractions import Fraction

from hellykit import corpus
from hellykit.groups import random_element
from hellykit.relwords import (RelWord, analyze_word, bcp_defects,
                               decompose_components, geodesic_word,
                               is_quasigeodesic, measure_bcp, measure_delta,
                               measure_triangles, measure_zeta, perturbed_word,
                               triangle_mu_defects, value, vertices)
from oracles import satisfies_quasigeodesic
from test_gamma import group_s3_z2


def end_vertex(spec, w):
    return vertices(spec, w)[-1]


def is_rel_geodesic(spec, w):
    return len(w.letters) == spec.rel_length(value(spec, w))


def zz2():
    return corpus.group_zsq_z2("king")


def z23():
    return corpus.group_z2_z3()


class TestDecompose:
    def test_pure_x_word(self):
        spec = z23()
        w = RelWord(spec.identity, (("xg", 0, 1), ("xg", 1, 1)))
        assert decompose_components(spec, w) == []

    def test_maximality(self):
        spec = zz2()
        w = RelWord(spec.identity, (("h", 0, (1, 0)), ("h", 0, (0, 1)),
                                    ("xg", 1, 1), ("h", 0, (2, 2))))
        comps = decompose_components(spec, w)
        assert [(c.start_index, c.end_index) for c in comps] == [(0, 1), (3, 3)]

    def test_singletons_from_distinct_factors(self):
        spec = z23()
        w = RelWord(spec.identity, (("xg", 0, 1), ("h", 1, 1), ("xg", 0, 1),
                                    ("h", 0, 1)))
        comps = decompose_components(spec, w)
        assert len(comps) == 2
        assert comps[0].j == 1 and comps[1].j == 0

    def test_partition_refinement(self):
        # concatenating components and X-letters reproduces the word
        spec = zz2()
        rng = random.Random(0)
        letters = spec.x_letters() + spec.h_letters(2)
        for _ in range(100):
            ls = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
            w = RelWord(spec.identity, ls)
            comps = decompose_components(spec, w)
            covered = sorted(i for c in comps
                             for i in range(c.start_index, c.end_index + 1))
            assert len(covered) == len(set(covered))
            for i, letter in enumerate(ls):
                inside = any(c.start_index <= i <= c.end_index for c in comps)
                assert inside == (letter[0] == "h")


class TestConnected:
    def test_reflexive(self):
        spec = zz2()
        w = RelWord(spec.identity, (("h", 0, (1, 1)),))
        c = decompose_components(spec, w)[0]
        assert c.key == (0, spec.coset_rep(c.start_vertex, 0))
        assert c.key == (0, spec.coset_rep(c.end_vertex, 0))

    def test_translate_by_parabolic(self):
        spec = z23()
        w1 = RelWord(spec.identity, (("h", 1, 1),))
        w2 = RelWord(spec.parabolic(1, 2), (("h", 1, 1),))
        c1 = decompose_components(spec, w1)[0]
        c2 = decompose_components(spec, w2)[0]
        assert c1.key == c2.key

    def test_different_factors_never(self):
        spec = z23()
        w1 = RelWord(spec.identity, (("h", 1, 1),))
        w2 = RelWord(spec.identity, (("h", 0, 1),))
        c1 = decompose_components(spec, w1)[0]
        c2 = decompose_components(spec, w2)[0]
        assert c1.key != c2.key

    def test_equivalence_on_word_families(self):
        spec = zz2()
        rng = random.Random(1)
        letters = spec.x_letters() + spec.h_letters(2)
        words = [RelWord(random_element(spec, rng, rng.randint(0, 3)),
                         tuple(rng.choice(letters) for _ in range(rng.randint(1, 6))))
                 for _ in range(12)]
        comps = [c for w in words for c in decompose_components(spec, w)]
        for a in comps:
            # the key of either endpoint, so walking a backwards keeps it
            assert a.key == (a.j, spec.coset_rep(a.end_vertex, a.j))
            for b in comps:
                assert (a.key == b.key) == ref_connected(spec, a, b)


class TestAnalyzeWord:
    def test_sampled_geodesics_clean(self):
        for spec in (z23(), corpus.group_z2_z2(), zz2()):
            rng = random.Random(2)
            for _ in range(1000):
                g1 = random_element(spec, rng, rng.randint(0, 5))
                g2 = random_element(spec, rng, rng.randint(0, 5))
                w = geodesic_word(spec, g1, g2)
                got = analyze_word(spec, w)
                assert not got.backtracks
                assert got.phase_vertices == tuple(range(len(w.letters) + 1))

    def test_constructed_backtracking(self):
        # two abelian-factor components joined by X-letters whose product is
        # itself parabolic: the components are connected, so the word backtracks
        spec = zz2()
        w = RelWord(spec.identity, (("h", 0, (2, 0)), ("xg", 0, (1, 0)),
                                    ("xg", 0, (0, 1)), ("h", 0, (0, 5))))
        assert value(spec, w) != spec.identity  # sanity: a real word
        got = analyze_word(spec, w)
        assert got.backtracks
        assert got.vertex_backtracks  # the two X-letters represent (1,1)

    def test_single_h_letter_no_vertex_backtrack(self):
        spec = z23()
        got = analyze_word(spec, RelWord(spec.identity, (("h", 1, 1),)))
        assert not got.vertex_backtracks

    def test_component_of_length_two_vertex_backtracks(self):
        spec = zz2()
        w = RelWord(spec.identity, (("h", 0, (1, 0)), ("h", 0, (0, 1))))
        got = analyze_word(spec, w)
        assert got.vertex_backtracks
        assert got.phase_vertices == (0, 2)  # the middle vertex is interior

    def test_trivial_loop_counts_as_vertex_backtrack(self):
        spec = z23()
        w = RelWord(spec.identity, (("xg", 0, 1), ("xg", 0, 1)))
        assert analyze_word(spec, w).vertex_backtracks


class TestRelGeodesic:
    def test_empty(self):
        spec = z23()
        assert is_rel_geodesic(spec, RelWord(spec.identity, ()))

    def test_two_same_factor_letters_not(self):
        spec = z23()
        w = RelWord(spec.identity, (("h", 1, 1), ("h", 1, 1)))
        assert not is_rel_geodesic(spec, w)

    def test_normal_form_words_are(self):
        spec = zz2()
        rng = random.Random(3)
        for _ in range(500):
            g1 = random_element(spec, rng, rng.randint(0, 5))
            g2 = random_element(spec, rng, rng.randint(0, 5))
            w = geodesic_word(spec, g1, g2)
            assert is_rel_geodesic(spec, w)
            assert end_vertex(spec, w) == g2


class TestKSimilar:
    """X-distances of the starts and of the ends of two words (k-similarity)."""

    def test_identical_endpoints(self):
        spec = z23()
        w = geodesic_word(spec, spec.identity, spec.parabolic(1, 1))
        assert spec.d_x(w.base, w.base) == 0
        assert spec.d_x(end_vertex(spec, w), end_vertex(spec, w)) == 0

    def test_one_letter_offset(self):
        spec = z23()
        w1 = geodesic_word(spec, spec.identity, spec.parabolic(1, 1))
        off = spec.parabolic(0, 1)
        w2 = geodesic_word(spec, off, spec.multiply(off, spec.parabolic(1, 1)))
        assert spec.d_x(w1.base, w2.base) == 1
        assert spec.d_x(end_vertex(spec, w1), end_vertex(spec, w2)) == 1

    def test_big_syllable_offset(self):
        spec = corpus.group_zsq_z2("square")
        w1 = geodesic_word(spec, spec.identity, spec.parabolic(1, 1))
        off = spec.parabolic(0, (3, 2))  # l1 norm 5
        w2 = geodesic_word(spec, off, spec.multiply(off, spec.parabolic(1, 1)))
        assert spec.d_x(w1.base, w2.base) == 5
        assert spec.d_x(end_vertex(spec, w1), end_vertex(spec, w2)) == 5


class TestQuasigeodesicCheck:
    def test_geodesics_pass(self):
        spec = z23()
        w = geodesic_word(spec, spec.identity,
                          spec.multiply(spec.parabolic(0, 1), spec.parabolic(1, 1)))
        assert is_quasigeodesic(spec, w, 1, 0)

    def test_backtracking_pair_fails_tight_params(self):
        spec = z23()
        w = RelWord(spec.identity, (("xg", 0, 1), ("xg", 0, 1)))
        assert not is_quasigeodesic(spec, w, 1, 0)
        assert is_quasigeodesic(spec, w, 1, 2)

    def test_perturbed_sampler_output_valid(self):
        spec = zz2()
        rng = random.Random(4)
        non_geodesic = 0
        for _ in range(50):
            g1 = random_element(spec, rng, 3)
            g2 = random_element(spec, rng, 3)
            w, _ = perturbed_word(spec, rng, g1, g2, 2, 2)
            assert is_quasigeodesic(spec, w, 2, 2)
            assert not analyze_word(spec, w).backtracks
            assert w.base == g1 and end_vertex(spec, w) == g2
            non_geodesic += not is_rel_geodesic(spec, w)
        # the detours must actually produce non-geodesic quasigeodesics, or
        # the mu and epsilon estimates would silently degenerate
        assert non_geodesic >= 10


class TestMeasurements:
    def test_equal_pair_zero_defects(self):
        spec = z23()
        w = geodesic_word(spec, spec.identity,
                          spec.multiply(spec.parabolic(0, 1), spec.parabolic(1, 1)))
        defects = bcp_defects(spec, w, w)
        assert defects == {"phase": 0, "unmatched": 0, "connected": 0}

    def test_bcp_deterministic_and_stable(self):
        spec = z23()
        rep1 = measure_bcp(spec, 1, 0, 1, samples=1000, seed=42, radius=6)
        rep2 = measure_bcp(spec, 1, 0, 1, samples=1000, seed=42, radius=6)
        assert rep1 == rep2
        assert rep1["estimate"]
        assert rep1["epsilon_hat"] is not None

    def test_triangles_dihedral(self):
        spec = corpus.group_z2_z2()
        rep = measure_triangles(spec, 2, 1, samples=150, seed=7, radius=6)
        assert rep["nu_hat"] is not None and rep["mu_hat"] is not None
        assert rep["estimate"]

    def test_degenerate_triangle_reduces_to_bigon(self):
        spec = z23()
        a = spec.identity
        b = spec.multiply(spec.parabolic(0, 1), spec.parabolic(1, 1))
        from hellykit.relwords import triangle_mu_defects
        wp = geodesic_word(spec, a, b)
        wq = geodesic_word(spec, b, a)
        wr = geodesic_word(spec, a, a)
        assert triangle_mu_defects(spec, wp, wq, wr) == 0

    def test_delta_and_zeta_run(self):
        spec = z23()
        dd = measure_delta(spec, samples=60, seed=9, radius=5)
        assert dd["delta_hat"] is not None and dd["delta_slim_hat"] is not None
        zz = measure_zeta(spec, 2, 1, samples=60, seed=9, radius=5)
        assert zz["zeta_hat"] is not None

    def test_monotone_in_samples(self):
        # maxima are monotone when the sample schedule is a prefix
        spec = z23()
        small = measure_bcp(spec, 2, 1, 2, samples=50, seed=3, radius=5)
        big = measure_bcp(spec, 2, 1, 2, samples=150, seed=3, radius=5)
        assert big["epsilon_hat"] >= small["epsilon_hat"]


# ---------------------------------------------------------------------------
# reference implementations: the straightforward definitions, one walk per
# question and one multiplication per coset test, kept here as oracles


def ref_connected(spec, c1, c2):
    if c1.j != c2.j:
        return False
    q = spec.multiply(c1.start_vertex, spec.invert(c2.start_vertex))
    return q == () or (len(q) == 1 and q[0][0] == "p" and q[0][1] == c1.j)


def ref_in_parabolic(q):
    return q == () or (len(q) == 1 and q[0][0] == "p")


def ref_reverse_word(spec, w):
    letters = tuple(spec.letter_invert(l) for l in reversed(w.letters))
    return RelWord(vertices(spec, w)[-1], letters)


def ref_phase_elements(spec, w):
    interior = {i for c in decompose_components(spec, w)
                for i in range(c.start_index + 1, c.end_index + 1)}
    return [v for i, v in enumerate(vertices(spec, w)) if i not in interior]


def ref_hausdorff(spec, a, b):
    return max(min(spec.d_x(x, y) for y in b) for x in a)


def ref_analyze(spec, w):
    comps = decompose_components(spec, w)
    isolated = tuple(a for a in range(len(comps))
                     if not any(ref_connected(spec, comps[a], comps[b])
                                for b in range(len(comps)) if b != a))
    prefix = vertices(spec, RelWord(spec.identity, w.letters))
    n = len(w.letters)
    vertex_backtracks = any(
        ref_in_parabolic(spec.multiply(prefix[k], spec.invert(prefix[i])))
        for i in range(n + 1) for k in range(i + 2, n + 1))
    return len(isolated) < len(comps), vertex_backtracks, isolated


def ref_is_quasigeodesic(spec, w, lam, c):
    prefix = vertices(spec, RelWord(spec.identity, w.letters))
    n = len(w.letters)
    return all(k - i <= lam * spec.rel_length(
                   spec.multiply(prefix[k], spec.invert(prefix[i]))) + c
               for i in range(n + 1) for k in range(i + 1, n + 1))


def ref_bcp(spec, wp, wq):
    phase_p, phase_q = ref_phase_elements(spec, wp), ref_phase_elements(spec, wq)
    phase = max(ref_hausdorff(spec, phase_q, phase_p),
                ref_hausdorff(spec, phase_p, phase_q))
    comps_p = decompose_components(spec, wp)
    comps_q = decompose_components(spec, wq)
    unmatched = conn = 0
    for side_a, side_b in ((comps_q, comps_p), (comps_p, comps_q)):
        for ca in side_a:
            partners = [cb for cb in side_b if ref_connected(spec, ca, cb)]
            if not partners:
                unmatched = max(unmatched, spec.d_x(ca.start_vertex, ca.end_vertex))
            for cb in partners:
                conn = max(conn, spec.d_x(ca.start_vertex, cb.start_vertex),
                           spec.d_x(ca.end_vertex, cb.end_vertex))
    return {"phase": phase, "unmatched": unmatched, "connected": conn}


def ref_triangle_mu(spec, p, q, r):
    rev = (ref_reverse_word(spec, q), ref_reverse_word(spec, p),
           ref_reverse_word(spec, r))
    worst = 0
    for a, b, c in ((p, q, r), rev):
        for wa, wb, wc in ((a, b, c), (b, c, a), (c, a, b)):
            worst = max(worst, ref_hausdorff(spec, ref_phase_elements(spec, wc),
                                             ref_phase_elements(spec, wa)
                                             + ref_phase_elements(spec, wb)))
            comps_a = decompose_components(spec, wa)
            comps_b = decompose_components(spec, wb)
            for cc in decompose_components(spec, wc):
                in_a = [ca for ca in comps_a if ref_connected(spec, cc, ca)]
                in_b = [cb for cb in comps_b if ref_connected(spec, cc, cb)]
                if not in_a and not in_b:
                    worst = max(worst, spec.d_x(cc.start_vertex, cc.end_vertex))
                elif in_a and not in_b:
                    ca = in_a[0]
                    worst = max(worst, spec.d_x(cc.end_vertex, ca.start_vertex),
                                spec.d_x(ca.end_vertex, cc.start_vertex))
                elif in_a and in_b:
                    ca, cb = in_a[0], in_b[0]
                    worst = max(worst, spec.d_x(cc.end_vertex, ca.start_vertex),
                                spec.d_x(ca.end_vertex, cb.start_vertex),
                                spec.d_x(cb.end_vertex, cc.start_vertex))
    return worst


REFERENCE_SPECS = (z23, corpus.group_z2_z2, zz2)

# the quasigeodesic check also merges a nonabelian factor's syllables, where
# the order of a product matters, and cancels free letters
QG_SPECS = REFERENCE_SPECS + (
    group_s3_z2, lambda: corpus.free_product(["cyclic:2"], free_rank=1))
QG_PARAMS = ((1, 0), (2, 1), (3, 2), (Fraction(3, 2), Fraction(1, 2)),
             (Fraction(5, 3), Fraction(2, 3)))


def random_word(spec, rng, start, end=None):
    """Up to 6 random relative letters from start, closed by a geodesic to end
    when one is given."""
    letters = spec.rel_letters(2)
    w = RelWord(start, tuple(rng.choice(letters) for _ in range(rng.randint(0, 6))))
    if end is None:
        return w
    return RelWord(start, w.letters + geodesic_word(spec, end_vertex(spec, w),
                                                    end).letters)


class TestAgainstReference:
    """Seeded random words, which backtrack and penetrate cosets far more
    often than the sampled quasigeodesics of the pinned reports (whose mu is
    0), against the reference definitions above."""

    def test_triangle_mu_defects(self):
        positive = 0
        for make in REFERENCE_SPECS:
            spec = make()
            rng = random.Random(11)
            for _ in range(150):
                a = random_element(spec, rng, rng.randint(0, 4))
                p = random_word(spec, rng, a)
                q = random_word(spec, rng, end_vertex(spec, p))
                r = random_word(spec, rng, end_vertex(spec, q), a)
                want = ref_triangle_mu(spec, p, q, r)
                assert triangle_mu_defects(spec, p, q, r) == want
                positive += want > 0
        assert positive >= 300

    def test_bcp_defects(self):
        for make in REFERENCE_SPECS:
            spec = make()
            rng = random.Random(12)
            for _ in range(150):
                wp = random_word(spec, rng, random_element(spec, rng, 3))
                wq = random_word(spec, rng, random_element(spec, rng, 3))
                assert bcp_defects(spec, wp, wq) == ref_bcp(spec, wp, wq)

    def test_connected(self):
        for make in REFERENCE_SPECS:
            spec = make()
            rng = random.Random(13)
            comps = [c for _ in range(30) for c in decompose_components(
                spec, random_word(spec, rng, random_element(spec, rng, 3)))]
            for c1 in comps:
                for c2 in comps:
                    assert (c1.key == c2.key) == ref_connected(spec, c1, c2)

    def test_analyze_word_and_quasigeodesic_check(self):
        seen = set()
        for make in REFERENCE_SPECS:
            spec = make()
            rng = random.Random(14)
            for _ in range(300):
                w = random_word(spec, rng, random_element(spec, rng, 3))
                got = analyze_word(spec, w)
                want = ref_analyze(spec, w)
                assert (got.backtracks, got.vertex_backtracks,
                        got.isolated_components) == want
                assert got.components == tuple(decompose_components(spec, w))
                seen.add(want[:2])
                for lam, c in ((1, 0), (2, 1), (3, 2)):
                    assert is_quasigeodesic(spec, w, lam, c) == \
                        ref_is_quasigeodesic(spec, w, lam, c)
        assert seen == {(False, False), (False, True), (True, True)}

    def test_quasigeodesic_check(self):
        """The syllable-stack check against the product-per-pair definition
        and against the row-generic oracle over the walk, with fractional
        parameters, on words that wander off and words that return to their
        start."""
        verdicts = Counter()
        for make in QG_SPECS:
            spec = make()
            rng = random.Random(15)
            for n in range(300):
                start = random_element(spec, rng, 3)
                w = random_word(spec, rng, start, start if n % 3 == 0 else None)
                walk = vertices(spec, w)
                for lam, c in QG_PARAMS:
                    got = is_quasigeodesic(spec, w, lam, c)
                    assert got == ref_is_quasigeodesic(spec, w, lam, c)
                    assert got == satisfies_quasigeodesic(spec.rel_row, walk, lam, c)
                    verdicts[make, lam, got] += 1
        # every group and parameter pair sees both verdicts
        assert len(verdicts) == 2 * len(QG_SPECS) * len(QG_PARAMS)

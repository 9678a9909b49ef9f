"""Free-product arithmetic: normal forms, lengths against BFS oracles,
projections, ball enumeration, serialization."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellykit import corpus
from hellykit.groups import (BallExplosion, CyclicFactor, FiniteFactor,
                             FreeAbelianFactor, GroupError, GroupSpec,
                             random_element)


@pytest.fixture(autouse=True)
def validate_every_product(monkeypatch):
    """Every product in this module re-validates its output normal form."""
    multiply = GroupSpec.multiply

    def validated(self, a, b):
        result = multiply(self, a, b)
        self.validate(result)
        return result

    monkeypatch.setattr(GroupSpec, "multiply", validated)


def z66_swapped_table():
    """The addition table of Z/66 with the entries [2][3] and [2][4] swapped."""
    table = [[(a + b) % 66 for b in range(66)] for a in range(66)]
    table[2][3], table[2][4] = table[2][4], table[2][3]
    return table


def s3_table():
    """Symmetric group on 3 points as permutation tuples, identity first."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(3))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return perms, table


def fold_append(spec, a, b):
    """a b as its definition reads: b's syllables pushed onto a one at a
    time, each merged with the top when it can be."""
    out = list(a)
    for syl in b:
        last = out[-1] if out else (None,)
        if syl[0] == last[0] == "p" and syl[1] == last[1]:
            factor = spec.factors[syl[1]]
            out.pop()
            h = factor.mul(last[2], syl[2])
            if h != factor.identity:
                out.append(("p", syl[1], h))
        elif syl[0] == last[0] == "f":
            w1, w2 = last[1], syl[1]
            i, k = len(w1), 0
            while i > 0 and k < len(w2) and w1[i - 1] == -w2[k]:
                i -= 1
                k += 1
            out.pop()
            if w1[:i] + w2[k:]:
                out.append(("f", w1[:i] + w2[k:]))
        else:
            out.append(syl)
    return tuple(out)


class TestMultiply:
    def test_against_the_fold(self):
        """multiply reduces only at the junction; the fold reduces at every
        syllable of b.  Random normal forms; b = s^-1 t, whose head cancels
        a's tail s outright before t meets what is left; and free words that
        cancel in part."""
        rng = random.Random(5)
        cut_deep = 0
        for spec in property_specs():
            for _ in range(300):
                a = random_element(spec, rng, rng.randint(0, 8), 2)
                t = random_element(spec, rng, rng.randint(0, 4), 2)
                tail = a[rng.randint(0, len(a)):]
                b = fold_append(spec, spec.invert(tail), t)
                for x, y in ((a, t), (t, a), (a, b), (b, spec.invert(a))):
                    assert spec.multiply(x, y) == fold_append(spec, x, y)
                cut_deep += len(tail) >= 2
        assert cut_deep >= 200
        spec = GroupSpec([CyclicFactor(3)], free_rank=2)
        a = spec.multiply(spec.parabolic(0, 1), spec.free_word([1, 2, 2]))
        for word, want in (([-2, 1], [1, 2, 1]), ([-2, -2, -1], []),
                           ([-2, -2, -1, 2], [2]), ([1], [1, 2, 2, 1])):
            b = spec.free_word(word)
            got = spec.multiply(a, b)
            assert got == fold_append(spec, a, b)
            assert got == spec.multiply(spec.parabolic(0, 1), spec.free_word(want))

    def test_identity_neutral(self):
        spec = corpus.group_z2_z3()
        g = spec.multiply(spec.parabolic(1, 2), spec.parabolic(0, 1))
        assert spec.multiply(g, spec.identity) == g
        assert spec.multiply(spec.identity, g) == g

    def test_cyclic_arithmetic(self):
        spec = corpus.group_z2_z3()
        a = spec.parabolic(1, 1)
        assert spec.multiply(a, a) == spec.parabolic(1, 2)
        assert spec.multiply(spec.multiply(a, a), a) == spec.identity

    def test_inner_cancellation_then_merge(self):
        spec = corpus.group_z2_z3()
        a, b = spec.parabolic(1, 1), spec.parabolic(0, 1)
        ab = spec.multiply(a, b)
        ba = spec.multiply(b, a)
        assert spec.multiply(ab, ba) == spec.parabolic(1, 2)

    def test_free_letter_reduction(self):
        spec = GroupSpec([CyclicFactor(2)], free_rank=2)
        w = spec.free_word([1, 2, -2, -1, 1])
        assert w == spec.free_word([1])
        x = spec.multiply(spec.free_word([1, 2]), spec.free_word([-2, 1]))
        assert x == spec.free_word([1, 1])

    def test_associativity_random(self):
        spec = corpus.group_zsq_z2()
        rng = random.Random(0)
        for _ in range(300):
            a = random_element(spec, rng, rng.randint(0, 5))
            b = random_element(spec, rng, rng.randint(0, 5))
            c = random_element(spec, rng, rng.randint(0, 5))
            assert spec.multiply(spec.multiply(a, b), c) == \
                spec.multiply(a, spec.multiply(b, c))

    def test_against_s3_quotient(self):
        # table-driven small-quotient check: a -> (123), b -> (12) under
        # Z/3 * Z/2 -> S3 is a homomorphism
        perms, table = s3_table()
        spec = corpus.group_z2_z3()

        def to_s3(g):
            acc = 0
            for syl in g:
                if syl[1] == 1:  # Z/3 factor
                    img = [0, 1, 2][syl[2]]
                else:  # Z/2 factor
                    img = [0, 3][syl[2]]
                acc = table[acc][img]
            return acc

        rng = random.Random(1)
        for _ in range(2000):
            x = random_element(spec, rng, rng.randint(0, 6))
            y = random_element(spec, rng, rng.randint(0, 6))
            assert to_s3(spec.multiply(x, y)) == table[to_s3(x)][to_s3(y)]


class TestInvert:
    def test_identity(self):
        spec = corpus.group_z2_z3()
        assert spec.invert(spec.identity) == spec.identity

    def test_syllable_reversal(self):
        spec = corpus.group_z2_z3()
        ab = spec.multiply(spec.parabolic(1, 1), spec.parabolic(0, 1))
        assert spec.invert(ab) == spec.multiply(spec.parabolic(0, 1),
                                                spec.parabolic(1, 2))

    def test_inverse_property(self):
        spec = corpus.group_zsq_z2()
        rng = random.Random(2)
        for _ in range(10_000):
            g = random_element(spec, rng, rng.randint(0, 6))
            assert spec.multiply(g, spec.invert(g)) == spec.identity


class TestProjection:
    def test_identity(self):
        spec = corpus.group_z2_z3()
        assert spec.project(spec.identity, 1) == 0

    def test_definition(self):
        spec = corpus.group_z2_z3()
        aba = spec.multiply(spec.multiply(spec.parabolic(1, 1),
                                          spec.parabolic(0, 1)),
                            spec.parabolic(1, 1))
        assert spec.project(aba, 1) == 2
        assert spec.project(aba, 0) == 1

    def test_homomorphism(self):
        spec = corpus.group_zsq_z2()
        rng = random.Random(3)
        for _ in range(10_000):
            g = random_element(spec, rng, rng.randint(0, 5))
            h = random_element(spec, rng, rng.randint(0, 5))
            for j in range(2):
                f = spec.factors[j]
                assert spec.project(spec.multiply(g, h), j) == \
                    f.mul(spec.project(g, j), spec.project(h, j))


class TestLengths:
    def test_identity_lengths(self):
        spec = corpus.group_z2_z3()
        assert spec.rel_length(spec.identity) == 0
        assert spec.x_length(spec.identity) == 0

    def test_aba_rel_length(self):
        spec = corpus.group_z2_z3()
        aba = spec.multiply(spec.multiply(spec.parabolic(1, 1),
                                          spec.parabolic(0, 1)),
                            spec.parabolic(1, 1))
        assert spec.rel_length(aba) == 3

    def test_big_abelian_syllable_is_one_letter(self):
        spec = corpus.group_zsq_z2()
        assert spec.rel_length(spec.parabolic(0, (7, -5))) == 1

    def test_l1_vs_linf(self):
        king = corpus.group_zsq_z2("king")
        square = corpus.group_zsq_z2("square")
        assert king.x_length(king.parabolic(0, (3, -2))) == 3
        assert square.x_length(square.parabolic(0, (3, -2))) == 5

    def test_rel_length_matches_truncated_bfs(self):
        for spec in (corpus.group_z2_z3(), corpus.group_z2_z2()):
            dist = spec.enumerate_ball(4, metric="rel")
            for g, d in dist.items():
                assert spec.rel_length(g) == d

    def test_rel_length_matches_truncated_bfs_abelian(self):
        spec = corpus.group_zsq_z2()
        cap = 2
        dist = spec.enumerate_ball(4, metric="rel", parabolic_cap=cap)
        checked = 0
        for g, d in dist.items():
            in_window = all(syl[0] != "p" or spec.factors[syl[1]].is_finite
                            or max(abs(x) for x in syl[2]) <= cap for syl in g)
            if in_window:
                assert spec.rel_length(g) == d
                checked += 1
        assert checked > 100

    def test_x_length_matches_bfs(self):
        spec = corpus.group_z2_z3()
        dist = spec.enumerate_ball(5, metric="abs")
        for g, d in dist.items():
            assert spec.x_length(g) == d

    def test_x_length_matches_bfs_sampled(self):
        spec = corpus.group_zsq_z2()
        dist = spec.enumerate_ball(4, metric="abs")
        rng = random.Random(4)
        sample = rng.sample(sorted(dist), 200)
        for g in sample:
            assert spec.x_length(g) == dist[g]

    def test_subadditive(self):
        spec = corpus.group_zsq_z2()
        rng = random.Random(5)
        for _ in range(3000):
            g = random_element(spec, rng, rng.randint(0, 5))
            h = random_element(spec, rng, rng.randint(0, 5))
            assert spec.x_length(spec.multiply(g, h)) <= \
                spec.x_length(g) + spec.x_length(h)

    def test_rows_match_pairwise_distances(self):
        for spec in (corpus.group_z2_z3(), corpus.group_zsq_z2()):
            rng = random.Random(8)
            elements = [random_element(spec, rng, rng.randint(0, 6))
                        for _ in range(30)]
            for g in elements:
                x_row, rel_row = spec.x_row(g), spec.rel_row(g)
                for h in elements:
                    assert x_row(h) == spec.d_x(g, h)
                    assert rel_row(h) == spec.d_rel(g, h)


class TestEnumerateBall:
    def test_radius_zero(self):
        spec = corpus.group_z2_z3()
        assert list(spec.enumerate_ball(0)) == [spec.identity]

    def test_z2_z2_radius_two(self):
        assert len(corpus.group_z2_z2().enumerate_ball(2)) == 5

    def test_z2_z3_radius_one(self):
        assert len(corpus.group_z2_z3().enumerate_ball(1)) == 4

    def test_explosion_guard(self):
        spec = corpus.group_zsq_z2()
        with pytest.raises(BallExplosion):
            spec.enumerate_ball(6, metric="rel", parabolic_cap=3, max_elements=500)

    @pytest.mark.parametrize("spec", [GroupSpec([CyclicFactor(3)]),
                                      corpus.group_z2_z3()], ids=["z3", "z2_z3"])
    def test_negative_radius_rejected(self, spec):
        # a finite group used to come back whole, an infinite one to trip
        # the guard after max_elements products
        with pytest.raises(GroupError, match="radius must be >= 0"):
            spec.enumerate_ball(-1, max_elements=50)


class TestFactors:
    def test_finite_factor_table_checks(self):
        _, table = s3_table()
        f = FiniteFactor(table, [1, 2, 3])
        assert f.word_length(0) == 0
        assert f.graph_distance(1, 2) in (1, 2)
        with pytest.raises(GroupError):
            FiniteFactor(table, [1])  # not symmetric
        with pytest.raises(GroupError):
            FiniteFactor(table, [3])  # one transposition generates Z/2 only
        bad = [row[:] for row in table]
        bad[3][3] = 3
        with pytest.raises(GroupError):
            FiniteFactor(bad, [1, 2, 3])
        # a Latin square with identity 0 and inverses, larger than 64 and
        # not associative: (1*1)*3 = 6 but 1*(1*3) = 5
        with pytest.raises(GroupError, match="not associative"):
            FiniteFactor(z66_swapped_table(), [1, 65])
        FiniteFactor([[(a + b) % 66 for b in range(66)] for a in range(66)],
                     [1, 65])

    def test_free_abelian_near(self):
        f = FreeAbelianFactor(2, "king")
        assert len(f.near((0, 0), 1)) == 8
        f2 = FreeAbelianFactor(2, "square")
        assert len(f2.near((0, 0), 1)) == 4
        assert len(f2.near((0, 0), 2)) == 12

    @pytest.mark.parametrize("style", ["king", "square"])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_free_abelian_near_matches_distance_scan(self, style, rank):
        f = FreeAbelianFactor(rank, style)
        rng = random.Random(rank)
        points = [f.identity, (5,) * rank] + [
            tuple(rng.randint(-9, 9) for _ in range(rank)) for _ in range(3)]
        for u in points:
            for n in (1, 2, 3):
                # a box one wider than the ball, scanned in lexicographic order
                box = itertools.product(*(range(x - n - 1, x + n + 2) for x in u))
                want = [v for v in box if 1 <= f.graph_distance(u, v) <= n]
                assert f.near(u, n) == want
                assert f.near(u, n) == want  # the cached offsets again

    @pytest.mark.parametrize("style", ["king", "square"])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_free_abelian_ball_size_counts_near(self, style, rank):
        f = FreeAbelianFactor(rank, style)
        assert f.ball_size(0) == 1
        for n in range(1, 6):
            assert f.ball_size(n) == 1 + len(f.near(f.identity, n))

    @pytest.mark.parametrize("factor", [
        CyclicFactor(2), CyclicFactor(5), FiniteFactor(s3_table()[1], [3, 4, 5]),
        FiniteFactor(s3_table()[1], [1, 2, 3])], ids=["z2", "z5", "s3", "s3_mixed"])
    def test_finite_near_matches_distance_scan(self, factor):
        for u in factor.elements():
            for n in (1, 2, 3):
                want = [v for v in factor.elements()
                        if 1 <= factor.graph_distance(u, v) <= n]
                got = factor.near(u, n)
                assert got == want
                got.append(-1)  # callers own the list; the next call is fresh
                assert factor.near(u, n) == want

    @pytest.mark.parametrize("factor", [
        CyclicFactor(2), CyclicFactor(5), FiniteFactor(s3_table()[1], [3, 4, 5]),
        FiniteFactor(s3_table()[1], [1, 2, 3])] + [
        FreeAbelianFactor(rank, style) for style in ("king", "square")
        for rank in (1, 2, 3)],
        ids=["z2", "z5", "s3", "s3_mixed", "z1_king", "z2_king", "z3_king",
             "z1_square", "z2_square", "z3_square"])
    def test_ball_matches_distance_filter(self, factor):
        # the window lists each copy's model ball with this helper: every
        # vertex within r of u, u included, in increasing order, and as many
        # as ball_size(r) counts before any is listed
        rng = random.Random(3)
        if factor.is_finite:
            points, scan = factor.elements(), lambda u, r: factor.elements()
        else:
            rank = len(factor.identity)
            points = [factor.identity, (5,) * rank] + [
                tuple(rng.randint(-9, 9) for _ in range(rank)) for _ in range(3)]
            # a box one wider than the ball, scanned in lexicographic order
            scan = lambda u, r: itertools.product(*(range(x - r - 1, x + r + 2)
                                                    for x in u))
        for u in points:
            for r in range(5):
                want = [v for v in scan(u, r) if factor.graph_distance(u, v) <= r]
                assert factor.ball(u, r) == want
                assert factor.ball_size(r) == len(want)

    def test_cyclic_generator_symmetry(self):
        assert CyclicFactor(2).generators == [1]
        assert CyclicFactor(5).generators == [1, 4]

    def test_cyclic_word_lengths(self):
        for n in range(2, 30):
            f = CyclicFactor(n)
            assert [f.word_length(h) for h in f.elements()] == \
                [min(h, n - h) for h in range(n)]

    def test_letters_exclude_identity_and_respect_involution(self):
        spec = GroupSpec([CyclicFactor(3), FreeAbelianFactor(2, "square")],
                         free_rank=1)
        letters = spec.x_letters()
        for letter in letters:
            assert spec.letter_image(letter) != spec.identity
            inv = spec.letter_invert(letter)
            assert inv in letters
            assert spec.letter_invert(inv) == letter
            assert spec.letter_image(inv) == spec.invert(spec.letter_image(letter))


class TestSerialization:
    def test_round_trip(self):
        spec = GroupSpec([CyclicFactor(3), FreeAbelianFactor(2, "king")],
                         free_rank=2)
        rec = spec.to_json()
        again = GroupSpec.from_json(json.loads(json.dumps(rec)))
        assert again.to_json() == rec
        assert again.free_rank == 2
        assert [f.kind for f in again.factors] == ["cyclic", "free_abelian"]

    def test_finite_round_trip(self):
        _, table = s3_table()
        spec = GroupSpec([FiniteFactor(table, [3, 4, 5])])
        again = GroupSpec.from_json(spec.to_json())
        assert again.factors[0].table == tuple(tuple(r) for r in table)


class TestRelLetters:
    def test_alphabet_order_and_reuse(self):
        spec = corpus.group_zsq_z2()
        letters = spec.rel_letters(2)
        assert list(letters) == spec.x_letters() + spec.h_letters(2)
        assert spec.rel_letters(2) is letters
        assert len(spec.rel_letters(3)) > len(letters)


class TestCosetRep:
    def test_drops_leading_factor_syllable_only(self):
        spec = corpus.group_z2_z3()
        ab = spec.multiply(spec.parabolic(1, 1), spec.parabolic(0, 1))
        assert spec.coset_rep(ab, 1) == spec.parabolic(0, 1)
        assert spec.coset_rep(ab, 0) == ab
        assert spec.coset_rep(spec.identity, 0) == spec.identity


def property_specs():
    _, table = s3_table()
    return (corpus.group_z2_z3(), corpus.group_zsq_z2("square"),
            GroupSpec([FiniteFactor(table, [3, 4, 5]), CyclicFactor(4)],
                      free_rank=1))


PROPERTY_SPECS = property_specs()

# derandomized and without an example database, so a tier-1 run is
# reproducible and leaves no files behind; the autouse validation fixture
# only sets a flag, so it is sound to share across examples
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=["function_scoped_fixture"])


@st.composite
def spec_and_elements(draw, count):
    """A group from PROPERTY_SPECS and `count` elements of it, each a product
    of up to 6 relative letters."""
    spec = draw(st.sampled_from(PROPERTY_SPECS))
    letters = st.sampled_from(spec.rel_letters(2))
    elements = []
    for _ in range(count):
        g = spec.identity
        for letter in draw(st.lists(letters, max_size=6)):
            g = spec.multiply(spec.letter_image(letter), g)
        elements.append(g)
    return spec, *elements


class TestProperties:
    @PROPERTY
    @given(spec_and_elements(3))
    def test_associativity(self, drawn):
        spec, a, b, c = drawn
        assert spec.multiply(spec.multiply(a, b), c) == \
            spec.multiply(a, spec.multiply(b, c))

    @PROPERTY
    @given(spec_and_elements(1))
    def test_inverses(self, drawn):
        spec, g = drawn
        assert spec.multiply(g, spec.invert(g)) == spec.identity
        assert spec.multiply(spec.invert(g), g) == spec.identity

    @PROPERTY
    @given(spec_and_elements(2))
    def test_project_is_homomorphism(self, drawn):
        spec, g, h = drawn
        for j, factor in enumerate(spec.factors):
            assert spec.project(spec.multiply(g, h), j) == \
                factor.mul(spec.project(g, j), spec.project(h, j))

    @PROPERTY
    @given(spec_and_elements(3))
    def test_coset_rep_decides_right_cosets(self, drawn):
        spec, g, h, k = drawn
        # g2 = x * g shares g's right coset of factor j whenever x lies in it
        left = [h, spec.multiply(k, h)] + [spec.letter_image(x)
                                           for x in spec.h_letters(1)]
        for g2 in [k] + [spec.multiply(x, g) for x in left]:
            q = spec.multiply(g, spec.invert(g2))
            for j in range(len(spec.factors)):
                same = q == () or (len(q) == 1 and q[0][0] == "p" and q[0][1] == j)
                assert (spec.coset_rep(g, j) == spec.coset_rep(g2, j)) == same

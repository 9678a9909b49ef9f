"""Free-product arithmetic: normal forms, lengths against BFS oracles,
projections, ball enumeration, serialization."""

import json
import random

import pytest

import hellykit.groups as groups_mod
from hellykit import corpus
from hellykit.groups import (BallExplosion, CyclicFactor, FiniteFactor,
                             FreeAbelianFactor, GroupError, GroupSpec,
                             random_element)


@pytest.fixture(autouse=True)
def validate_every_product():
    groups_mod.DEBUG_VALIDATE = True
    yield
    groups_mod.DEBUG_VALIDATE = False


def s3_table():
    """Symmetric group on 3 points as permutation tuples, identity first."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(3))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return perms, table


class TestMultiply:
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

    def test_free_abelian_near(self):
        f = FreeAbelianFactor(2, "king")
        assert len(f.near((0, 0), 1)) == 8
        f2 = FreeAbelianFactor(2, "square")
        assert len(f2.near((0, 0), 1)) == 4
        assert len(f2.near((0, 0), 2)) == 12

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

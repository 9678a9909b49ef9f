"""Collapse paths of the glued graph to words over the relative alphabet.

`derive` applies one cut rule.  An end of the path more than three edges
from a free vertex (both ends, when the path has no free vertex) is extended
by the fixed shortest escape path Z_v of its endpoint; the walk is then cut
at its free vertices, and each piece between two of them gives one letter:
a two-edge hop through a medial vertex its X-letter, an excursion through
one parabolic copy the parabolic letter carrying the coset translation, and
a closed piece none.  A dangling end of three edges or fewer lies outside
every piece, so it is dropped.

Z_v is fixed once per vertex, deterministically: the edge to the first
neighbour of a medial or internal vertex, which is free; nothing checked
downstream depends on that choice.

The harness samples geodesics of Γ between free vertices of a ball.  Γ's
distances are exact in the infinite graph, so every pair is answered, and a
geodesic may leave the ball.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .gamma import (GammaBall, GammaConfig, GammaVertex, WindowError,
                    certified_clauses)
from .groups import Letter
from .relwords import RelWord, analyze_word, value as word_value


def z_path(config: GammaConfig, v: GammaVertex) -> list[GammaVertex]:
    """Shortest path from v to a free vertex: [v] for a free v, otherwise the
    edge to its first neighbour, which is free (the connecting free vertex of
    an internal vertex, the smaller endpoint of a medial one)."""
    if v[0] == "free":
        return [v]
    return [v, config.neighbors(v)[0]]


def _segment_letter(config: GammaConfig, seg: list[GammaVertex]
                    ) -> Optional[Letter]:
    """Letter for one piece of a checked walk, free at its two ends only.
    Its interior is one medial vertex, whose two neighbours are the ends, or
    vertices of one copy, whose ends lie in one right coset of the factor."""
    spec = config.spec
    a, b = seg[0], seg[-1]
    if a == b:
        return None
    if seg[1][0] == "med":
        g, x = seg[1][1]
        return x if g == a[1] else spec.letter_invert(x)
    (syllable,) = spec.multiply(b[1], spec.invert(a[1]))
    return ("h", *syllable[1:])


def derive(ball: GammaBall, path: list[GammaVertex]) -> RelWord:
    """The derived word of a path, by the cut rule of the module docstring.

    The endpoint identity epsilon(word) = end * start^{-1} (over the first
    and last free vertex of the extended walk) is asserted on every call.
    """
    config = ball.config
    ball.check_path(path)
    kinds = [v[0] for v in path]
    if "free" not in kinds[:4]:
        path = z_path(config, path[0])[::-1] + path[1:]
    if "free" not in kinds[-4:]:
        path = path[:-1] + z_path(config, path[-1])
    cuts = [i for i, v in enumerate(path) if v[0] == "free"]
    letters = [_segment_letter(config, path[a:b + 1])
               for a, b in zip(cuts, cuts[1:])]
    start, end = path[cuts[0]][1], path[cuts[-1]][1]
    word = RelWord(start, tuple(x for x in letters if x is not None))
    spec = config.spec
    if word_value(spec, word) != spec.multiply(end, spec.invert(start)):
        raise AssertionError("derived word does not represent the endpoint quotient")
    return word


def two_local_violations(ball: GammaBall, word: RelWord) -> int:
    """Length-2 subwords of the derived word that are not relative geodesics."""
    spec = ball.config.spec
    bad = 0
    for i in range(len(word.letters) - 1):
        q = spec.multiply(spec.letter_image(word.letters[i + 1]),
                          spec.letter_image(word.letters[i]))
        if spec.rel_length(q) != 2:
            bad += 1
    return bad


def verify_derivation_theorems(ball: GammaBall, samples: int,
                               seed: int) -> dict:
    """The `derive` report result.  Sample geodesics of Γ between free
    vertices of the ball, derive them, and check everything the construction
    guarantees unconditionally:

    * no geodesic has a parabolic shortening: a copy run longer than its
      copy distance could be cut short inside the copy (asserted),
    * zero length-2 derived subwords fail relative geodesy (hard property),
    * the derived word represents the endpoint quotient (asserted in derive),
    * |derived| >= relative distance of the endpoints.

    The stretch values lambda_hat and c_hat and the count of observed
    vertex backtracks are reported as seeded estimates, never asserted: the
    certified stretch constants are not constructive.

    The ball answers every pair, so the only draw skipped is u = v, and the
    loop needs no rejection budget.  `uncertified_rejected` and
    `excluded_by_shortenings` stay in the result at 0, as the benchmark
    harness reads them.
    """
    rng = random.Random(seed)
    spec = ball.config.spec
    free = ball.free_vertices()
    targets = [v for v in free if v != ball.base]
    if not targets:
        raise WindowError("ball too small to sample geodesics")

    n_thick = ball.config.n_thick
    violations = backtracks = 0
    lam_hat = Fraction(1)
    c_hat = 0
    accepted = 0
    while accepted < samples:
        v = targets[rng.randrange(len(targets))]
        if rng.random() < 0.5:
            u = ball.base
        else:
            u = free[rng.randrange(len(free))]
            if u == v:
                continue
        path = ball.random_geodesic(rng, u, v)
        if ball.parabolic_shortenings(path):
            raise AssertionError("sampled geodesic has a parabolic shortening")
        word = derive(ball, path)
        violations += two_local_violations(ball, word)
        quotient = spec.multiply(v[1], spec.invert(u[1]))
        d_rel = spec.rel_length(quotient)
        n_letters = len(word.letters)
        if n_letters < d_rel:
            raise AssertionError("derived word shorter than the relative distance")
        if d_rel > 0:
            lam_hat = max(lam_hat, Fraction(n_letters, d_rel))
        c_hat = max(c_hat, n_letters - d_rel)
        if analyze_word(spec, word).vertex_backtracks:
            backtracks += 1
        accepted += 1
    return {"samples": accepted, "violations": violations,
            "excluded_by_shortenings": 0, "uncertified_rejected": 0,
            "vertex_backtracks_observed": backtracks,
            "lambda_hat": str(lam_hat), "c_hat": c_hat, "seed": seed,
            "radius": ball.radius, "estimate": True,
            "notes": {"assumption_clauses": certified_clauses(spec, n_thick),
                      "n_thick": n_thick}}

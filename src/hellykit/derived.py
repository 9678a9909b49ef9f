"""Collapse paths of the glued graph to words over the relative alphabet.

Segments between consecutive free vertices become single letters: a two-edge
hop through a medial vertex becomes its X-letter, an excursion through one
parabolic copy becomes the parabolic letter carrying the coset translation.
Short dangling prefixes and suffixes (three edges or fewer) are dropped; longer
ones are extended by the fixed shortest escape path Z_v of their endpoint so
that they contribute a letter too.

Z_v is fixed once per vertex, deterministically: the edge to the first
neighbour of a medial or internal vertex, which is free; nothing checked
downstream depends on that choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .gamma import (GammaBall, GammaConfig, GammaVertex, WindowError,
                    certified_clauses)
from .groups import Letter
from .relwords import RelWord, analyze_word, value as word_value


@dataclass(frozen=True)
class DerivedResult:
    word: RelWord
    segments: tuple[tuple[tuple[GammaVertex, ...], Optional[Letter]], ...]
    extended_first: bool
    extended_last: bool


def z_path(config: GammaConfig, v: GammaVertex) -> list[GammaVertex]:
    """Shortest path from v to a free vertex: [v] for a free v, otherwise the
    edge to its first neighbour, which is free (the connecting free vertex of
    an internal vertex, the smaller endpoint of a medial one)."""
    if v[0] == "free":
        return [v]
    return [v, config.neighbors(v)[0]]


def _segment_letter(config: GammaConfig, seg: list[GammaVertex]
                    ) -> Optional[Letter]:
    """Letter for one segment whose endpoints are its only free vertices."""
    spec = config.spec
    a, b = seg[0], seg[-1]
    if a[0] != "free" or b[0] != "free":
        raise WindowError("segment endpoints must be free")
    if a == b:
        return None
    interior = seg[1:-1]
    kinds = {v[0] for v in interior}
    if "free" in kinds:
        raise WindowError("segment has an interior free vertex")
    if kinds == {"med"}:
        if len(seg) != 3:
            raise WindowError("medial segment must have exactly two edges")
        g, x = seg[1][1]
        if g == a[1]:
            return x
        if spec.multiply(spec.letter_image(x), g) == a[1]:
            return spec.letter_invert(x)
        raise WindowError("medial vertex does not sit on its segment")
    if kinds == {"int"}:
        j = interior[0][1]
        if any(v[1] != j or v[2] != interior[0][2] for v in interior):
            raise WindowError("internal segment mixes copies")
        q = spec.multiply(b[1], spec.invert(a[1]))
        if len(q) == 1 and q[0][0] == "p" and q[0][1] == j:
            return ("h", j, q[0][2])
        raise WindowError("internal segment endpoints not in one coset")
    raise WindowError(f"segment interior mixes vertex kinds: {kinds}")


def derive(ball: GammaBall, path: list[GammaVertex]) -> DerivedResult:
    """The derived word of a path, built segment by segment.

    The endpoint identity epsilon(word) = end * start^{-1} (over the derived
    endpoints) is asserted on every call.
    """
    config = ball.config
    ball.check_path(path)
    free_positions = [i for i, v in enumerate(path) if v[0] == "free"]

    segments: list[list[GammaVertex]] = []
    extended_first = extended_last = False
    if not free_positions:
        zm = z_path(config, path[0])
        zp = z_path(config, path[-1])
        seg = list(reversed(zm)) + path[1:] + zp[1:]
        segments.append(seg)
    else:
        first, last = free_positions[0], free_positions[-1]
        # prefix: drop if short, extend by the escape path if long
        if first > 3:
            zm = z_path(config, path[0])
            segments.append(list(reversed(zm)) + path[1:first + 1])
            extended_first = True
        else:
            segments.append([path[first]])
        for a, b in zip(free_positions, free_positions[1:]):
            segments.append(path[a:b + 1])
        if len(path) - 1 - last > 3:
            zp = z_path(config, path[-1])
            segments.append(path[last:] + zp[1:])
            extended_last = True
        else:
            segments.append([path[last]])

    letters: list[Letter] = []
    recorded = []
    for seg in segments:
        letter = _segment_letter(config, seg)
        recorded.append((tuple(seg), letter))
        if letter is not None:
            letters.append(letter)

    start = segments[0][0]
    end = segments[-1][-1]
    word = RelWord(start[1], tuple(letters))
    spec = config.spec
    got = word_value(spec, word)
    want = spec.multiply(end[1], spec.invert(start[1]))
    if got != want:
        raise AssertionError("derived word does not represent the endpoint quotient")
    return DerivedResult(word, tuple(recorded), extended_first, extended_last)


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
    """The `derive` report result.  Sample certified geodesics of the ball,
    derive them, and check everything the construction guarantees
    unconditionally:

    * zero length-2 derived subwords fail relative geodesy (hard property),
    * the derived word represents the endpoint quotient (asserted in derive),
    * |derived| >= relative distance of the endpoints.

    The stretch values lambda_hat and c_hat and the count of observed
    vertex backtracks are reported as seeded estimates, never asserted: the
    certified stretch constants are not constructive.
    """
    rng = random.Random(seed)
    spec = ball.config.spec
    free = ball.free_vertices()
    targets = [v for v in free if v != ball.base]
    if not targets:
        raise WindowError("ball too small to sample geodesics")

    n_thick = ball.config.n_thick
    violations = excluded = uncertified = backtracks = 0
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
        if path is None:
            uncertified += 1
            continue
        if ball.parabolic_shortenings(path):
            excluded += 1
            continue
        word = derive(ball, path).word
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
            "excluded_by_shortenings": excluded,
            "uncertified_rejected": uncertified,
            "vertex_backtracks_observed": backtracks,
            "lambda_hat": str(lam_hat), "c_hat": c_hat, "seed": seed,
            "radius": ball.radius, "estimate": True,
            "notes": {"assumption_clauses": certified_clauses(spec, n_thick),
                      "n_thick": n_thick}}

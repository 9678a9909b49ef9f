"""Words over the relative alphabet (finite generators plus all parabolic
letters): component decomposition, backtracking and phase analysis, geodesic
checks, and the empirical measurement harness for the relative-thinness
constants.

Those constants exist by theorems but are not constructive, so everything a
harness reports here is a seeded empirical maximum with sample provenance,
never a certificate; `estimate` stays True in every report.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .graphs import hausdorff, slim_constant, thin_constant
from .groups import Element, GroupSpec, Letter, random_element


@dataclass(frozen=True)
class RelWord:
    """A word over X union H starting at a given vertex.  Words are allowed to
    backtrack; detecting that is the point."""

    base: Element
    letters: tuple[Letter, ...]

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class Component:
    """Maximal run of parabolic letters from one factor, with its endpoint
    vertices in the group.  Two components are connected when their keys,
    the factor and the right coset of start_vertex, are equal."""

    j: int
    start_index: int
    end_index: int  # inclusive letter positions
    start_vertex: Element
    end_vertex: Element
    key: tuple  # (j, coset_rep(start_vertex, j)), equal for end_vertex


@dataclass(frozen=True)
class WordAnalysis:
    backtracks: bool
    vertex_backtracks: bool
    isolated_components: tuple[int, ...]
    phase_vertices: tuple[int, ...]
    components: tuple[Component, ...]


def vertices(spec: GroupSpec, w: RelWord) -> list[Element]:
    """The walk v_0 = base, v_{i+1} = image(letter i) v_i, which everything
    below reads; a quotient v_k v_i^-1 does not depend on the base."""
    out = [w.base]
    for letter in w.letters:
        out.append(spec.multiply(spec.letter_image(letter), out[-1]))
    return out


def value(spec: GroupSpec, w: RelWord) -> Element:
    """The element the word represents: end times start-inverse."""
    return vertices(spec, RelWord(spec.identity, w.letters))[-1]


def decompose_components(spec: GroupSpec, w: RelWord) -> list[Component]:
    """Ordered maximal parabolic runs; letters outside them are X-letters."""
    return _components(spec, w.letters, vertices(spec, w))


def _components(spec: GroupSpec, letters: Sequence[Letter],
                verts: Sequence[Element]) -> list[Component]:
    comps = []
    i = 0
    n = len(letters)
    while i < n:
        letter = letters[i]
        if letter[0] != "h":
            i += 1
            continue
        j = letter[1]
        k = i
        while k + 1 < n and letters[k + 1][0] == "h" and letters[k + 1][1] == j:
            k += 1
        comps.append(Component(j, i, k, verts[i], verts[k + 1],
                               (j, spec.coset_rep(verts[i], j))))
        i = k + 1
    return comps


def _phase_indices(comps: Sequence[Component], n: int) -> tuple[int, ...]:
    """Vertex positions 0..n that are not interior to a component."""
    interior = set()
    for c in comps:
        interior.update(range(c.start_index + 1, c.end_index + 1))
    return tuple(i for i in range(n + 1) if i not in interior)


def _backtracks(spec: GroupSpec, w: RelWord) -> bool:
    """Whether two components of w are connected."""
    keys = [c.key for c in decompose_components(spec, w)]
    return len(set(keys)) < len(keys)


def _vertex_backtracks(spec: GroupSpec, verts: Sequence[Element]) -> bool:
    """Whether v_k v_i^-1 is trivial or parabolic for some k >= i + 2, i.e. two
    such vertices are equal or in one right coset of some factor."""
    first: dict = {}
    for k, v in enumerate(verts):
        for key in (v, *((j, spec.coset_rep(v, j)) for j in range(len(spec.factors)))):
            if k - first.setdefault(key, k) >= 2:
                return True
    return False


def analyze_word(spec: GroupSpec, w: RelWord) -> WordAnalysis:
    verts = vertices(spec, w)
    comps = _components(spec, w.letters, verts)
    keys = [c.key for c in comps]
    count = Counter(keys)
    isolated = tuple(a for a, key in enumerate(keys) if count[key] == 1)
    return WordAnalysis(len(isolated) < len(comps), _vertex_backtracks(spec, verts),
                        isolated, _phase_indices(comps, len(w.letters)),
                        tuple(comps))


def is_quasigeodesic(spec: GroupSpec, w: RelWord, lam, c) -> bool:
    """Exact (lam,c)-quasigeodesic check over every subword: k - i <= lam *
    d_rel(v_i, v_k) + c for all i < k, in integers; lam and c are ints or
    Fractions.

    For each start i the quotient v_k v_i^-1 grows by one letter image on the
    left per step.  It is kept as a stack of atoms, each a parabolic syllable
    or one free letter, top leftmost; the relative length is then the stack
    height.
    """
    scale = lam.denominator * c.denominator
    slope = lam.numerator * c.denominator
    offset = c.numerator * lam.denominator
    factors = spec.factors
    # a letter's image is one syllable: parabolic, or a one-letter free word
    atoms = [syl if syl[0] == "p" else syl[1][0]
             for syl in (spec.letter_image(x)[0] for x in w.letters)]
    for i in range(len(atoms)):
        stack: list = []
        for k in range(i, len(atoms)):
            atom = atoms[k]
            top = stack[-1] if stack else None
            if type(atom) is int:
                if top == -atom:
                    stack.pop()
                else:
                    stack.append(atom)
            else:
                j = atom[1]
                if type(top) is tuple and top[1] == j:
                    h = factors[j].mul(atom[2], top[2])
                    if h == factors[j].identity:
                        stack.pop()
                    else:
                        stack[-1] = ("p", j, h)
                else:
                    stack.append(atom)
            if (k + 1 - i) * scale > slope * len(stack) + offset:
                return False
    return True


def geodesic_word(spec: GroupSpec, start: Element, end: Element) -> RelWord:
    q = spec.multiply(end, spec.invert(start))
    return RelWord(start, tuple(spec.geodesic_letters(q)))


# ---------------------------------------------------------------------------
# samplers


def _random_x_offset(spec: GroupSpec, rng: random.Random, k: int) -> Element:
    g = spec.identity
    letters = spec.x_letters()
    for _ in range(rng.randint(0, k)):
        g = spec.multiply(spec.letter_image(rng.choice(letters)), g)
    return g


def perturbed_word(spec: GroupSpec, rng: random.Random, start: Element,
                   end: Element, lam, c, parabolic_cap: int = 2,
                   tries: int = 8) -> tuple[RelWord, int]:
    """A non-backtracking (lam,c)-quasigeodesic from start to end.

    Detour through a randomly offset waypoint, filtered by the exact
    quasigeodesic and backtracking checks; falls back to the geodesic word
    (always valid) when every detour is rejected.  Returns (word, rejections).
    """
    rejections = 0
    direct = geodesic_word(spec, start, end)
    if lam == 1 and c == 0:
        return direct, 0
    verts = vertices(spec, direct)
    for _ in range(tries):
        mid = verts[rng.randrange(len(verts))]
        offset = random_element(spec, rng, rng.randint(1, 2), parabolic_cap)
        waypoint = spec.multiply(offset, mid)
        cand = RelWord(start, geodesic_word(spec, start, waypoint).letters
                       + geodesic_word(spec, waypoint, end).letters)
        if is_quasigeodesic(spec, cand, lam, c) and not _backtracks(spec, cand):
            return cand, rejections
        rejections += 1
    return direct, rejections


# ---------------------------------------------------------------------------
# defect measurements


def _record(spec: GroupSpec, w: RelWord) -> tuple[list, list[Component]]:
    """Phase elements and components of w, off one walk."""
    verts = vertices(spec, w)
    comps = _components(spec, w.letters, verts)
    return [verts[i] for i in _phase_indices(comps, len(w.letters))], comps


def _reversed(comps: Sequence[Component], n: int) -> list[Component]:
    """The components of the length-n word walked backwards, from its end
    vertex over the inverse letters: in reverse order, each keeping its factor
    and key and swapping its endpoints."""
    return [Component(c.j, n - 1 - c.end_index, n - 1 - c.start_index,
                      c.end_vertex, c.start_vertex, c.key) for c in reversed(comps)]


def bcp_defects(spec: GroupSpec, wp: RelWord, wq: RelWord) -> dict[str, int]:
    """Defects of one similar pair against the coset-penetration clauses:
    phase-vertex closeness, size of unmatched components, and endpoint
    closeness of connected components.  Measured in both directions."""
    phase_p, comps_p = _record(spec, wp)
    phase_q, comps_q = _record(spec, wq)
    phase_defect = hausdorff(spec.x_row, phase_q, phase_p)

    unmatched = 0
    conn = 0
    for side_a, side_b in ((comps_q, comps_p), (comps_p, comps_q)):
        for ca in side_a:
            partners = [cb for cb in side_b if cb.key == ca.key]
            if not partners:
                unmatched = max(unmatched, spec.d_x(ca.start_vertex, ca.end_vertex))
            for cb in partners:
                conn = max(conn, spec.d_x(ca.start_vertex, cb.start_vertex),
                           spec.d_x(ca.end_vertex, cb.end_vertex))
    return {"phase": phase_defect, "unmatched": unmatched, "connected": conn}


def triangle_mu_defects(spec: GroupSpec, p: RelWord, q: RelWord, r: RelWord) -> int:
    """Worst defect of a non-backtracking quasigeodesic triangle against the
    four triangle clauses, closed under rotation and orientation reversal.
    Over the rotations the phase clause is the slim constant of the three
    phase sets, which reversal keeps."""
    (phase_p, cp), (phase_q, cq), (phase_r, cr) = (_record(spec, w) for w in (p, q, r))
    rp, rq, rr = (_reversed(comps, len(w)) for comps, w in ((cp, p), (cq, q), (cr, r)))
    worst = slim_constant(spec.x_row, phase_p, phase_q, phase_r)
    for a, b, c in ((cp, cq, cr), (rq, rp, rr)):
        for comps_a, comps_b, comps_c in ((a, b, c), (b, c, a), (c, a, b)):
            for cc in comps_c:
                ca = next((ca for ca in comps_a if ca.key == cc.key), None)
                cb = next((cb for cb in comps_b if cb.key == cc.key), None)
                if ca is None and cb is None:
                    worst = max(worst, spec.d_x(cc.start_vertex, cc.end_vertex))
                elif cb is None:
                    worst = max(worst, spec.d_x(cc.end_vertex, ca.start_vertex),
                                spec.d_x(ca.end_vertex, cc.start_vertex))
                elif ca is not None:
                    worst = max(worst, spec.d_x(cc.end_vertex, ca.start_vertex),
                                spec.d_x(ca.end_vertex, cb.start_vertex),
                                spec.d_x(cb.end_vertex, cc.start_vertex))
    return worst


def triangle_nu_defect(spec: GroupSpec, p: RelWord, q: RelWord, r: RelWord) -> int:
    """Slim constant of a triangle in d_X."""
    return slim_constant(spec.x_row, *(vertices(spec, w) for w in (p, q, r)))


# ---------------------------------------------------------------------------
# measurement harnesses


def _report(what: str, params: dict, samples: int, rejected: int, seed: int,
            **maxima: int) -> dict:
    """The `measure` report result: the named empirical maxima with their
    sample provenance, flagged as estimates."""
    return {"what": what, "params": params, "samples": samples,
            "rejected": rejected, "seed": seed, "estimate": True, **maxima}


def _sample_corner(spec: GroupSpec, rng: random.Random, radius: int,
                   parabolic_cap: int) -> Element:
    return random_element(spec, rng, rng.randint(0, radius), parabolic_cap)


def measure_bcp(spec: GroupSpec, qg_lam, qg_c, k: int, samples: int, seed: int,
                radius: int = 6, parabolic_cap: int = 2) -> dict:
    """Empirical penetration constant over sampled k-similar non-backtracking
    (lam,c)-quasigeodesic pairs."""
    rng = random.Random(seed)
    eps = 0
    rejected = 0
    for _ in range(samples):
        g1 = _sample_corner(spec, rng, radius, parabolic_cap)
        g2 = _sample_corner(spec, rng, radius, parabolic_cap)
        wp, rej_p = perturbed_word(spec, rng, g1, g2, qg_lam, qg_c, parabolic_cap)
        h1 = spec.multiply(_random_x_offset(spec, rng, k), g1)
        h2 = spec.multiply(_random_x_offset(spec, rng, k), g2)
        wq, rej_q = perturbed_word(spec, rng, h1, h2, qg_lam, qg_c, parabolic_cap)
        rejected += rej_p + rej_q
        defects = bcp_defects(spec, wp, wq)
        eps = max(eps, *defects.values())
    return _report("bcp", {"lambda": str(qg_lam), "c": str(qg_c), "k": k,
                           "radius": radius, "parabolic_cap": parabolic_cap,
                           "group": spec.to_json()},
                   max(samples, 0), rejected, seed, epsilon_hat=eps)


def _sample_triangle(spec: GroupSpec, rng: random.Random, lam, c, radius: int,
                     parabolic_cap: int) -> tuple[RelWord, RelWord, RelWord, int]:
    a = _sample_corner(spec, rng, radius, parabolic_cap)
    b = _sample_corner(spec, rng, radius, parabolic_cap)
    cc = _sample_corner(spec, rng, radius, parabolic_cap)
    wp, r1 = perturbed_word(spec, rng, a, b, lam, c, parabolic_cap)
    wq, r2 = perturbed_word(spec, rng, b, cc, lam, c, parabolic_cap)
    wr, r3 = perturbed_word(spec, rng, cc, a, lam, c, parabolic_cap)
    return wp, wq, wr, r1 + r2 + r3


def measure_triangles(spec: GroupSpec, qg_lam, qg_c, samples: int, seed: int,
                      radius: int = 6, parabolic_cap: int = 2) -> dict:
    """Empirical nu (geodesic triangles) and mu ((lam,c)-quasigeodesic
    triangles) over sampled triangles."""
    rng = random.Random(seed)
    nu = mu = 0
    rejected = 0
    for _ in range(samples):
        gp, gq, gr, _ = _sample_triangle(spec, rng, 1, 0, radius, parabolic_cap)
        nu = max(nu, triangle_nu_defect(spec, gp, gq, gr))
        wp, wq, wr, rej = _sample_triangle(spec, rng, qg_lam, qg_c, radius,
                                           parabolic_cap)
        rejected += rej
        mu = max(mu, triangle_mu_defects(spec, wp, wq, wr))
    return _report("triangles", {"lambda": str(qg_lam), "c": str(qg_c),
                                 "radius": radius, "parabolic_cap": parabolic_cap,
                                 "group": spec.to_json()},
                   samples, rejected, seed, nu_hat=nu, mu_hat=mu)


def measure_delta(spec: GroupSpec, samples: int, seed: int, radius: int = 6,
                  parabolic_cap: int = 2) -> dict:
    """Empirical thin and slim constants of sampled geodesic triangles in the
    relative metric."""
    rng = random.Random(seed)
    thin = slim = 0
    for _ in range(samples):
        wp, wq, wr, _ = _sample_triangle(spec, rng, 1, 0, radius, parabolic_cap)
        vp, vq, vr = (vertices(spec, w) for w in (wp, wq, wr))
        thin = max(thin, thin_constant(spec.rel_row, vp, vq, vr))
        slim = max(slim, slim_constant(spec.rel_row, vp, vq, vr))
    return _report("delta", {"radius": radius, "parabolic_cap": parabolic_cap,
                             "group": spec.to_json()},
                   samples, 0, seed, delta_hat=thin, delta_slim_hat=slim)


def measure_zeta(spec: GroupSpec, qg_lam, qg_c, samples: int, seed: int,
                 radius: int = 6, parabolic_cap: int = 2) -> dict:
    """Empirical Hausdorff closeness (relative metric) of sampled
    quasigeodesics to geodesics with the same endpoints."""
    rng = random.Random(seed)
    zeta = 0
    rejected = 0
    for _ in range(samples):
        g1 = _sample_corner(spec, rng, radius, parabolic_cap)
        g2 = _sample_corner(spec, rng, radius, parabolic_cap)
        wq, rej = perturbed_word(spec, rng, g1, g2, qg_lam, qg_c, parabolic_cap)
        rejected += rej
        wg = geodesic_word(spec, g1, g2)
        vq, vg = vertices(spec, wq), vertices(spec, wg)
        zeta = max(zeta, hausdorff(spec.rel_row, vq, vg))
    return _report("zeta", {"lambda": str(qg_lam), "c": str(qg_c),
                            "radius": radius, "parabolic_cap": parabolic_cap,
                            "group": spec.to_json()},
                   samples, rejected, seed, zeta_hat=zeta)

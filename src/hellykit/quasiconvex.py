"""Orbit subgraphs inside power graphs and the finite-instance checks of the
two subgraph lemmas: the thickened orbit is coarsely Helly with constant
3 + ceil(xi/k), and under pseudo-modularity it embeds isometrically.

Quasiconvexity over all (lam,c) is not decidable on a finite instance; the
enumerator sweeps the parameters it is given and reports the swept grid, and a
bound computed under a binding cap is flagged as a lower bound.  Every sweep
stops once its bound meets the orbit's covering radius, the largest k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, floor
from operator import gt
from typing import Optional, Sequence

from .graphs import (Graph, GraphError, full_subgraph, is_isometric_subgraph,
                     power_graph)
from .helly import coarse_helly_constant, is_pseudo_modular

ENUM_CAP_DEFAULT = 200_000
# the size bound of the coarse constant of the ambient graph and of Delta,
# in place of helly's default: the lemma instances outgrow 14 vertices
SECTION5_VERTEX_BOUND = 64


def _check_orbit(ambient: Graph, orbit: Sequence[int]) -> None:
    if not orbit:
        raise GraphError("orbit must be nonempty")
    for v in orbit:
        if not 0 <= v < ambient.n:
            raise GraphError(f"orbit vertex {v} is not a vertex of the ambient "
                             f"graph (0..{ambient.n - 1})")


@dataclass(frozen=True)
class QGParams:
    """Quasigeodesic parameters: stretch lam >= 1, additive c >= 0."""

    lam: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.c < 0:
            raise ValueError("c must be >= 0")


@dataclass(frozen=True)
class OrbitSpec:
    ambient: Graph
    orbit: tuple[int, ...]
    k: int

    def __post_init__(self):
        _check_orbit(self.ambient, self.orbit)
        if self.k < 1:
            raise GraphError("k must be >= 1")


@dataclass(frozen=True)
class QCResult:
    k: int                 # neighbourhood constant over the enumerated family
    enumerated: int        # quasigeodesics with endpoints in the orbit seen,
    explored: int          # and DFS prefixes visited, both up to any early stop
    capped: bool           # True: k is only a lower bound


def quasiconvexity_k(ambient: Graph, orbit: Sequence[int], q: QGParams,
                     cap: int = ENUM_CAP_DEFAULT) -> QCResult:
    """Least k with every enumerated (lam,c)-quasigeodesic with endpoints in
    the orbit inside the orbit's k-neighbourhood.

    Depth-first search over walks, pruning any prefix that already violates
    the quasigeodesic inequality (prefixes of quasigeodesics are
    quasigeodesics, so this is lossless).  If the exploration cap binds, the
    result is a lower bound and says so.  The search stops once k reaches
    the orbit's covering radius, max over v of d(v, orbit), which no walk
    exceeds: k and capped are those of the exhaustive search wherever that
    is uncapped, and the counts end at the stop.
    """
    _check_orbit(ambient, orbit)
    wset = sorted(set(orbit))
    d = ambient.dist()
    to_orbit = [min(d[v][w] for w in wset) for v in range(ambient.n)]
    stop = max(to_orbit)
    # an int k exceeds lam*d + c exactly when it exceeds floor(lam*d + c),
    # so the walk test compares ints only; one product per distance
    by_d = [floor(q.lam * duv + q.c) for duv in range(max(map(max, d)) + 1)]
    lim = [list(map(by_d.__getitem__, row)) for row in d]

    best = 0
    enumerated = 0
    explored = 0
    capped = False

    def search(w1: int) -> bool:
        """The walks from w1, depth first; False once the search stops.  A
        walk may outgrow the recursion limit, so each stack frame holds what
        a call did: the tail's neighbours left to try, n - i for each walk[i]
        and the walk's farthest distance from the orbit."""
        nonlocal best, enumerated, explored, capped
        walk, todo = [], [(iter((w1,)), (), 0)]
        while todo:
            left, steps, high = todo[-1]
            for w in left:
                # d is symmetric, so lim[w][walk[i]] bounds the walk from walk[i]
                if not any(map(gt, steps, map(lim[w].__getitem__, walk))):
                    break
            else:
                del todo[-1], walk[-1:]
                continue
            if explored == cap:
                capped = True
                return False
            explored += 1
            walk.append(w)
            high = max(high, to_orbit[w])
            if w in orbit_set:
                enumerated += 1
                best = max(best, high)
                if best == stop:
                    return False
            todo.append((iter(ambient.adj[w]), range(len(walk), 0, -1), high))
        return True

    orbit_set = set(wset)
    for w1 in wset:
        if not search(w1):
            break
    return QCResult(best, enumerated, explored, capped)


def build_delta(spec: OrbitSpec) -> tuple[Graph, list[int], Graph]:
    """The full subgraph of the k-power spanned by the orbit's closed
    1-neighbourhood, its embedding, and the k-power itself.  full_subgraph
    numbers the sorted span in order, so the embedding is the span."""
    gk = power_graph(spec.ambient, spec.k)
    d = spec.ambient.dist()
    span = sorted(v for v in range(spec.ambient.n)
                  if min(d[v][w] for w in spec.orbit) <= spec.k)
    delta, _ = full_subgraph(gk, span)
    return delta, span, gk


def verify_section5(spec: OrbitSpec, xi_ambient: Optional[int] = None,
                    cap: int = ENUM_CAP_DEFAULT, instance: str = "",
                    requested: Optional[QGParams] = None) -> dict:
    """The `quasiconvex` report result.  Check both subgraph lemmas on one
    instance, and sweep the requested (lam,c) on top of the lemma grid.  Each
    distinct pair is swept once and stops at the orbit's covering radius;
    the requested pair's `enumerated` counts the quasigeodesics seen before
    that stop.

    Hypotheses are verified computationally; a conclusion is only asserted
    when its hypotheses verified, otherwise it is reported as skipped.  A
    checked conclusion that fails indicates an implementation bug, so callers
    treat it as a hard error; `violations` counts them.  A claimed xi_ambient
    is checked against the computed one and reported in its place.
    """
    ambient, k = spec.ambient, spec.k
    xi = coarse_helly_constant(ambient, SECTION5_VERTEX_BOUND)
    if xi_ambient is not None:
        if xi > xi_ambient:
            raise GraphError(
                f"ambient coarse constant {xi} exceeds the claimed {xi_ambient}")
        xi = xi_ambient
    # before the sweeps, so that a disconnected Delta is refused at once
    delta, embedding, gk = build_delta(spec)
    sweep = cache(lambda q: quasiconvexity_k(ambient, spec.orbit, q, cap=cap))

    grid = [f"(1,{2 * xi})", "(5,0)"]
    qc1 = sweep(QGParams(1, 2 * xi))
    coarse_hyp = {"checked": True, "qc_constant": qc1.k, "capped": qc1.capped,
                  "holds": not qc1.capped and qc1.k <= k}

    pm, _ = is_pseudo_modular(ambient)
    qc5 = sweep(QGParams(5, 0))
    iso_hyp = {"checked": True, "pseudo_modular": pm, "qc_constant": qc5.k,
               "capped": qc5.capped,
               "holds": pm and not qc5.capped and qc5.k <= k}

    if coarse_hyp["holds"]:
        xi_delta = coarse_helly_constant(delta, SECTION5_VERTEX_BOUND)
        bound = 3 + ceil(Fraction(xi, k))
        coarse_conc = {"checked": True, "xi_delta": xi_delta, "bound": bound,
                       "holds": xi_delta <= bound}
    else:
        coarse_conc = {"checked": False, "reason": "hypothesis failed, skipped"}

    if iso_hyp["holds"]:
        ok, witness = is_isometric_subgraph(delta, embedding, gk)
        iso_conc = {"checked": True, "holds": ok}
        if witness is not None:
            iso_conc["witness"] = list(witness)
    else:
        iso_conc = {"checked": False, "reason": "hypothesis failed, skipped"}

    out = {"instance": instance, "k": k, "xi_ambient": xi,
           "coarse_hypothesis": coarse_hyp, "isometric_hypothesis": iso_hyp,
           "coarse_conclusion": coarse_conc, "isometric_conclusion": iso_conc,
           "swept_grid": grid,
           "violations": sum(conc["checked"] and not conc["holds"]
                             for conc in (coarse_conc, iso_conc))}
    if requested is not None:
        qc = sweep(requested)
        grid.append(f"({requested.lam},{requested.c})")
        out["requested_qc"] = {"lambda": str(requested.lam), "c": str(requested.c),
                               "k": qc.k, "capped": qc.capped,
                               "enumerated": qc.enumerated}
    return out

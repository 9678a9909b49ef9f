"""hellykit: Helly-type analysis of finite graphs, desk-scale free-product
group models, relative Cayley words, glued parabolic thickenings, and the
derived-word transformation, with seeded measurement harnesses."""

from .graphs import (Graph, QGParams, ball, classify_path,
                     enumerate_geodesics, full_subgraph, hausdorff_distance,
                     interval, is_isometric_subgraph, power_graph, thinness_delta)
from .helly import (analyze, coarse_helly_constant, decide_helly,
                    extremal_functions, hellyfication, is_helly,
                    is_pseudo_modular, stable_interval_constant)
from .groups import (CyclicFactor, FiniteFactor, FreeAbelianFactor, GroupSpec)
from .relwords import (Component, RelWord, analyze_word, connected,
                       decompose_components, is_rel_geodesic, k_similar,
                       measure_bcp, measure_delta, measure_triangles,
                       measure_zeta)
from .gamma import GammaConfig, GammaWindow
from .derived import DerivedResult, derive, verify_derivation_theorems, z_path
from .quasiconvex import (OrbitSpec, build_delta, quasiconvexity_k,
                          verify_section5)

__version__ = "0.1.0"

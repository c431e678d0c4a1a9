"""Limited multi-path routing on extended generalized fat-trees.

A from-scratch reproduction of Mahapatra, Yuan & Nienaber, "Limited
Multi-path Routing on Extended Generalized Fat-trees" (IPDPS Workshops
2012): the XGFT topology family, single-path baselines (d-mod-k, s-mod-k,
random), the paper's limited multi-path heuristics (shift-1, disjoint,
random-K), unlimited multi-path routing, a vectorized flow-level
evaluator, an event-driven flit-level virtual cut-through simulator, and
the full experiment harness for the paper's figures and tables.

Quickstart
----------
>>> import repro
>>> xgft = repro.m_port_n_tree(8, 2)
>>> scheme = repro.make_scheme(xgft, "disjoint:2")
>>> scheme.route(0, 17).indices
(1, 2)
"""

from repro.errors import (
    ReproError,
    ResourceError,
    RoutingError,
    SimulationError,
    TopologyError,
    TrafficError,
)
from repro.topology import XGFT, gft, k_ary_n_tree, m_port_n_tree, slimmed_xgft
from repro.routing import (
    Disjoint,
    DModK,
    Path,
    RandomMultipath,
    RandomSingle,
    RouteSet,
    RoutingScheme,
    Shift1,
    SModK,
    UMulti,
    available_schemes,
    build_path,
    make_scheme,
)
from repro.traffic import (
    TrafficMatrix,
    all_to_all,
    bit_complement,
    bit_reversal,
    hotspot,
    permutation_matrix,
    random_permutation,
    shift_pattern,
    theorem2_pattern,
    transpose_pattern,
    uniform_expected,
)
from repro.flow import (
    FlowResult,
    FlowSimulator,
    PermutationStudy,
    link_loads,
    max_link_load,
    optimal_load,
    performance_ratio,
)

# Subpackages intentionally not flattened into the top level (import
# them directly): repro.flit (the VCT engine), repro.ib (LID/LFT
# realization), repro.faults (fault injection, degraded-fabric routing),
# repro.analysis (theorem validators, exact LP ratios),
# repro.experiments (the paper's tables and figures),
# repro.obs (run telemetry: recorder, JSONL logs, manifests),
# repro.runner (on-disk result cache, pooled and cached flit sweeps).

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "TopologyError",
    "RoutingError",
    "TrafficError",
    "SimulationError",
    "ResourceError",
    # topology
    "XGFT",
    "m_port_n_tree",
    "k_ary_n_tree",
    "gft",
    "slimmed_xgft",
    # routing
    "RoutingScheme",
    "RouteSet",
    "Path",
    "build_path",
    "make_scheme",
    "available_schemes",
    "DModK",
    "SModK",
    "RandomSingle",
    "Shift1",
    "Disjoint",
    "RandomMultipath",
    "UMulti",
    # traffic
    "TrafficMatrix",
    "random_permutation",
    "permutation_matrix",
    "all_to_all",
    "uniform_expected",
    "shift_pattern",
    "transpose_pattern",
    "bit_reversal",
    "bit_complement",
    "hotspot",
    "theorem2_pattern",
    # flow
    "FlowSimulator",
    "FlowResult",
    "PermutationStudy",
    "link_loads",
    "max_link_load",
    "optimal_load",
    "performance_ratio",
]

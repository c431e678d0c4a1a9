"""Traffic matrices and workload generators.

The paper evaluates permutation traffic (flow level) and uniform random
traffic (flit level); this package also provides the Theorem 2 adversarial
construction and the classic synthetic patterns used in the fat-tree
routing literature (shift, transpose, bit patterns, hotspot).
"""

from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import (
    derangement,
    random_permutation,
    permutation_matrix,
    sample_permutations,
)
from repro.traffic.synthetic import (
    all_to_all,
    bit_complement,
    bit_reversal,
    hotspot,
    shift_pattern,
    transpose_pattern,
    uniform_expected,
)
from repro.traffic.adversarial import (
    adversarial_permutation,
    suggest_theorem2_topology,
    theorem2_pattern,
)

__all__ = [
    "TrafficMatrix",
    "random_permutation",
    "derangement",
    "permutation_matrix",
    "sample_permutations",
    "all_to_all",
    "uniform_expected",
    "shift_pattern",
    "transpose_pattern",
    "bit_reversal",
    "bit_complement",
    "hotspot",
    "theorem2_pattern",
    "suggest_theorem2_topology",
    "adversarial_permutation",
]

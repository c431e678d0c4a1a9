"""The reproduction's seven ablations: what the paper holds constant.

The paper fixes a switch model, one virtual channel, a buffer depth and
per-packet spreading, and evaluates random permutations at the flow
level and uniform traffic at the flit level.  Each ablation varies one
of these choices and prints one table:

* **switch model** — Table 1's core comparison, d-mod-k against
  disjoint(8), under output-queued and input-FIFO switches, each cell
  the mean of five workload seeds (DESIGN.md Section 2);
* **virtual channels** — the same pair on input-FIFO switches with 1, 2
  and 4 VCs;
* **buffer depth** — disjoint(4)'s maximum throughput against the input
  buffer depth, which the paper's text lost;
* **fraction realization** — disjoint(8) with per-packet, per-message
  and round-robin path selection;
* **traffic patterns** — flow-level performance ratios under shift,
  bit-reversal, bit-complement and hotspot traffic on the 16-port 2-tree;
* **slimmed trees** — average max permutation load as the top level of
  ``XGFT(3; 4,4,4; 1,4,w)`` narrows;
* **flow/flit cross-validation** — one permutation's flow-level max load
  beside the flit engine's delivered throughput on it.

The flit ablations run on the paper's 8-port 3-tree, each point on the
default batched engine.  ``tests/claims`` checks what each table shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.flit.config import FlitConfig
from repro.flit.sweep import load_sweep
from repro.flit.workload import FixedPermutation
from repro.flow.sampling import PermutationStudy
from repro.flow.simulator import FlowSimulator
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree, slimmed_xgft
from repro.topology.xgft import XGFT
from repro.traffic.permutations import derangement, permutation_matrix
from repro.traffic.synthetic import (
    bit_complement,
    bit_reversal,
    hotspot,
    shift_pattern,
)
from repro.util.tables import format_table

#: offered loads of every flit ablation's sweep
LOADS = (0.6, 0.8, 1.0)

#: workload seeds the switch-model cells average over (the paper's five)
SWITCH_MODEL_REPEATS = 5


@dataclass(frozen=True)
class Ablation:
    """One ablation's table; each row starts with its label."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    floatfmt: str = ".4f"

    def column(self, header: str) -> dict:
        """Row label -> that row's value under ``header``."""
        j = self.headers.index(header)
        return {row[0]: row[j] for row in self.rows}

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title,
                            floatfmt=self.floatfmt)


@dataclass(frozen=True)
class AblationsResult:
    """The seven ablation tables, by name, in run order."""

    tables: dict[str, Ablation]

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables.values())


def _config(**changes) -> FlitConfig:
    return FlitConfig(warmup_cycles=500, measure_cycles=2500,
                      drain_cycles=3000, **changes)


def _max_throughput(xgft: XGFT, spec: str, config: FlitConfig,
                    **sweep) -> float:
    return load_sweep(xgft, make_scheme(xgft, spec), config, loads=LOADS,
                      **sweep).max_throughput


def switch_model(xgft: XGFT) -> Ablation:
    rows = tuple(
        (model, *(_max_throughput(xgft, spec, _config(switch_model=model),
                                  repeats=SWITCH_MODEL_REPEATS)
                  for spec in ("d-mod-k", "disjoint:8")))
        for model in ("output-queued", "input-fifo"))
    return Ablation(
        f"Ablation: max throughput by switch model (mean of "
        f"{SWITCH_MODEL_REPEATS} workload seeds)",
        ("switch model", "d-mod-k", "disjoint(8)"), rows)


def virtual_channels(xgft: XGFT) -> Ablation:
    rows = tuple(
        (vcs, *(_max_throughput(xgft, spec, _config(
                    switch_model="input-fifo", buffer_packets=2,
                    virtual_channels=vcs))
                for spec in ("d-mod-k", "disjoint:8")))
        for vcs in (1, 2, 4))
    return Ablation(
        "Ablation: virtual channels, input-FIFO switches "
        "(8-port 3-tree, uniform)", ("VCs", "d-mod-k", "disjoint(8)"), rows)


def buffer_depth(xgft: XGFT) -> Ablation:
    rows = tuple(
        (depth, _max_throughput(xgft, "disjoint:4",
                                _config(buffer_packets=depth)))
        for depth in (1, 2, 4, 8))
    return Ablation("Ablation: buffer depth, disjoint(4)",
                    ("buffer (packets)", "max throughput"), rows)


def fraction_realization(xgft: XGFT) -> Ablation:
    rows = tuple(
        (mode, _max_throughput(xgft, "disjoint:8",
                               _config(path_selection=mode)))
        for mode in ("per-packet", "per-message", "round-robin"))
    return Ablation("Ablation: fraction realization, disjoint(8)",
                    ("path selection", "max throughput"), rows)


def traffic_patterns() -> Ablation:
    specs = ("d-mod-k", "shift-1:4", "random:4", "disjoint:4", "umulti")
    xgft = m_port_n_tree(16, 2)  # 128 nodes, a power of two
    n = xgft.n_procs
    sim = FlowSimulator(xgft)
    schemes = [make_scheme(xgft, spec) for spec in specs]
    patterns = (("shift(1)", shift_pattern(n, 1)),
                ("shift(n/2)", shift_pattern(n, n // 2)),
                ("bit-reversal", bit_reversal(n)),
                ("bit-complement", bit_complement(n)),
                ("hotspot", hotspot(n, [0, 1], hot_fraction=0.3)))
    rows = tuple((name, *(sim.evaluate(scheme, tm).ratio for scheme in schemes))
                 for name, tm in patterns)
    return Ablation(
        "Ablation: performance ratio by pattern (flow level, 16-port 2-tree)",
        ("pattern", *specs), rows, ".3f")


def slimmed_trees() -> Ablation:
    specs = ("d-mod-k", "disjoint:2", "umulti")
    rows = []
    for slim in (0, 1, 2):
        xgft = slimmed_xgft(3, 4, 4, slim)
        study = PermutationStudy(xgft, initial_samples=16, max_samples=64,
                                 rel_precision=0.05, seed=5)
        rows.append((f"w_top={4 - slim}",
                     *(study.run(make_scheme(xgft, spec)).mean
                       for spec in specs)))
    return Ablation(
        "Ablation: avg max permutation load vs top-level slimming "
        "(XGFT(3; 4,4,4; 1,4,w))",
        ("top width", *specs), tuple(rows), ".3f")


def cross_validation(xgft: XGFT) -> Ablation:
    perm = derangement(xgft.n_procs, seed=7)
    tm = permutation_matrix(perm)
    flow = FlowSimulator(xgft)
    config = FlitConfig(warmup_cycles=500, measure_cycles=3000,
                        drain_cycles=3000, seed=1)
    rows = []
    for spec in ("d-mod-k", "disjoint:4", "umulti"):
        scheme = make_scheme(xgft, spec)
        sweep = load_sweep(xgft, scheme, config, loads=(0.6, 1.0),
                           workload_factory=partial(FixedPermutation,
                                                    perm=perm))
        rows.append((spec, flow.evaluate(scheme, tm).max_load,
                     sweep.max_throughput))
    return Ablation(
        "Cross-validation: one permutation, flow prediction vs flit "
        "measurement", ("scheme", "flow max load", "flit max throughput"),
        tuple(rows))


def run() -> AblationsResult:
    """Run the seven ablations at their fixed sizes."""
    xgft = m_port_n_tree(8, 3)
    return AblationsResult({
        "switch_model": switch_model(xgft),
        "virtual_channels": virtual_channels(xgft),
        "buffer_depth": buffer_depth(xgft),
        "fraction_realization": fraction_realization(xgft),
        "traffic_patterns": traffic_patterns(),
        "slimmed_trees": slimmed_trees(),
        "cross_validation": cross_validation(xgft),
    })

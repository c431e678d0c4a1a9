"""Address-space accounting: the cost of K paths in InfiniBand terms.

Quantifies the paper's motivation: limited multi-path routing exists
because unlimited multi-path routing exhausts the LID space / LMC budget
on real networks (e.g. 144 paths on the TACC Ranger 24-port 3-tree
exceed the 128-path LMC cap).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ResourceError
from repro.ib.lid import MAX_LMC, UNICAST_LIDS, lmc_for_paths
from repro.topology.xgft import XGFT


@dataclass(frozen=True)
class ResourceReport:
    """Feasibility of realizing ``k_paths`` per destination on a topology.

    ``feasible`` is False when the LMC cap or unicast LID space is
    exceeded; ``limit_reason`` names the binding constraint.
    """

    topology: str
    k_paths: int
    lmc: int
    lids_per_port: int
    total_lids: int
    lid_space_fraction: float
    feasible: bool
    limit_reason: str

    def row(self) -> tuple:
        """K, LMC, LIDs per port, total LIDs, LID-space fraction and
        feasibility, as one table row."""
        return (
            self.k_paths,
            self.lmc if self.feasible or self.lmc >= 0 else "-",
            self.lids_per_port,
            self.total_lids,
            self.lid_space_fraction,
            "yes" if self.feasible else f"NO ({self.limit_reason})",
        )


def resource_report(xgft: XGFT, k_paths: int) -> ResourceReport:
    """Account the LID resources ``k_paths`` paths per destination need
    on ``xgft`` (never raises; infeasibility is reported in the result).
    """
    name = repr(xgft)
    try:
        lmc = lmc_for_paths(k_paths)
    except ResourceError:
        lmc = (k_paths - 1).bit_length()
        return ResourceReport(
            name, k_paths, lmc, 1 << lmc, xgft.n_procs * (1 << lmc),
            xgft.n_procs * (1 << lmc) / UNICAST_LIDS, False,
            f"LMC {lmc} > {MAX_LMC}",
        )
    lids_per_port = 1 << lmc
    total = xgft.n_procs * lids_per_port
    if total > UNICAST_LIDS:
        return ResourceReport(
            name, k_paths, lmc, lids_per_port, total,
            total / UNICAST_LIDS, False, "unicast LID space exhausted",
        )
    return ResourceReport(
        name, k_paths, lmc, lids_per_port, total, total / UNICAST_LIDS,
        True, "",
    )

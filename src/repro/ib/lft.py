"""Linear forwarding tables (LFTs): destination-LID-based forwarding.

InfiniBand switches forward by indexing a linear table with the packet's
destination LID.  This module compiles LFTs that realize a routing
scheme's path sets and traces packets through them, which validates two
things the paper relies on:

* the heuristics' paths *are* realizable with destination-based
  forwarding (each path index maps to source-independent up-port digits);
* pairs below the top level see *truncated* path diversity: the LFT
  climbs only to the NCA, so a K-path assignment yields the distinct
  level-k digit prefixes of the K full-height indices.  The disjoint
  ordering varies the lowest-level digits first and therefore keeps more
  distinct paths for nearby pairs than shift-1 — quantified by
  :func:`effective_paths` and the diversity table of ``python -m repro
  resources``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ResourceError, RoutingError
from repro.ib.lid import LidAssignment, assign_lids
from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.enumeration import path_codec
from repro.topology.xgft import XGFT


@dataclass(frozen=True)
class ForwardingTables:
    """Compiled forwarding state for one topology + scheme + LMC.

    Attributes
    ----------
    lids:
        The LID assignment the tables are indexed by.
    up_port:
        ``(h, total_lids)`` int16 array: ``up_port[l, lid-1]`` is the up
        port a level-``l`` node uses for that LID while climbing.  It is
        switch-independent because every scheme here is digit-defined —
        exactly the property that makes the heuristics realizable in
        InfiniBand.
    path_index:
        ``(n_procs, lids_per_port)`` int64 array: the full-height path
        index realized by each (destination, LID-offset).
    """

    xgft: XGFT
    scheme_label: str
    lids: LidAssignment
    up_port: np.ndarray
    path_index: np.ndarray

    def port_for(self, level: int, switch: int, lid: int) -> int:
        """The LFT lookup: output port of ``switch`` (at ``level``) for
        ``lid``.  Up ports are ``0..w-1``; down ports follow, ordered by
        child digit (matching :class:`repro.topology.XGFT`)."""
        node, _ = self.lids.decode(lid)
        xgft = self.xgft
        if level > 0:
            # The high digits of a level-l switch index name the height-l
            # subtree it tops; the destination is below iff they match.
            if node // xgft.M(level) == switch // xgft.W(level):
                child_digit = (node // xgft.M(level - 1)) % xgft.m[level - 1]
                return xgft.n_up_ports(level) + child_digit
        if level == xgft.h:
            raise RoutingError(
                f"top-level switch {switch} asked to route LID {lid} upward"
            )
        return int(self.up_port[level, lid - 1])


def compile_lfts(
    xgft: XGFT, scheme: RoutingScheme, k_paths: int | None = None
) -> ForwardingTables:
    """Compile forwarding tables realizing ``scheme`` on ``xgft``.

    ``k_paths`` defaults to the scheme's top-level path count.  Each
    destination's LID offsets are mapped round-robin onto its full-height
    path set.
    """
    h = xgft.h
    if h < 1 or xgft.m[h - 1] < 2:
        raise ResourceError(
            "LFT compilation needs a topology with top-level pairs (m_h >= 2)"
        )
    if k_paths is None:
        k_paths = scheme.paths_per_pair(h)
    rec = get_recorder()
    with rec.timer("ib.compile_lfts"):
        lids = assign_lids(xgft, k_paths)

        dests = np.arange(xgft.n_procs, dtype=np.int64)
        # A representative source whose NCA with every destination is the
        # top level (only s-mod-k / hashed schemes even look at it).
        reps = (dests + xgft.M(h - 1)) % xgft.n_procs
        full, pair_w = scheme.path_selection(reps, dests, h)  # (n, P_h)
        if pair_w is None:
            offsets = np.arange(lids.lids_per_port) % full.shape[1]
            path_index = full[:, offsets]  # (n, lids_per_port)
        else:
            # Fault-aware scheme: rows are padded with weight-0
            # duplicates, so round-robin the LID offsets over each
            # destination's *live* paths only.
            offs = np.arange(lids.lids_per_port)
            path_index = np.empty((len(dests), lids.lids_per_port),
                                  dtype=np.int64)
            for i in range(len(dests)):
                live = full[i][pair_w[i] > 0.0]
                path_index[i] = live[offs % len(live)]

        codec = path_codec(xgft, h)
        total = lids.total_lids
        up_port = np.zeros((h, total), dtype=np.int16)
        flat = path_index.reshape(-1)  # lid-1 -> path index
        for l in range(h):
            up_port[l, :] = (flat // codec.strides[l]) % xgft.w[l]
    if rec.enabled:
        rec.count("ib.lfts_compiled")
        rec.count("ib.lids_assigned", lids.total_lids)
    return ForwardingTables(xgft, scheme.label, lids, up_port, path_index)


def trace_route(
    tables: ForwardingTables, src: int, dst: int, offset: int = 0
) -> list[tuple[int, int]]:
    """Forward a packet from ``src`` to LID ``lid(dst, offset)`` through
    the compiled tables; returns the visited ``(level, index)`` nodes.

    Raises :class:`RoutingError` if the packet loops or misroutes —
    table-driven forwarding must terminate within ``2h`` hops.
    """
    xgft = tables.xgft
    lid = tables.lids.lid(dst, offset)
    level, node = 0, src
    visited = [(level, node)]
    for _ in range(2 * xgft.h + 1):
        if level == 0 and node == dst:
            return visited
        if level == 0 and node != dst:
            port = int(tables.up_port[0, lid - 1])
            node = int(xgft.parent(0, node, port))
            level = 1
        else:
            port = tables.port_for(level, node, lid)
            if port < xgft.n_up_ports(level):
                node = int(xgft.parent(level, node, port))
                level += 1
            else:
                child_digit = port - xgft.n_up_ports(level)
                node = int(xgft.child(level, node, child_digit))
                level -= 1
        visited.append((level, node))
    raise RoutingError(
        f"packet {src}->{dst} (offset {offset}) did not reach its "
        f"destination within {2 * xgft.h + 1} hops: {visited}"
    )


def effective_paths(tables: ForwardingTables, src: int, dst: int) -> int:
    """Number of *distinct* paths the LID realization offers an SD pair.

    Below the top level the LFT only distinguishes the level-``k`` digit
    prefix of each LID's full-height path index, so nearby pairs may see
    fewer than ``lids_per_port`` distinct routes.
    """
    xgft = tables.xgft
    if src == dst:
        return 1
    k = xgft.nca_level(src, dst)
    codec = path_codec(xgft, xgft.h)
    idx = tables.path_index[dst]
    prefix_stride = codec.strides[k - 1]  # place value of the level-(k-1) digit
    return len(np.unique(idx // prefix_stride))

"""Tracing and flow-level evaluation of fabric routes.

Packets are walked hop by hop through the compiled forwarding tables
(exactly what the switches would do), so these results reflect the
deployed tables rather than any closed form.  Loads use the fabric's
dense channel ids and plug into the same max-load/balance metrics as
the XGFT evaluator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.fabric.router import NO_ROUTE, FabricRoutes
from repro.traffic.matrix import TrafficMatrix


def trace(
    routes: FabricRoutes, src: int, dst: int, offset: int = 0
) -> list[int] | None:
    """Node sequence from ``src`` to ``dst`` for one LID offset.

    Returns ``None`` when the pair is unreachable (a ``NO_ROUTE`` entry
    is hit); raises :class:`RoutingError` on a forwarding loop, which
    would indicate a router bug.
    """
    fabric = routes.fabric
    if not 0 <= src < fabric.n_hosts or not 0 <= dst < fabric.n_hosts:
        raise RoutingError("src and dst must be host ids")
    v = routes.vdest(dst, offset)
    node = src
    visited = [src]
    limit = 2 * routes.structure.max_rank + 2
    for _ in range(limit):
        if node == dst:
            return visited
        nxt = int(routes.next_hop[node, v])
        if nxt == NO_ROUTE:
            return None
        node = nxt
        visited.append(node)
    if node == dst:
        return visited
    raise RoutingError(
        f"forwarding loop for {src} -> {dst} (offset {offset}): {visited}"
    )


def compile_flit_routes(routes: FabricRoutes) -> dict[int, list[tuple[int, ...]]]:
    """Compile fabric routes into flit route lists.

    Returns the mapping ``src * n_hosts + dst -> [channel-id paths]``
    (one per LID offset, deduplicated) that
    :meth:`repro.flit.FlitSimulator.from_tables` converts into its route
    table — enabling flit-level simulation of discovered (and degraded)
    fabrics.

    Raises :class:`RoutingError` when any host pair is unreachable; a
    flit study on a partitioned network would silently starve.
    """
    fabric = routes.fabric
    n = fabric.n_hosts
    table: dict[int, list[tuple[int, ...]]] = {}
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            paths = []
            for offset in range(routes.n_offsets):
                nodes = trace(routes, s, d, offset)
                if nodes is None:
                    raise RoutingError(f"pair {s} -> {d} is unreachable")
                path = tuple(fabric.channel_id[(a, b)]
                             for a, b in zip(nodes, nodes[1:]))
                if path not in paths:
                    paths.append(path)
            table[s * n + d] = paths
    return table


def fabric_link_loads(routes: FabricRoutes, tm: TrafficMatrix) -> np.ndarray:
    """Per-channel load vector for a traffic matrix.

    Each pair's traffic is split evenly over the ``n_offsets`` LID
    routes (the limited multi-path model).  Unreachable pairs raise —
    loads on a silently lossy network would be meaningless.
    """
    fabric = routes.fabric
    if tm.n_procs != fabric.n_hosts:
        raise RoutingError(
            f"traffic matrix over {tm.n_procs} hosts but fabric has "
            f"{fabric.n_hosts}"
        )
    loads = np.zeros(fabric.n_channels)
    src_arr, dst_arr, amounts = tm.network_pairs()
    share = 1.0 / routes.n_offsets
    for s, d, amount in zip(src_arr, dst_arr, amounts):
        for offset in range(routes.n_offsets):
            nodes = trace(routes, int(s), int(d), offset)
            if nodes is None:
                raise RoutingError(f"pair {s} -> {d} is unreachable")
            for a, b in zip(nodes, nodes[1:]):
                loads[fabric.channel_id[(a, b)]] += amount * share
    return loads

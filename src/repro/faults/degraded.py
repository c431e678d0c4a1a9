"""The degraded-fabric mask: which parts of an XGFT survive.

A :class:`DegradedFabric` pairs a topology with a boolean liveness mask
over its dense directed-link ids.  Faults come in two physical flavors —
dead cables and dead switches — but both reduce to the link mask:

* a failed *cable* kills both of its directed links;
* a failed *switch* kills every directed link incident to it (a path
  cannot traverse a switch without using one link in and one link out,
  so masking incident links is exactly equivalent to masking the node).

Keeping the mask at link granularity lets every consumer stay
vectorized: path liveness is two gathers from per-level liveness tables
(:meth:`DegradedFabric.level_liveness`), and the flit engine zeroes the
credits of failed channels.

Cables are identified by their *up-link* id (each physical cable is the
up link plus its paired down link; see :func:`cable_links`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultError
from repro.routing.vectorized import (
    check_path_indices,
    pair_part_tables,
    path_link_table,
)
from repro.topology.xgft import XGFT


def cable_links(xgft: XGFT, up_link_id: int) -> tuple[int, int]:
    """Both directed link ids of the cable named by ``up_link_id``.

    >>> from repro.topology import m_port_n_tree
    >>> xgft = m_port_n_tree(4, 2)
    >>> up, down = cable_links(xgft, 0)
    >>> xgft.link_ref(down).dst_index == xgft.link_ref(up).src_index
    True
    """
    ref = xgft.link_ref(up_link_id)
    if ref.kind.value != "up":
        raise FaultError(
            f"cables are named by their up-link id; {up_link_id} is a down link"
        )
    l, index = ref.src_level, ref.src_index
    child_digit = (index // xgft.W(l)) % xgft.m[l]
    down = int(xgft.down_link_id(l, ref.dst_index, child_digit))
    return up_link_id, down


def switch_links(xgft: XGFT, level: int, index: int) -> list[int]:
    """Every directed link id incident to the switch ``(level, index)``."""
    if not 1 <= level <= xgft.h:
        raise FaultError(f"switch level {level} out of range [1, {xgft.h}]")
    if not 0 <= index < xgft.level_size(level):
        raise FaultError(
            f"switch index {index} out of range [0, {xgft.level_size(level)}) "
            f"at level {level}"
        )
    out: list[int] = []
    # Links to/from the children across boundary level-1.
    below = level - 1
    up_port = (index // xgft.W(below)) % xgft.w[below]  # child's port to us
    for child_digit in range(xgft.m[below]):
        child = int(xgft.child(level, index, child_digit))
        out.append(int(xgft.up_link_id(below, child, up_port)))
        out.append(int(xgft.down_link_id(below, index, child_digit)))
    # Links to/from the parents across boundary ``level`` (if any).
    if level < xgft.h:
        child_digit = (index // xgft.W(level)) % xgft.m[level]
        for port in range(xgft.w[level]):
            parent = int(xgft.parent(level, index, port))
            out.append(int(xgft.up_link_id(level, index, port)))
            out.append(int(xgft.down_link_id(level, parent, child_digit)))
    return out


class DegradedFabric:
    """An XGFT plus the set of elements that have failed.

    Parameters
    ----------
    xgft:
        The pristine topology.
    failed_cables:
        Up-link ids of dead cables (both directions die).
    failed_switches:
        ``(level, index)`` pairs of dead switches; all incident links die.

    The derived :attr:`link_ok` mask is the single source of truth for
    every consumer (routing, flow engines, flit engine).

    The fabric is *mutable*: :meth:`fail_cable` / :meth:`repair_cable` /
    :meth:`fail_switch` / :meth:`repair_switch` apply one fail/repair
    event in place and return the directed links whose liveness actually
    flipped.  Links are reference-counted per failing element, so a link
    covered by both a dead switch and a dead cable only comes back when
    its *last* cause is repaired.  Every mutation bumps :attr:`version`
    and invalidates the derived caches (:attr:`is_connected`,
    :meth:`level_liveness`), so no consumer can observe a stale answer.
    """

    def __init__(self, xgft: XGFT, *, failed_cables=(), failed_switches=()):
        self.xgft = xgft
        self._connected: bool | None = None
        self._liveness: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._version = 0
        self._cables: set[int] = set()
        self._switches: set[tuple[int, int]] = set()
        # Per-link count of failing elements covering it; alive <=> 0.
        self._dead_refs = np.zeros(xgft.n_links, dtype=np.int32)
        self._link_ok = np.ones(xgft.n_links, dtype=bool)
        self._link_ok.setflags(write=False)
        for cable in sorted({int(c) for c in failed_cables}):
            self.fail_cable(cable)
        for level, index in sorted({(int(l), int(i))
                                    for l, i in failed_switches}):
            self.fail_switch(level, index)

    # -- the mask and the failed-element sets --------------------------
    @property
    def link_ok(self) -> np.ndarray:
        """Read-only boolean liveness mask over directed link ids."""
        return self._link_ok

    @property
    def failed_cables(self) -> tuple[int, ...]:
        return tuple(sorted(self._cables))

    @property
    def failed_switches(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._switches))

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every applied fail/repair event.
        Consumers caching anything derived from :attr:`link_ok` key
        their cache on it."""
        return self._version

    # -- in-place fail/repair events -----------------------------------
    def _shift(self, links, delta: int) -> np.ndarray:
        """Adjust the failing-element refcount of ``links`` by ``delta``
        and return the link ids whose liveness flipped."""
        links = np.asarray(links, dtype=np.int64)
        before_dead = self._dead_refs[links] > 0
        self._dead_refs[links] += delta
        changed = links[before_dead != (self._dead_refs[links] > 0)]
        if changed.size:
            self._link_ok.setflags(write=True)
            self._link_ok[changed] = delta < 0
            self._link_ok.setflags(write=False)
        self._version += 1
        self._connected = None
        self._liveness.clear()
        return changed

    def fail_cable(self, up_link_id: int) -> np.ndarray:
        """Fail one cable; returns the newly-dead directed link ids."""
        up_link_id = int(up_link_id)
        links = cable_links(self.xgft, up_link_id)
        if up_link_id in self._cables:
            raise FaultError(f"cable {up_link_id} is already failed")
        self._cables.add(up_link_id)
        return self._shift(links, +1)

    def repair_cable(self, up_link_id: int) -> np.ndarray:
        """Repair one failed cable; returns the resurrected link ids."""
        up_link_id = int(up_link_id)
        links = cable_links(self.xgft, up_link_id)
        if up_link_id not in self._cables:
            raise FaultError(f"cable {up_link_id} is not failed")
        self._cables.discard(up_link_id)
        return self._shift(links, -1)

    def fail_switch(self, level: int, index: int) -> np.ndarray:
        """Fail one switch; returns the newly-dead directed link ids."""
        key = (int(level), int(index))
        links = switch_links(self.xgft, *key)
        if key in self._switches:
            raise FaultError(f"switch {key} is already failed")
        self._switches.add(key)
        return self._shift(links, +1)

    def repair_switch(self, level: int, index: int) -> np.ndarray:
        """Repair one failed switch; returns the resurrected link ids."""
        key = (int(level), int(index))
        links = switch_links(self.xgft, *key)
        if key not in self._switches:
            raise FaultError(f"switch {key} is not failed")
        self._switches.discard(key)
        return self._shift(links, -1)

    # ------------------------------------------------------------------
    @property
    def n_failed_links(self) -> int:
        """Directed links removed (cables count twice)."""
        return int((~self.link_ok).sum())

    @property
    def n_failed_cables(self) -> int:
        return len(self.failed_cables)

    @property
    def n_failed_switches(self) -> int:
        return len(self.failed_switches)

    @property
    def is_pristine(self) -> bool:
        return bool(self.link_ok.all())

    @property
    def alive_fraction(self) -> float:
        """Fraction of directed links still alive."""
        n = self.xgft.n_links
        return float(self.link_ok.sum()) / n if n else 1.0

    @property
    def tag(self) -> str:
        """Short stable identifier used in scheme labels and telemetry."""
        if self.is_pristine:
            return "pristine"
        return f"{self.n_failed_cables}c{self.n_failed_switches}s"

    def __repr__(self) -> str:
        return (f"DegradedFabric({self.xgft!r}, cables={self.n_failed_cables}, "
                f"switches={self.n_failed_switches})")

    def describe(self) -> str:
        """Multi-line human-readable summary of the damage."""
        lines = [repr(self)]
        lines.append(f"  alive links      : {int(self.link_ok.sum())}"
                     f"/{self.xgft.n_links}")
        for cable in self.failed_cables:
            ref = self.xgft.link_ref(cable)
            lines.append(
                f"  dead cable {cable}: level {ref.src_level} node "
                f"{ref.src_index} <-> level {ref.dst_level} node {ref.dst_index}"
            )
        for level, index in self.failed_switches:
            lines.append(
                f"  dead switch {self.xgft.node_label(level, index)}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        """True iff every ordered pair keeps at least one alive shortest
        path.  Independent faults can jointly cover a pair's whole path
        set even when no single fault is critical; sweeps use this to
        resample such fabrics.  Cached after the first call and
        invalidated by every mask mutation (fail/repair events), so the
        answer always reflects the current mask."""
        if self._connected is None:
            self._connected = self._check_connected()
        return self._connected

    def _check_connected(self) -> bool:
        """A level-``k`` pair is connected iff some path is alive in both
        its source's and its destination's row of
        :meth:`level_liveness`: one boolean product per level-``k``
        subtree, with no per-pair link tensor."""
        xgft = self.xgft
        if self.is_pristine:
            return True
        for k in range(1, xgft.h + 1):
            size = xgft.M(k)
            shape = (xgft.n_procs // size, size, xgft.W(k))
            up_ok, down_ok = (ok.reshape(shape)
                              for ok in self.level_liveness(k))
            # (subtree, s, d): some path of the pair is alive end to end
            alive = up_ok @ down_ok.transpose(0, 2, 1)
            # the pairs of a subtree whose NCA is at level k: those in
            # different level-(k - 1) subtrees
            below = np.arange(size) // xgft.M(k - 1)
            if not alive[:, below[:, None] != below[None, :]].all():
                return False
        return True

    def level_liveness(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(n_procs, W(k))`` ``(up_ok, down_ok)`` tables: a
        level-``k`` path's up links depend only on its source and its down
        links only on its destination, so ``up_ok[s, t]`` says whether
        path ``t`` leaves node ``s`` alive and ``down_ok[d, t]`` whether
        it reaches node ``d`` alive.  Cached until the next event."""
        tables = self._liveness.get(k)
        if tables is None:
            up, down = pair_part_tables(self.xgft, k)
            path = path_link_table(self.xgft, k)
            tables = tuple(
                self.link_ok[pair[:, None, :] + part].all(axis=2)
                for pair, part in ((up, path[:, :k]), (down, path[:, k:])))
            for ok in tables:
                ok.setflags(write=False)
            self._liveness[k] = tables
        return tables

    def path_alive_matrix(
        self, s: np.ndarray, d: np.ndarray, idx: np.ndarray, k: int
    ) -> np.ndarray:
        """Which of the paths in the ``(n, P)`` index matrix ``idx``
        survive: True iff every link of the path is alive (a level-0
        path has none).  An index outside ``[0, W(k))`` raises
        :class:`~repro.errors.RoutingError`."""
        idx = check_path_indices(idx, self.xgft.W(k))
        up_ok, down_ok = self.level_liveness(k)
        s, d = np.asarray(s)[:, None], np.asarray(d)[:, None]
        return up_ok[s, idx] & down_ok[d, idx]

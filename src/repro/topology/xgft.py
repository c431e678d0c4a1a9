"""Extended generalized fat-trees (XGFT).

An ``XGFT(h; m_1..m_h; w_1..w_h)`` [Ohring et al., IPPS'95] has ``h + 1``
levels of nodes.  Level 0 holds the processing nodes; levels 1..h hold
switches.  Each level-``i`` node (``i < h``) has ``w_{i+1}`` parents and
each level-``i`` node (``i >= 1``) has ``m_i`` children.

Labels
------
A level-``l`` node is identified by the digit tuple ``(a_1, ..., a_h)``
(stored little-endian here; the paper writes it big-endian as
``(l, a_h, ..., a_1)``), where digit ``a_i < w_i`` for ``i <= l`` and
``a_i < m_i`` for ``i > l``.  A level-``l`` node connects to a level-
``(l+1)`` node iff their tuples agree at every digit except digit
``l + 1``.

Within a level, nodes are indexed by the little-endian mixed-radix value
of their digit tuple, so processing node ids coincide with the usual
0..N-1 numbering (digit ``a_i(x) = (x // M(i-1)) mod m_i``).

Ports
-----
Ports are numbered 0-based: a level-``l`` node's up ports are
``0..w_{l+1}-1`` (ordered by the parent's digit ``a_{l+1}``) and its down
ports follow (ordered by the child's digit ``a_{l+1}``).  The paper uses
the same left-to-right order with 1-based numbering.

Directed links
--------------
Every cable is modeled as two directed links (loads and channel buffers
are directional).  Link ids are dense integers laid out per level:
up-links (level ``l`` to ``l+1``) first, then down-links, so flow-level
accumulation can be done with plain integer arithmetic on NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from repro.errors import TopologyError
from repro.util.radix import MixedRadix, prefix_products


class LinkKind(Enum):
    """Direction of a link relative to the tree: UP toward the roots."""

    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class LinkRef:
    """Human-readable description of one directed link.

    Attributes
    ----------
    kind:
        :attr:`LinkKind.UP` for a level ``l`` -> ``l+1`` link, DOWN for
        the reverse direction.
    level:
        The *lower* endpoint's level ``l`` (so the link crosses the
        ``l``/``l+1`` boundary regardless of direction).
    src_level, src_index, dst_level, dst_index:
        Endpoint coordinates (level, within-level node index).
    port:
        The port number on the *sending* node.
    """

    kind: LinkKind
    level: int
    src_level: int
    src_index: int
    dst_level: int
    dst_index: int
    port: int


class XGFT:
    """An extended generalized fat-tree ``XGFT(h; m_1..m_h; w_1..w_h)``.

    Parameters
    ----------
    h:
        Number of switch levels (>= 1 for a usable network; ``h == 0`` is
        the degenerate single processing node and is accepted for
        completeness).
    m:
        ``(m_1, ..., m_h)`` — children counts per level.
    w:
        ``(w_1, ..., w_h)`` — parent counts per level.

    Notes
    -----
    ``self.m[i]`` / ``self.w[i]`` store the paper's ``m_{i+1}`` /
    ``w_{i+1}``.  Use :meth:`M` and :meth:`W` for the 1-based cumulative
    products ``M(k) = m_1*...*m_k`` and ``W(k) = w_1*...*w_k``.
    """

    def __init__(self, h: int, m: Sequence[int], w: Sequence[int]):
        h = int(h)
        m = tuple(int(x) for x in m)
        w = tuple(int(x) for x in w)
        if h < 0:
            raise TopologyError(f"h must be >= 0, got {h}")
        if len(m) != h or len(w) != h:
            raise TopologyError(
                f"need exactly h={h} entries in m and w, got m={m!r} w={w!r}"
            )
        if any(x < 1 for x in m) or any(x < 1 for x in w):
            raise TopologyError(f"all m_i and w_i must be >= 1, got m={m!r} w={w!r}")
        self.h = h
        self.m = m
        self.w = w
        # Cumulative products, 1-based: _M[k] = m_1*...*m_k, _M[0] = 1.
        self._M = prefix_products(m)
        self._W = prefix_products(w)
        self.n_procs = self._M[h]
        self.n_top_switches = self._W[h]
        self._level_radices = tuple(
            MixedRadix(w[:l] + m[l:]) for l in range(h + 1)
        )
        self._level_sizes = tuple(
            (self.n_procs // self._M[l]) * self._W[l] for l in range(h + 1)
        )
        # Directed-link id layout: for each boundary l (0..h-1) the block of
        # up-links, then the block of down-links.
        counts = [self._level_sizes[l] * w[l] for l in range(h)]
        self._up_base = []
        self._down_base = []
        base = 0
        for l in range(h):
            self._up_base.append(base)
            base += counts[l]
            self._down_base.append(base)
            base += counts[l]
        self.n_links = base
        self._boundary_counts = tuple(counts)

    # ------------------------------------------------------------------
    # Identity / convenience
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        ms = ",".join(map(str, self.m))
        ws = ",".join(map(str, self.w))
        return f"XGFT({self.h}; {ms}; {ws})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XGFT)
            and self.h == other.h
            and self.m == other.m
            and self.w == other.w
        )

    def __hash__(self) -> int:
        return hash((self.h, self.m, self.w))

    def M(self, k: int) -> int:
        """``m_1 * ... * m_k`` (``M(0) == 1``)."""
        return self._M[k]

    def W(self, k: int) -> int:
        """``w_1 * ... * w_k`` (``W(0) == 1``) — number of shortest paths
        between nodes whose nearest common ancestors sit at level ``k``."""
        return self._W[k]

    @property
    def max_paths(self) -> int:
        """Largest shortest-path count between any SD pair (= ``W(h)``)."""
        return self._W[self.h]

    def level_size(self, l: int) -> int:
        """Number of nodes at level ``l``."""
        self._check_level(l)
        return self._level_sizes[l]

    @property
    def n_switches(self) -> int:
        """Total switch count (levels 1..h)."""
        return sum(self._level_sizes[1:]) if self.h else 0

    def _check_level(self, l: int, *, max_level: int | None = None) -> None:
        top = self.h if max_level is None else max_level
        if not 0 <= l <= top:
            raise TopologyError(f"level {l} out of range [0, {top}]")

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def node_radices(self, l: int) -> tuple[int, ...]:
        """Digit radices of a level-``l`` label (little-endian: digit i
        has radix ``w_{i+1}`` if ``i < l`` else ``m_{i+1}``)."""
        self._check_level(l)
        return self._level_radices[l].radices

    def node_digits(self, l: int, index: int) -> tuple[int, ...]:
        """Little-endian digit tuple of node ``index`` at level ``l``."""
        self._check_level(l)
        return self._level_radices[l].decode(index)

    def node_index(self, l: int, digits: Sequence[int]) -> int:
        """Within-level index of the node labeled ``digits`` at level ``l``."""
        self._check_level(l)
        return self._level_radices[l].encode(digits)

    def node_label(self, l: int, index: int) -> str:
        """Paper-style big-endian label string ``(l, a_h, ..., a_1)``."""
        digits = self.node_digits(l, index)
        return "(" + ", ".join(map(str, (l,) + tuple(reversed(digits)))) + ")"

    def proc_digit(self, proc: int | np.ndarray, i: int):
        """Digit ``a_i`` (1-based ``i``) of processing-node id(s)."""
        if not 1 <= i <= self.h:
            raise TopologyError(f"digit index {i} out of range [1, {self.h}]")
        return (proc // self._M[i - 1]) % self.m[i - 1]

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def n_up_ports(self, l: int) -> int:
        """Up ports of a level-``l`` node (0 at the top level)."""
        self._check_level(l)
        return self.w[l] if l < self.h else 0

    def n_down_ports(self, l: int) -> int:
        """Down ports of a level-``l`` node (0 for processing nodes)."""
        self._check_level(l)
        return self.m[l - 1] if l >= 1 else 0

    def n_ports(self, l: int) -> int:
        """Total ports — matches the paper's ``p_i = w_{i+1} + m_i``."""
        return self.n_up_ports(l) + self.n_down_ports(l)

    def parent(self, l: int, index, port):
        """Index (at level ``l+1``) of the parent reached from level-``l``
        node ``index`` via up port ``port``.  Vectorized over arrays.

        The parent's label equals the child's except digit ``l+1`` is
        replaced by ``port`` (with radix ``w_{l+1}``).
        """
        self._check_level(l, max_level=self.h - 1)
        Wl = self._W[l]
        m_next = self.m[l]
        w_next = self.w[l]
        low = index % Wl
        rest = index // Wl
        above = rest // m_next
        return low + Wl * (port + w_next * above)

    def child(self, l: int, index, port):
        """Index (at level ``l-1``) of the child reached from level-``l``
        node ``index`` via down port ``port``.  Vectorized over arrays.

        The child's label equals the parent's except digit ``l`` is
        replaced by ``port`` (with radix ``m_l``).
        """
        self._check_level(l)
        if l < 1:
            raise TopologyError("processing nodes have no children")
        Wl = self._W[l - 1]
        m_here = self.m[l - 1]
        w_here = self.w[l - 1]
        low = index % Wl
        above = index // (Wl * w_here)
        return low + Wl * (port + m_here * above)

    def parents(self, l: int, index: int) -> list[int]:
        """All parents of a node, ordered by up port."""
        return [int(self.parent(l, index, p)) for p in range(self.n_up_ports(l))]

    def children(self, l: int, index: int) -> list[int]:
        """All children of a node, ordered by down port."""
        return [int(self.child(l, index, c)) for c in range(self.n_down_ports(l))]

    def are_connected(self, la: int, ia: int, lb: int, ib: int) -> bool:
        """True iff the two nodes share a cable (levels must differ by 1)."""
        if la > lb:
            la, ia, lb, ib = lb, ib, la, ia
        if lb != la + 1:
            return False
        return ib in self.parents(la, ia)

    # ------------------------------------------------------------------
    # Directed links
    # ------------------------------------------------------------------
    def n_boundary_links(self, l: int) -> int:
        """Directed links crossing the ``l``/``l+1`` boundary, per direction."""
        self._check_level(l, max_level=self.h - 1)
        return self._boundary_counts[l]

    def boundary_link_slices(self, l: int) -> tuple[slice, slice]:
        """``(up, down)`` slices of the dense link-id space covering the
        ``l``/``l+1`` boundary — links are laid out per level, so the
        per-level selections used when slicing load vectors are plain
        slices, not boolean masks."""
        self._check_level(l, max_level=self.h - 1)
        count = self._boundary_counts[l]
        return (
            slice(self._up_base[l], self._up_base[l] + count),
            slice(self._down_base[l], self._down_base[l] + count),
        )

    def up_link_id(self, l: int, index, port):
        """Dense id of the up-link out of level-``l`` node ``index`` via
        ``port``.  Vectorized over arrays."""
        self._check_level(l, max_level=self.h - 1)
        return self._up_base[l] + index * self.w[l] + port

    def down_link_id(self, l: int, parent_index, child_digit):
        """Dense id of the down-link from level-``l+1`` node
        ``parent_index`` to the child whose digit ``a_{l+1}`` is
        ``child_digit``.  Vectorized over arrays."""
        self._check_level(l, max_level=self.h - 1)
        return self._down_base[l] + parent_index * self.m[l] + child_digit

    def link_ref(self, link_id: int) -> LinkRef:
        """Decode a dense link id back into endpoint coordinates."""
        if not 0 <= link_id < self.n_links:
            raise TopologyError(f"link id {link_id} out of range [0, {self.n_links})")
        for l in range(self.h):
            count = self._boundary_counts[l]
            if link_id < self._up_base[l] + count:
                off = link_id - self._up_base[l]
                index, port = divmod(off, self.w[l])
                return LinkRef(
                    kind=LinkKind.UP,
                    level=l,
                    src_level=l,
                    src_index=index,
                    dst_level=l + 1,
                    dst_index=int(self.parent(l, index, port)),
                    port=port,
                )
            if link_id < self._down_base[l] + count:
                off = link_id - self._down_base[l]
                parent_index, child_digit = divmod(off, self.m[l])
                # The sender's down port follows its up ports.
                port = self.n_up_ports(l + 1) + child_digit
                return LinkRef(
                    kind=LinkKind.DOWN,
                    level=l,
                    src_level=l + 1,
                    src_index=parent_index,
                    dst_level=l,
                    dst_index=int(self.child(l + 1, parent_index, child_digit)),
                    port=port,
                )
        raise TopologyError(f"link id {link_id} not found")  # pragma: no cover

    def iter_links(self) -> Iterator[tuple[int, LinkRef]]:
        """Iterate ``(link_id, LinkRef)`` for every directed link."""
        for link_id in range(self.n_links):
            yield link_id, self.link_ref(link_id)

    def link_levels(self) -> np.ndarray:
        """Boundary level of every directed link id (vector of length
        ``n_links``); used to slice load vectors per level."""
        out = np.empty(self.n_links, dtype=np.int64)
        for l in range(self.h):
            count = self._boundary_counts[l]
            out[self._up_base[l] : self._up_base[l] + count] = l
            out[self._down_base[l] : self._down_base[l] + count] = l
        return out

    def link_is_up(self) -> np.ndarray:
        """Boolean vector: True for up-links, False for down-links."""
        out = np.zeros(self.n_links, dtype=bool)
        for l in range(self.h):
            count = self._boundary_counts[l]
            out[self._up_base[l] : self._up_base[l] + count] = True
        return out

    # ------------------------------------------------------------------
    # NCA / path counting (Property 1)
    # ------------------------------------------------------------------
    def nca_level(self, s, d):
        """Level of the nearest common ancestors of processing nodes
        ``s`` and ``d``; 0 iff ``s == d``.  Vectorized over arrays.

        Two nodes in different height-``j`` subtrees are also in different
        height-``i`` subtrees for every ``i < j``, so the level is the
        number of heights ``j < h`` at which their subtrees differ."""
        s_arr = np.asarray(s)
        d_arr = np.asarray(d)
        # height 0: the subtrees are the nodes themselves
        level = np.asarray(s_arr != d_arr, dtype=np.int64)
        for j in range(1, self.h):
            level += (s_arr // self._M[j]) != (d_arr // self._M[j])
        if np.isscalar(s) and np.isscalar(d):
            return int(level)
        return level

    def num_shortest_paths(self, s, d):
        """Property 1: ``W(nca_level(s, d))`` shortest paths between a
        pair (1 when ``s == d``: the trivial empty path)."""
        k = self.nca_level(s, d)
        if np.isscalar(k) or getattr(k, "ndim", 1) == 0:
            return self._W[int(k)]
        return np.asarray(self._W)[k]

    def subtree_index(self, k: int, proc):
        """Which height-``k`` subtree a processing node belongs to
        (vectorized).  Subtrees of height ``k`` partition the processing
        nodes into blocks of ``M(k)`` consecutive ids."""
        self._check_level(k)
        return proc // self._M[k]

    def n_subtrees(self, k: int) -> int:
        """Number of height-``k`` sub-XGFTs."""
        self._check_level(k)
        return self.n_procs // self._M[k]

    def subtree_boundary_links(self, k: int) -> int:
        """``TL(k)``: one-directional links connecting a height-``k``
        subtree to the rest of the tree (= ``W(k+1)``)."""
        self._check_level(k, max_level=self.h - 1)
        return self._W[k + 1]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable summary of the topology."""
        lines = [repr(self)]
        lines.append(f"  processing nodes : {self.n_procs}")
        lines.append(f"  switches         : {self.n_switches}")
        for l in range(1, self.h + 1):
            lines.append(f"    level {l}: {self.level_size(l)} "
                         f"({self.n_ports(l)}-port)")
        lines.append(f"  directed links   : {self.n_links}")
        lines.append(f"  max paths per SD : {self.max_paths}")
        return "\n".join(lines)

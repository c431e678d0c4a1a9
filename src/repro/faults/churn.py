"""Streaming fault/repair churn and incremental re-routing.

The fault sweep (:mod:`repro.experiments.fault_sweep`) studies *static*
damage: sample a fabric, recompile the whole
:class:`~repro.faults.scheme.DegradedScheme`, measure.  A plan server
staying warm while links fail and recover cannot afford that — it needs
to apply one event and touch only the pairs the event can affect.  This
module provides that axis:

* :class:`ChurnEvent` — one fail/repair of a cable or switch, applied in
  place to a :class:`~repro.faults.degraded.DegradedFabric`;
* :class:`ChurnSpec` / :class:`ChurnTrace` / :func:`generate_trace` — a
  seeded, reproducible fail/repair event stream (drawn from the named
  ``churn-trace`` RNG substream, so it never perturbs fault-spec or
  traffic sampling), by default conditioned to keep the fabric
  connected after every event;
* :class:`IncrementalDegradedScheme` — a routing scheme that holds its
  full selection state (per NCA level: preference orders, selected path
  indices, renormalized weights) and, per event, recomputes only the
  pairs whose *candidate* paths touch a flipped link, found in closed
  form (:func:`candidate_pairs`).

Correctness contract
--------------------
After any event sequence, the incremental state is **bit-identical** to
a from-scratch ``DegradedScheme`` recompile over the same cumulative
fault set: both run the same row-local selection rule
(:func:`~repro.faults.scheme.select_surviving`), and the candidate pairs
over-approximate the affected set in both directions — a failure can
only change rows whose candidate paths use a dead link, a repair only
rows whose candidate paths use the resurrected one.  The differential
test layer (``tests/faults/test_churn_equivalence.py``) pins this after
every event of replayed traces.

An event that would strand a pair raises
:class:`~repro.errors.DisconnectedPairError` and is rolled back — the
fabric and the selection state are left exactly as before the event.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import DisconnectedPairError, FaultError
from repro.faults.degraded import DegradedFabric
from repro.faults.scheme import DegradedScheme, select_surviving
from repro.faults.spec import samplable_cables, samplable_switches
from repro.obs.recorder import get_recorder
from repro.routing.base import RouteSet, RoutingScheme
from repro.topology.xgft import LinkKind, XGFT
from repro.util.rng import substream

#: attempts per failure draw before the generator falls back to a repair
#: (a draw is rejected when it would disconnect a connected-only trace)
_MAX_FAIL_TRIES = 8


@dataclass(frozen=True)
class ChurnEvent:
    """One fail or repair of one fabric element.

    ``element`` is a cable's up-link id (``kind == "cable"``) or a
    ``(level, index)`` pair (``kind == "switch"``).
    """

    action: str  # "fail" | "repair"
    kind: str    # "cable" | "switch"
    element: int | tuple[int, int]

    def __post_init__(self):
        if self.action not in ("fail", "repair"):
            raise FaultError(f"bad churn action {self.action!r}")
        if self.kind not in ("cable", "switch"):
            raise FaultError(f"bad churn element kind {self.kind!r}")
        if self.kind == "switch":
            level, index = self.element
            object.__setattr__(self, "element", (int(level), int(index)))
        else:
            object.__setattr__(self, "element", int(self.element))

    @property
    def label(self) -> str:
        """Compact event tag, e.g. ``-cable:12`` / ``+switch:2/3``."""
        sign = "-" if self.action == "fail" else "+"
        if self.kind == "switch":
            level, index = self.element
            return f"{sign}switch:{level}/{index}"
        return f"{sign}cable:{self.element}"

    def inverse(self) -> "ChurnEvent":
        """The event that exactly undoes this one."""
        action = "repair" if self.action == "fail" else "fail"
        return ChurnEvent(action, self.kind, self.element)

    def apply(self, fabric: DegradedFabric) -> np.ndarray:
        """Apply in place; returns the link ids whose liveness flipped."""
        if self.kind == "switch":
            method = getattr(fabric, f"{self.action}_switch")
            return method(*self.element)
        method = getattr(fabric, f"{self.action}_cable")
        return method(self.element)


@dataclass(frozen=True)
class ChurnSpec:
    """A reproducible description of a fail/repair event stream.

    Attributes
    ----------
    n_events:
        Number of events to generate.
    fail_bias:
        Probability of attempting a failure (vs a repair) when both are
        possible; the first event is always a failure and a repair is
        forced when nothing eligible is left alive.
    switch_fraction:
        Probability that a failure targets a switch rather than a cable
        (only when eligible switches exist).
    seed:
        Root seed of the ``churn-trace`` RNG substream.
    ensure_connected:
        Reject failure draws that would disconnect the fabric (the
        default, matching the fault sweep's connected-fabric
        conditioning); rejected draws fall back to a repair.
    """

    n_events: int = 16
    fail_bias: float = 0.6
    switch_fraction: float = 0.0
    seed: int = 0
    ensure_connected: bool = True

    def __post_init__(self):
        if self.n_events < 0:
            raise FaultError(f"n_events must be >= 0, got {self.n_events}")
        for name, p in (("fail_bias", self.fail_bias),
                        ("switch_fraction", self.switch_fraction)):
            if not 0.0 <= p <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class ChurnTrace:
    """A concrete, replayable event stream over one topology."""

    topology: str
    spec: ChurnSpec
    events: tuple[ChurnEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        return (f"ChurnTrace({self.topology}, seed={self.spec.seed}): "
                + " ".join(e.label for e in self.events))


def generate_trace(xgft: XGFT, spec: ChurnSpec) -> ChurnTrace:
    """Generate the seeded event stream ``spec`` describes on ``xgft``.

    Pure function of ``(xgft, spec)``: the same inputs always yield the
    same trace.  Only non-critical elements (see
    :func:`repro.faults.spec.samplable_cables`) are ever failed; every
    event is valid in sequence (never fails a failed element or repairs
    a live one), and with ``ensure_connected`` the fabric stays
    connected after every event.
    """
    cables = [int(c) for c in samplable_cables(xgft)]
    switches = samplable_switches(xgft)
    if not cables and not switches:
        raise FaultError(
            f"{xgft!r} has no non-critical elements to churn; every "
            f"failure would disconnect a host"
        )
    rng = substream(spec.seed, "churn-trace")
    fabric = DegradedFabric(xgft)
    events: list[ChurnEvent] = []

    def draw_failure() -> ChurnEvent | None:
        for _ in range(_MAX_FAIL_TRIES):
            failed_c = set(fabric.failed_cables)
            failed_s = set(fabric.failed_switches)
            alive_cables = [c for c in cables if c not in failed_c]
            alive_switches = [sw for sw in switches if sw not in failed_s]
            if not alive_cables and not alive_switches:
                return None
            pick_switch = alive_switches and (
                not alive_cables or rng.random() < spec.switch_fraction)
            if pick_switch:
                sw = alive_switches[int(rng.integers(len(alive_switches)))]
                event = ChurnEvent("fail", "switch", sw)
            else:
                cable = alive_cables[int(rng.integers(len(alive_cables)))]
                event = ChurnEvent("fail", "cable", cable)
            event.apply(fabric)
            if spec.ensure_connected and not fabric.is_connected:
                event.inverse().apply(fabric)
                continue
            return event
        return None

    def draw_repair() -> ChurnEvent | None:
        failed = ([("cable", c) for c in fabric.failed_cables]
                  + [("switch", sw) for sw in fabric.failed_switches])
        if not failed:
            return None
        kind, element = failed[int(rng.integers(len(failed)))]
        event = ChurnEvent("repair", kind, element)
        event.apply(fabric)
        return event

    for _ in range(spec.n_events):
        anything_failed = bool(fabric.failed_cables or fabric.failed_switches)
        want_fail = (not anything_failed
                     or rng.random() < spec.fail_bias)
        event = (draw_failure() or draw_repair()) if want_fail else \
                (draw_repair() or draw_failure())
        if event is None:
            break  # nothing left to do in either direction
        events.append(event)
    return ChurnTrace(repr(xgft), spec, tuple(events))


def candidate_pairs(xgft: XGFT, links) -> np.ndarray:
    """Sorted unique keys ``s * n_procs + d`` of the ordered pairs with a
    candidate (shortest) path through any of the directed ``links``:
    the pairs whose selection can change when those links fail or come
    back, under any scheme.  Closed form: an up link out of a level-``l``
    node lies on a candidate path of exactly the pairs with the source
    in its subtree of ``M(l)`` nodes and the destination outside it; a
    down link into one, the reverse.
    """
    n = xgft.n_procs
    mask = np.zeros((n, n), dtype=bool)
    for link in np.asarray(links, dtype=np.int64).reshape(-1).tolist():
        ref = xgft.link_ref(link)
        up = ref.kind is LinkKind.UP
        node = ref.src_index if up else ref.dst_index  # the level-l end
        lo = node // xgft.W(ref.level) * xgft.M(ref.level)
        hi = lo + xgft.M(ref.level)
        inside = mask if up else mask.T  # rows: the nodes inside
        inside[lo:hi, :lo] = inside[lo:hi, hi:] = True
    return np.flatnonzero(mask)


@dataclass(frozen=True)
class RerouteStats:
    """What one applied event cost.

    ``pairs_recomputed`` counts the ordered pairs whose selection was
    re-derived; ``pairs_total`` is the full recompile's workload, so
    ``pairs_total / pairs_recomputed`` is the incremental saving the
    acceptance gate asserts (>=10x for a single cable on the 8-port
    3-tree).
    """

    event: ChurnEvent
    links_changed: int
    pairs_recomputed: int
    pairs_total: int
    seconds: float


@dataclass
class _LevelState:
    """One NCA level's persistent selection state (sorted by pair key)."""

    k: int
    keys: np.ndarray     # (n_pairs,) int64, sorted
    src: np.ndarray      # (n_pairs,) int64
    dst: np.ndarray      # (n_pairs,) int64
    order: np.ndarray    # (n_pairs, X) int64 — base preference order
    idx: np.ndarray      # (n_pairs, P) int64 — current selection
    weights: np.ndarray  # (n_pairs, P) float64 — current fractions


class IncrementalDegradedScheme(RoutingScheme):
    """A routing scheme that re-routes around churn one event at a time.

    Serves the same query surface as
    :class:`~repro.faults.scheme.DegradedScheme` from persistent per-level
    tables; :meth:`apply_event` updates those tables in place, touching
    only the pairs whose candidate paths cross a flipped link.  On a
    pristine fabric it is a transparent proxy, exactly like the
    from-scratch wrapper.
    """

    def __init__(self, base: RoutingScheme,
                 fabric: DegradedFabric | None = None):
        if not hasattr(base, "path_order_matrix"):
            raise FaultError(
                f"{type(base).__name__} exposes no path preference order; "
                f"wrap the underlying scheme, not a compiled plan"
            )
        if isinstance(base, (DegradedScheme, IncrementalDegradedScheme)):
            raise FaultError("refusing to stack degraded wrappers; wrap the "
                             "pristine base scheme")
        if fabric is None:
            fabric = DegradedFabric(base.xgft)
        elif base.xgft != fabric.xgft:
            raise FaultError(
                "scheme and degraded fabric were built for different topologies"
            )
        super().__init__(base.xgft)
        self.base = base
        self.fabric = fabric
        self.name = base.name
        self._levels: dict[int, _LevelState] = {}
        xgft = base.xgft
        n = xgft.n_procs
        keys_all = np.arange(n * n, dtype=np.int64)
        s_all, d_all = np.divmod(keys_all, n)
        k_arr = xgft.nca_level(s_all, d_all)
        for k in range(1, xgft.h + 1):
            mask = k_arr == k
            if not mask.any():
                continue
            s, d, keys = s_all[mask], d_all[mask], keys_all[mask]
            order = np.asarray(base.path_order_matrix(s, d, k),
                               dtype=np.int64)
            alive = fabric.path_alive_matrix(s, d, order, k)
            idx, weights = select_surviving(
                s, d, order, alive, base.paths_per_pair(k))
            self._levels[k] = _LevelState(k, keys, s, d, order, idx, weights)

    def __repr__(self) -> str:
        return f"IncrementalDegradedScheme({self.base!r}, {self.fabric!r})"

    @property
    def label(self) -> str:
        return f"{self.base.label}@{self.fabric.tag}"

    @property
    def n_pairs(self) -> int:
        """Ordered pairs with a network route (the full recompile's
        workload, the denominator of the incremental saving)."""
        return sum(len(st.keys) for st in self._levels.values())

    # -- event application ---------------------------------------------
    def apply_event(self, event: ChurnEvent) -> RerouteStats:
        """Apply one fail/repair event and re-route the affected pairs.

        Atomic: if the event would strand a pair, the fabric mutation is
        rolled back, the selection state is untouched, and the pair's
        :class:`~repro.errors.DisconnectedPairError` propagates.
        """
        rec = get_recorder()
        t0 = perf_counter()
        with rec.timer("faults.reroute.apply"):
            changed = event.apply(self.fabric)
            try:
                recomputed = self._recompute(
                    candidate_pairs(self.xgft, changed))
            except DisconnectedPairError:
                event.inverse().apply(self.fabric)
                raise
        seconds = perf_counter() - t0
        stats = RerouteStats(event, int(changed.size), recomputed,
                             self.n_pairs, seconds)
        if rec.enabled:
            rec.count("faults.reroute.events")
            rec.count("faults.reroute.links_changed", stats.links_changed)
            rec.count("faults.reroute.pairs_recomputed", recomputed)
            rec.observe("faults.reroute.pairs_per_event", recomputed)
        return stats

    def replay(self, events) -> list[RerouteStats]:
        """Apply a whole trace (or any event iterable) in order."""
        return [self.apply_event(event) for event in events]

    def _recompute(self, touched_keys: np.ndarray) -> int:
        """Re-select the rows named by ``touched_keys``; returns how
        many.  All-or-nothing: results are staged per level and only
        committed once every level selected cleanly."""
        staged = []
        count = 0
        for k, st in self._levels.items():
            pos = np.searchsorted(st.keys, touched_keys)
            pos_c = np.minimum(pos, len(st.keys) - 1)
            rows = pos_c[st.keys[pos_c] == touched_keys]
            if not rows.size:
                continue
            s, d, order = st.src[rows], st.dst[rows], st.order[rows]
            alive = self.fabric.path_alive_matrix(s, d, order, k)
            idx, weights = select_surviving(
                s, d, order, alive, st.idx.shape[1])
            staged.append((st, rows, idx, weights))
            count += int(rows.size)
        for st, rows, idx, weights in staged:
            st.idx[rows] = idx
            st.weights[rows] = weights
        return count

    # -- RoutingScheme surface -----------------------------------------
    def paths_per_pair(self, k: int) -> int:
        return self.base.paths_per_pair(k)

    def fractions(self, k: int) -> np.ndarray:
        """The nominal (pristine) fractions; per-pair truth comes from
        :meth:`path_weight_matrix`."""
        return self.base.fractions(k)

    def path_order_matrix(self, s, d, k: int) -> np.ndarray:
        return self.base.path_order_matrix(s, d, k)

    def _rows(self, k: int, s, d) -> np.ndarray:
        try:
            st = self._levels[k]
        except KeyError:
            raise FaultError(
                f"no pairs with NCA level {k} on {self.xgft!r}") from None
        keys = (np.asarray(s, dtype=np.int64) * self.xgft.n_procs
                + np.asarray(d, dtype=np.int64))
        rows = np.searchsorted(st.keys, keys)
        rows_c = np.minimum(rows, len(st.keys) - 1)
        if not np.all(st.keys[rows_c] == keys):
            raise FaultError(
                f"batch contains pairs whose NCA level is not {k}")
        return rows_c

    def path_index_matrix(self, s, d, k: int) -> np.ndarray:
        if self.fabric.is_pristine:
            return self.base.path_index_matrix(s, d, k)
        return self._levels[k].idx[self._rows(k, s, d)]

    def path_weight_matrix(self, s, d, k: int):
        if self.fabric.is_pristine:
            return None
        return self._levels[k].weights[self._rows(k, s, d)]

    def route(self, s: int, d: int) -> RouteSet:
        """One pair's surviving routes (padding filtered out)."""
        if self.fabric.is_pristine:
            return self.base.route(s, d)
        k = self.xgft.nca_level(s, d)
        if k == 0:
            return RouteSet(s, d, 0, (), ())
        row = int(self._rows(int(k), np.array([s]), np.array([d]))[0])
        st = self._levels[int(k)]
        idx, weights = st.idx[row], st.weights[row]
        live = weights > 0.0
        return RouteSet(
            s, d, int(k),
            tuple(int(t) for t in idx[live]),
            tuple(float(f) for f in weights[live]),
        )

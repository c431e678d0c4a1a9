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
* :class:`IncrementalDegradedScheme` — a
  :class:`~repro.faults.scheme.DegradedScheme` whose per-level selection
  tables are filled up front and, per event, re-selects only the pairs
  whose *candidate* paths touch a flipped link, found in closed form
  (:func:`candidate_pairs`).

Correctness contract
--------------------
After any event sequence, the incremental state is **bit-identical** to
a from-scratch ``DegradedScheme`` over the same cumulative fault set:
both fill their tables with the same row-local selection rule
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
from repro.faults.scheme import DegradedScheme
from repro.faults.spec import samplable_cables, samplable_switches
from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.vectorized import level_pairs
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


class IncrementalDegradedScheme(DegradedScheme):
    """A :class:`~repro.faults.scheme.DegradedScheme` whose tables follow
    churn one event at a time: every row is filled up front (so a
    disconnected fabric raises here), and :meth:`apply_event` re-selects
    only the pairs whose candidate paths cross a flipped link.
    ``fabric`` is an alias of ``degraded``, created pristine if not given.
    """

    def __init__(self, base: RoutingScheme,
                 fabric: DegradedFabric | None = None):
        super().__init__(base, DegradedFabric(base.xgft)
                         if fabric is None else fabric)
        self._fill()

    @property
    def fabric(self) -> DegradedFabric:
        return self.degraded

    def _fill(self) -> None:
        """Select every row of every level on the fabric as it is now."""
        self._tables = {k: [*self._select(k, slice(None)), None]
                        for k in level_pairs(self.xgft).pairs}
        self._version = self.fabric.version

    def _drop_stale(self) -> None:
        """Refill every row if another holder moved the fabric, so the
        tables stay complete and every event checks all its rows."""
        if self._version != self.fabric.version:
            self._fill()

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
            self._drop_stale()
            changed = event.apply(self.fabric)
            try:
                recomputed = self._recompute(
                    candidate_pairs(self.xgft, changed))
            except DisconnectedPairError:
                event.inverse().apply(self.fabric)
                # the tables still hold the pre-event selection
                self._version = self.fabric.version
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
        """Re-select the rows named by ``touched_keys``, then key the
        tables to the fabric's version; returns how many rows.
        All-or-nothing: results are staged per level and only committed
        once every level selected cleanly."""
        pairs = level_pairs(self.xgft)
        levels, rows_of = pairs.level[touched_keys], pairs.row[touched_keys]
        staged = []
        for k, (idx, weights, _) in self._tables.items():
            rows = rows_of[levels == k]
            if rows.size:
                staged.append((idx, weights, rows, *self._select(k, rows)))
        for idx, weights, rows, new_idx, new_weights in staged:
            idx[rows] = new_idx
            weights[rows] = new_weights
        self._version = self.fabric.version
        return sum(len(rows) for _, _, rows, _, _ in staged)

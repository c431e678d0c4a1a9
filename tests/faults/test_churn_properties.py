"""Property-based invariants of churn replay on random shapes/streams.

Random XGFTs, random seeded event streams, random schemes — four
invariant families:

* **inversion**: fail-then-repair of the same element restores the
  pristine selection state exactly (bit-identical arrays);
* **commutativity**: two events touching disjoint link sets produce an
  identical state in either order;
* **determinism**: replaying the same seeded trace twice from scratch
  produces identical stats and identical state;
* **disconnection parity**: an event the incremental scheme rejects with
  :class:`~repro.errors.DisconnectedPairError` is exactly an event the
  from-scratch oracle rejects too, and the rollback leaves the
  incremental state equal to the oracle over the pre-event fault set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedPairError
from repro.faults import (
    ChurnEvent,
    DegradedFabric,
    DegradedScheme,
    IncrementalDegradedScheme,
)
from repro.faults.degraded import cable_links
from repro.faults.spec import samplable_cables

from strategies import churn_cases, schemes, xgfts

#: per-test example budget; the CI profile in conftest.py may cap lower
EXAMPLES = 25


def _state_snapshot(inc: IncrementalDegradedScheme):
    """Frozen copies of every level's selection tables, which the
    incremental scheme keeps filled in every row."""
    assert all(filled is None for _, _, filled in inc._tables.values())
    return {
        k: (idx.copy(), weights.copy())
        for k, (idx, weights, _) in inc._tables.items()
    }


def _assert_state_equal(a, b, context: str):
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(
            a[k][0], b[k][0], err_msg=f"idx diverged at level {k} {context}")
        np.testing.assert_array_equal(
            a[k][1], b[k][1],
            err_msg=f"weights diverged at level {k} {context}")


@st.composite
def _scheme_with_cable(draw):
    """(scheme, samplable cable) on a churnable random topology."""
    xgft = draw(xgfts(max_procs=48))
    cables = samplable_cables(xgft)
    assume(len(cables))
    cable = int(cables[draw(st.integers(0, len(cables) - 1))])
    return draw(schemes(xgft)), cable


@given(case=_scheme_with_cable())
@settings(max_examples=EXAMPLES)
def test_fail_then_repair_restores_pristine_state(case):
    scheme, cable = case
    inc = IncrementalDegradedScheme(scheme)
    before = _state_snapshot(inc)
    try:
        inc.apply_event(ChurnEvent("fail", "cable", cable))
    except DisconnectedPairError:
        assume(False)  # the drawn cable was jointly critical
    inc.apply_event(ChurnEvent("repair", "cable", cable))
    assert inc.fabric.is_pristine
    _assert_state_equal(before, _state_snapshot(inc),
                        f"after -/+cable:{cable}")


@st.composite
def _scheme_with_disjoint_cables(draw):
    xgft = draw(xgfts(max_procs=48))
    cables = samplable_cables(xgft)
    assume(len(cables) >= 2)
    i = draw(st.integers(0, len(cables) - 1))
    j = draw(st.integers(0, len(cables) - 1))
    assume(i != j)
    return draw(schemes(xgft)), int(cables[i]), int(cables[j])


@given(case=_scheme_with_disjoint_cables())
@settings(max_examples=EXAMPLES)
def test_disjoint_events_commute(case):
    scheme, a, b = case
    # Distinct cables always have disjoint link sets (each cable owns
    # exactly its up/down pair).
    assert not (set(cable_links(scheme.xgft, a))
                & set(cable_links(scheme.xgft, b)))
    first = IncrementalDegradedScheme(scheme)
    second = IncrementalDegradedScheme(scheme)
    try:
        first.apply_event(ChurnEvent("fail", "cable", a))
        first.apply_event(ChurnEvent("fail", "cable", b))
        second.apply_event(ChurnEvent("fail", "cable", b))
        second.apply_event(ChurnEvent("fail", "cable", a))
    except DisconnectedPairError:
        assume(False)  # the pair was jointly critical
    np.testing.assert_array_equal(first.fabric.link_ok,
                                  second.fabric.link_ok)
    _assert_state_equal(_state_snapshot(first), _state_snapshot(second),
                        f"orders (-{a},-{b}) vs (-{b},-{a})")


@given(case=churn_cases(max_events=8, max_procs=48))
@settings(max_examples=EXAMPLES)
def test_seeded_replay_is_deterministic(case):
    xgft, trace, scheme = case
    one = IncrementalDegradedScheme(scheme)
    two = IncrementalDegradedScheme(scheme)
    stats_one = one.replay(trace)
    stats_two = two.replay(trace)
    assert [(s.event, s.links_changed, s.pairs_recomputed)
            for s in stats_one] == \
           [(s.event, s.links_changed, s.pairs_recomputed)
            for s in stats_two]
    np.testing.assert_array_equal(one.fabric.link_ok, two.fabric.link_ok)
    _assert_state_equal(_state_snapshot(one), _state_snapshot(two),
                        f"replaying {trace.describe()} twice")


@st.composite
def _scheme_with_critical_cable(draw):
    """A scheme on a topology whose host uplinks are critical."""
    xgft = draw(xgfts(max_procs=48))
    assume(xgft.w[0] == 1)  # one uplink per host => cutting it strands it
    up0, _ = xgft.boundary_link_slices(0)
    cable = draw(st.integers(up0.start, up0.stop - 1))
    return draw(schemes(xgft)), cable


@given(case=_scheme_with_critical_cable())
@settings(max_examples=EXAMPLES)
def test_disconnection_parity_with_oracle(case):
    scheme, cable = case
    xgft = scheme.xgft
    inc = IncrementalDegradedScheme(scheme)
    before = _state_snapshot(inc)
    with pytest.raises(DisconnectedPairError):
        inc.apply_event(ChurnEvent("fail", "cable", cable))
    # The from-scratch oracle rejects the identical fault set the same
    # way (parity), and the incremental state rolled back cleanly.
    with pytest.raises(DisconnectedPairError):
        oracle = DegradedScheme(
            scheme, DegradedFabric(xgft, failed_cables=[cable]))
        n = xgft.n_procs
        keys = np.arange(n * n, dtype=np.int64)
        s, d = np.divmod(keys, n)
        k_arr = xgft.nca_level(s, d)
        for k in range(1, xgft.h + 1):
            mask = k_arr == k
            if mask.any():
                oracle.path_index_matrix(s[mask], d[mask], k)
    assert inc.fabric.is_pristine
    _assert_state_equal(before, _state_snapshot(inc),
                        f"after rejected -cable:{cable}")

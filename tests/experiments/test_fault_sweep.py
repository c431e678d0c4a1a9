"""Fault sweep runner: which fault grid it sweeps."""

import pytest

from repro.errors import FaultError
from repro.experiments import fault_sweep
from repro.faults.spec import samplable_cables
from repro.topology.variants import m_port_n_tree

KWARGS = dict(fidelity_name="fast", topology=m_port_n_tree(4, 3),
              curves=("d-mod-k",), seed=5)


def test_rates_and_fault_links_together_rejected():
    """Explicit cables replace the rate grid, so asking for both is an
    error, not a silently dropped grid."""
    cable = int(samplable_cables(KWARGS["topology"])[0])  # keeps it connected
    with pytest.raises(FaultError, match="not both"):
        fault_sweep.run(rates=(0.05, 0.1), fault_links=(cable,), **KWARGS)


def test_rates_default_to_the_standard_grid():
    result = fault_sweep.run(**KWARGS)
    assert tuple(p.rate for p in result.points) == fault_sweep.DEFAULT_RATES

"""The compiled flow engine: permutation batches over a routing plan.

:class:`BatchFlowEngine` holds one plan
(:func:`repro.routing.compiled.compile_scheme`) and evaluates each batch
of permutations with the same :func:`repro.flow.loads.permutation_mloads`
call as the reference engine, reading the plan as the scheme.  The plan
selects a pair the first time a batch names it and serves it from its
tables after that, so the two engines differ only in when selection
runs and agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.flow.loads import permutation_mloads
from repro.routing.compiled import LazyPlan


class BatchFlowEngine:
    """Evaluates permutation batches against one routing plan.

    >>> from repro.topology import m_port_n_tree
    >>> from repro.routing import make_scheme
    >>> from repro.routing.compiled import compile_scheme
    >>> import numpy as np
    >>> xgft = m_port_n_tree(4, 2)
    >>> eng = BatchFlowEngine(compile_scheme(xgft, make_scheme(xgft, "umulti")))
    >>> perms = np.stack([np.roll(np.arange(8), r) for r in (1, 2)])
    >>> eng.permutation_mloads(perms)
    array([1., 1.])
    """

    def __init__(self, plan: LazyPlan):
        self.plan = plan
        self.xgft = plan.xgft

    @property
    def label(self) -> str:
        return self.plan.label

    def permutation_mloads(self, perms: np.ndarray) -> np.ndarray:
        """MLOAD of each unit-traffic permutation in a ``(B, n_procs)``
        batch (see :func:`repro.flow.loads.permutation_mloads`)."""
        return permutation_mloads(self.xgft, self.plan, perms)

"""Routing-scheme factory: build schemes from string specs.

Experiments, the CLI and the tests refer to schemes by name, optionally
with a path limit, e.g. ``"d-mod-k"``, ``"disjoint:4"``, ``"random:8"``.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.heuristics import (
    Disjoint,
    RandomMultipath,
    RandomSingle,
    Shift1,
    UMulti,
)
from repro.routing.modk import DModK, SModK
from repro.topology.xgft import XGFT

#: scheme name -> (class, takes_k, takes_seed)
_REGISTRY = {
    "d-mod-k": (DModK, False, False),
    "dmodk": (DModK, False, False),
    "s-mod-k": (SModK, False, False),
    "smodk": (SModK, False, False),
    "random-single": (RandomSingle, False, True),
    "shift-1": (Shift1, True, False),
    "shift1": (Shift1, True, False),
    "disjoint": (Disjoint, True, False),
    "random": (RandomMultipath, True, True),
    "umulti": (UMulti, False, False),
}


def available_schemes() -> tuple[str, ...]:
    """Canonical scheme names accepted by :func:`make_scheme`."""
    return ("d-mod-k", "s-mod-k", "random-single", "shift-1", "disjoint",
            "random", "umulti")


def make_scheme(
    xgft: XGFT,
    spec: str,
    *,
    k_paths: int | None = None,
    seed: int = 0,
) -> RoutingScheme:
    """Build a routing scheme from ``spec``.

    ``spec`` is ``"name"`` or ``"name:K"``; an explicit ``k_paths``
    argument overrides the suffix.  ``seed`` only affects randomized
    schemes.

    >>> from repro.topology import m_port_n_tree
    >>> make_scheme(m_port_n_tree(8, 2), "disjoint:4").label
    'disjoint(4)'
    """
    name, _, suffix = spec.partition(":")
    name = name.strip().lower()
    if name not in _REGISTRY:
        raise RoutingError(
            f"unknown routing scheme {name!r}; available: {available_schemes()}"
        )
    cls, takes_k, takes_seed = _REGISTRY[name]
    if suffix:
        try:
            suffix_k = int(suffix)
        except ValueError:
            raise RoutingError(f"bad path limit in spec {spec!r}") from None
        if k_paths is None:
            k_paths = suffix_k
    if takes_k and k_paths is None:
        raise RoutingError(f"scheme {name!r} needs a path limit, e.g. '{name}:4'")
    if not takes_k and k_paths is not None:
        raise RoutingError(f"scheme {name!r} does not take a path limit")

    rec = get_recorder()
    with rec.timer("routing.make_scheme"):
        if takes_k:
            scheme = cls(xgft, k_paths, seed=seed) if takes_seed \
                else cls(xgft, k_paths)
        else:
            scheme = cls(xgft, seed=seed) if takes_seed else cls(xgft)
    if rec.enabled:
        rec.count("routing.schemes_built")
    return scheme

"""Smoke tests: the example scripts run and print their key findings.

Each example is executed in-process (importing its ``main``) so failures
surface with real tracebacks; the slow flit/figure-style studies are
covered by the benchmarks instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(f"example_{name}",
                                                  EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        del sys.modules[spec.name]
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "XGFT(3; 4,4,8; 1,4,4)" in out
    assert "umulti" in out and "ratio 1.000" in out
    assert "throughput" in out


def test_path_enumeration(capsys):
    out = _run_example("path_enumeration", capsys)
    assert "Path 7" in out
    assert "(7, 1, 3, 5)" in out  # the paper's disjoint set
    assert out.count("Path") >= 8


def test_adversarial_dmodk(capsys):
    out = _run_example("adversarial_dmodk", capsys)
    assert "d-mod-k" in out
    assert "umulti" in out
    # d-mod-k's ratio equals prod(w) = 4 on the suggested topology.
    assert "4.00" in out


def test_infiniband_lid_budget(capsys):
    out = _run_example("infiniband_lid_budget", capsys)
    assert "INFEASIBLE" in out  # unlimited multipath on the 24-port 3-tree
    assert "LID" in out
    assert "4 distinct paths" in out


def test_collective_replay(capsys):
    out = _run_example("collective_replay", capsys)
    assert "992/992" in out  # every message of every phase delivered
    assert "d-mod-k" in out and "disjoint:4" in out

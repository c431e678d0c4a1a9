"""Experiment harness: one module per paper table/figure.

Every experiment has a ``run(...)`` entry point returning a structured
result with a ``render()`` method (ASCII table + chart), and is wired
into :mod:`repro.experiments.registry` for the CLI; ``tests/claims``
checks the paper's claims on these runners.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment"]

"""One benchmark pass in a fresh interpreter (started by ``run.py``).

    python3 perf/child.py WORKLOAD SEED [--small] [--setup-only]
                          [--trace-out FILE]

Sets up (see :func:`workloads.setup`), then runs every operation of the
workload once and prints one JSON line: the ``time.monotonic()`` at
which set-up finished, the pass's wall and CPU time, its peak RSS, and
each operation's values or error.  With ``--trace-out`` the layers are
wrapped for the pass, the spans are written to FILE and the per-layer
metrics are added to the line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """Max RSS of this process and of its reaped workers (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def run_pass(workload: workloads.Workload, ctx: dict, seed: int,
             tracer: layers.Tracer | None = None) -> dict:
    """Run every operation once; a failing operation is recorded and the
    pass goes on with the next one."""
    restore = layers.install(tracer) if tracer is not None else None
    ops = []
    try:
        cpu0 = time.process_time() + _children_cpu()
        t0 = time.perf_counter()
        for name, op in workload.ops:
            scope = tracer.operation(name) if tracer is not None else nullcontext()
            with scope as span:
                try:
                    values, attrs = op(ctx, seed)
                except Exception as exc:
                    ops.append({"op": name, "ok": False,
                                "error": f"{type(exc).__name__}: {exc}",
                                "traceback": traceback.format_exc()})
                    continue
                if span is not None:
                    span["attrs"].update(attrs)
            ops.append({"op": name, "ok": True, "values": values})
        wall = time.perf_counter() - t0
        cpu = time.process_time() + _children_cpu() - cpu0
    finally:
        if restore is not None:
            restore()
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
            "ops": ops}


def fingerprint() -> dict:
    """What must match for two ledgers to be comparable (see compare.py)."""
    import platform

    import numpy

    import repro
    from repro.flit import native

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "native_kernel": native.available(),
            "repro": repro.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    ctx = workloads.setup(args.small)
    try:
        out = {"ready": time.monotonic()}
        if args.setup_only:
            out["fingerprint"] = fingerprint()
        else:
            tracer = layers.Tracer() if args.trace_out else None
            out.update(run_pass(workloads.WORKLOADS[args.workload], ctx,
                                args.seed, tracer))
            if tracer is not None:
                out["layers"] = layers.layer_metrics(tracer.spans, out["wall_s"])
                with open(args.trace_out, "w", encoding="utf-8") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed,
                               "wall_s": out["wall_s"], "spans": tracer.spans},
                              fh)
    finally:
        shutil.rmtree(ctx["tmp"], ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

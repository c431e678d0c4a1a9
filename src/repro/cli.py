"""Command-line interface: ``python -m repro <command>`` / ``xgft-repro``.

Commands
--------
* ``info <xgft-spec>`` — describe a topology;
* ``route <xgft-spec> <scheme> <src> <dst>`` — print a pair's route set;
* ``<experiment>`` — regenerate a paper artifact or run a study
  (``figure4a``, ``table1``, ``fault-sweep``, ...;
  ``--fidelity fast|normal|full``);
* ``list`` — list every registered experiment and routing scheme;
* ``report <path...>`` — aggregate ``--log-json`` JSONL run logs
  (files or directories) into a cross-run summary: per-phase
  p50/p95/p99 wall times and counter totals (``--format text|json``).

Every experiment subcommand also accepts the telemetry options
(:mod:`repro.obs`): ``--seed N`` for a reproducible invocation,
``--log-json PATH`` to write a JSONL run log (manifest line, event
stream, metrics line), ``--profile`` to print a timer/counter report,
and ``--quiet`` to suppress the rendered result.  The remaining
options reach an experiment only when its runner takes them (see
:data:`repro.experiments.registry.OPTIONS`); anywhere else they are an
error (exit 2), except the do-nothing ``--engine reference``,
``--jobs 1`` and ``--no-cache``:

* ``--engine``: flit-level sweeps (``table1``, ``figure5``) run the
  native ``batched`` flit kernel by default (bit-identical to the
  reference engine, which it falls back to when the kernel cannot run,
  and several times faster) and take ``reference`` for the pure-Python
  oracle; flow-level permutation studies run ``reference`` by default
  and take ``compiled`` (keep each pair's paths from the first round
  that names it for the study's later rounds, bit-identical to the
  reference);
* ``--fault-rate R[,R...]`` (link failure rate grid), ``--fault-links
  ID[,ID...]`` (explicit failed cables, instead of a rate grid) and
  ``--fault-seed N`` (fault sampler seed): ``fault-sweep``;
* ``--churn-events N`` (fail/repair stream length) and ``--churn-seed
  N`` (trace seed, independent of the traffic ``--seed``):
  ``churn-sweep``;
* ``--jobs N`` (fan the flit grid out over a process pool,
  bit-identical to an inline run): ``table1``, ``figure5``;
* ``--cache`` / ``--no-cache`` (replay completed points from the
  on-disk result cache, making interrupted runs resumable) and
  ``--cache-dir DIR`` (cache location, default ``.repro-cache/``):
  ``table1``, ``figure5``, ``churn-sweep``.

Topology specs: ``mport:8x3`` (8-port 3-tree), ``kary:4x2`` (4-ary
2-tree), or an explicit ``xgft:3;4,4,8;1,4,4``.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.errors import ReproError
from repro.experiments.registry import EXPERIMENTS, run_instrumented
from repro.obs import JsonlSink, Recorder, get_recorder, render_report, write_run
from repro.routing.factory import available_schemes, make_scheme
from repro.topology.variants import k_ary_n_tree, m_port_n_tree
from repro.topology.xgft import XGFT


def parse_topology(spec: str) -> XGFT:
    """Parse a topology spec string (see module docstring).

    >>> parse_topology("mport:8x3")
    XGFT(3; 4,4,8; 1,4,4)
    >>> parse_topology("xgft:2;4,8;1,4")
    XGFT(2; 4,8; 1,4)
    """
    kind, _, rest = spec.partition(":")
    kind = kind.lower()
    try:
        if kind == "mport":
            m, n = rest.split("x")
            return m_port_n_tree(int(m), int(n))
        if kind == "kary":
            k, n = rest.split("x")
            return k_ary_n_tree(int(k), int(n))
        if kind == "xgft":
            h_str, ms, ws = rest.split(";")
            return XGFT(int(h_str),
                        [int(x) for x in ms.split(",")],
                        [int(x) for x in ws.split(",")])
    except (ValueError, ReproError) as exc:
        raise ReproError(f"bad topology spec {spec!r}: {exc}") from None
    raise ReproError(
        f"unknown topology kind {kind!r}; use mport:MxN, kary:KxN or "
        f"xgft:h;m1,..;w1,.."
    )


def _cmd_info(args) -> int:
    xgft = parse_topology(args.topology)
    print(xgft.describe())
    return 0


def _cmd_route(args) -> int:
    xgft = parse_topology(args.topology)
    scheme = make_scheme(xgft, args.scheme, seed=args.seed)
    rs = scheme.route(args.src, args.dst)
    print(f"{scheme.label} routes {args.src} -> {args.dst} "
          f"(NCA level {rs.nca_level}, {rs.num_paths} path(s)):")
    for path, frac in zip(rs.paths(xgft), rs.fractions):
        print(f"  [{frac:.3f}] Path {path.index}: {path.describe(xgft)}")
    return 0


def _cmd_list(_args) -> int:
    for name in sorted(EXPERIMENTS):
        print(f"{name:10s} {EXPERIMENTS[name].description}")
    print("\nschemes:", ", ".join(available_schemes()))
    return 0


# -- argparse type validators -----------------------------------------
# Bad values fail at parse time with a typed usage error instead of
# surfacing later as a numpy broadcast error or a dead process pool.

def _arg_jobs(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _arg_count(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _arg_fault_rates(value: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(p) for p in value.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}")
    for r in rates:
        if not 0.0 <= r <= 1.0:
            raise argparse.ArgumentTypeError(
                f"failure rates are fractions in [0, 1], got {r}")
    return rates


def _arg_fault_links(value: str) -> tuple[int, ...]:
    try:
        links = tuple(int(p) for p in value.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated cable ids, got {value!r}")
    for link in links:
        if link < 0:
            raise argparse.ArgumentTypeError(
                f"cable ids are >= 0, got {link}")
    return links


def _cmd_report(args) -> int:
    import json as _json

    from repro.obs.export import (aggregate_runs, merged_recorder,
                                  render_cross_run_report)

    runs = aggregate_runs(args.paths)
    if not runs:
        print("error: no run logs found", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json.dumps({
            "runs": [{"path": r.path, "manifest": r.manifest} for r in runs],
            "merged": merged_recorder(runs).metrics(),
        }, indent=2, default=str))
    else:
        print(render_cross_run_report(runs))
    return 0


def _cmd_experiment(args) -> int:
    want_obs = bool(args.log_json or args.profile)
    rec = Recorder() if want_obs else get_recorder()
    # Open the sink before the (possibly hours-long) run so a bad path
    # fails immediately rather than after the experiment finished.
    try:
        sink = JsonlSink(args.log_json) if args.log_json else None
    except OSError as exc:
        print(f"error: cannot open --log-json file: {exc}", file=sys.stderr)
        return 2
    try:
        run = run_instrumented(
            args.experiment,
            fidelity_name=args.fidelity,
            seed=args.seed,
            recorder=rec,
            argv=getattr(args, "_argv", None),
            engine=args.engine,
            fault_rate=args.fault_rate,
            fault_links=args.fault_links,
            fault_seed=args.fault_seed,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
            churn_events=args.churn_events,
            churn_seed=args.churn_seed,
        )
        if not args.quiet:
            print(run.result.render())
        if sink is not None:
            write_run(sink, run.manifest, rec)
    finally:
        if sink is not None:
            sink.close()
    if args.profile:
        print(render_report(rec, title=f"run telemetry: {args.experiment} "
                                       f"({run.manifest.wall_time_s:.2f}s)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xgft-repro",
        description="Limited multi-path routing on extended generalized "
                    "fat-trees (IPDPS'12 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a topology")
    p_info.add_argument("topology", help="e.g. mport:8x3 or xgft:2;4,8;1,4")
    p_info.set_defaults(func=_cmd_info)

    p_route = sub.add_parser("route", help="print a pair's route set")
    p_route.add_argument("topology")
    p_route.add_argument("scheme", help="e.g. d-mod-k, disjoint:4")
    p_route.add_argument("src", type=int)
    p_route.add_argument("dst", type=int)
    p_route.add_argument("--seed", type=int, default=0)
    p_route.set_defaults(func=_cmd_route)

    p_list = sub.add_parser("list", help="list experiments and schemes")
    p_list.set_defaults(func=_cmd_list)

    p_report = sub.add_parser(
        "report", help="aggregate JSONL run logs into a cross-run summary")
    p_report.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="run-log files or directories of *.jsonl (from --log-json)")
    p_report.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text summary (default) or merged-metrics JSON")
    p_report.set_defaults(func=_cmd_report)

    # Telemetry/reproducibility options shared by every experiment
    # subcommand (they go after the subcommand name).
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="experiment RNG seed (recorded in the run manifest)")
    obs_parent.add_argument(
        "--log-json", metavar="PATH", default=None,
        help="write a JSONL run log: manifest, events, metrics")
    obs_parent.add_argument(
        "--profile", action="store_true",
        help="print a timer/counter/convergence report after the run")
    obs_parent.add_argument(
        "--quiet", action="store_true",
        help="suppress the rendered result (use with --log-json)")
    obs_parent.add_argument(
        "--engine", choices=("reference", "compiled", "batched"),
        default=None,
        help="simulation backend: flit experiments (table1, figure5) "
             "run 'batched' (the native flit kernel, bit-identical to "
             "the reference it falls back to) by default and take "
             "'reference'; flow experiments run 'reference' by default "
             "and take 'compiled' (keep each pair's paths from the first "
             "round that names it for later rounds, bit-identical)")
    obs_parent.add_argument(
        "--fault-rate", metavar="R[,R...]", default=None,
        type=_arg_fault_rates,
        help="link failure rate grid for fault-aware experiments, e.g. "
             "0,0.02,0.05 (fractions in [0, 1] of non-critical cables "
             "failed)")
    obs_parent.add_argument(
        "--fault-links", metavar="ID[,ID...]", default=None,
        type=_arg_fault_links,
        help="explicit failed cables (up-link ids) instead of random "
             "sampling; only fault-aware experiments accept this")
    obs_parent.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="fault-sampler seed, independent of the traffic --seed")
    obs_parent.add_argument(
        "--jobs", type=_arg_jobs, default=None, metavar="N",
        help="worker processes for flit sweep grids (table1, figure5); "
             "results are bit-identical to a serial run for a fixed seed")
    obs_parent.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="replay completed flit sweep points from the on-disk result "
             "cache and store new ones (resumes interrupted sweeps); "
             "--no-cache forces recomputation")
    obs_parent.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result-cache directory (default .repro-cache/; implies "
             "--cache unless --no-cache is given)")
    obs_parent.add_argument(
        "--churn-events", type=_arg_count, default=None, metavar="N",
        help="fail/repair event-stream length for churn-aware "
             "experiments (churn-sweep); default set by --fidelity")
    obs_parent.add_argument(
        "--churn-seed", type=int, default=None, metavar="N",
        help="churn-trace seed, independent of the traffic --seed")

    for name, exp in EXPERIMENTS.items():
        p_exp = sub.add_parser(name, help=exp.description,
                               parents=[obs_parent])
        p_exp.add_argument("--fidelity", choices=("fast", "normal", "full"),
                           default="normal")
        p_exp.set_defaults(func=_cmd_experiment, experiment=name)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    args._argv = tuple(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Artifact-level perf ledger for the paper's experiments.

    python3 perf/run.py [--workloads NAME ...] [--seed S] [--reps N]
                        [--seconds T] [--trace 0|1] [--smoke]
                        [--write-expected]

Runs each workload (see ``workloads.py``) in fresh interpreters: the
measured passes with four set-up probes spread between them,
then one traced pass.  Passes are interleaved across workloads so
host-speed drift hits them all alike.  Every pass is checked against
``perf/expected/`` at the default seed, or against the workload's first
pass at any other seed.
Prints every metric with its unit, writes ``perf/out/results-*.json``
and, last, one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics`` (wall and CPU time of the fastest pass, the median of the
rest).  Exits 1 when any operation failed.

``--seconds T`` repeats passes while another one fits in T seconds (at
least two passes) instead of running ``--reps`` of them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: end-to-end metrics and their units; ``GATED`` are the ones
#: BENCHMARK.json bounds (the other two may never increase)
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "failed_frac": "fraction",
              "paper_err_pp": "pp"}
GATED = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
#: reported as the fastest pass of a run, the others as the median.  Every
#: pass of a run does the same work, so a slower pass was slowed by other
#: load on the host, and the fastest is the least disturbed.
BEST_OF = ("wall_s", "cpu_s")

SETUP_PROBES = 4
MIN_TIMED_PASSES = 2
PASS_TIMEOUT_S = 100
PROBE_TIMEOUT_S = 60
#: address-space cap per pass; pool workers inherit it
MEMORY_LIMIT = 4 << 30

EXPECTED_DIR = os.path.join(HERE, "expected")


def _limit_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a pass's process group (orphaned pool
    workers) and wait until the group is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(args: list[str], env: dict, timeout: float) -> tuple[dict | None, str | None, float]:
    """Run ``child.py`` with ``args``; returns (its JSON line or None, the
    failure reason or None, the monotonic time it was spawned)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=_limit_memory, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        reason = None
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        reason = f"timeout after {timeout:.0f} s"
    _reap_group(proc.pid)
    if reason is None and proc.returncode < 0:
        reason = f"killed by {signal.Signals(-proc.returncode).name}"
    elif reason is None and proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        reason = f"exit code {proc.returncode}: {tail[0]}"
    if reason is not None:
        return None, reason, spawned
    return json.loads(stdout.strip().splitlines()[-1]), None, spawned


def load_expected(name: str, seed: int, small: bool) -> dict | None:
    """The recorded values for ``name`` when they apply to this run."""
    path = os.path.join(EXPECTED_DIR, f"{name}.json")
    if small or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["values"] if data["seed"] == seed else None


def verify(workload: workloads.Workload, passes: list[dict],
           expected: dict | None) -> list[str]:
    """Check every operation of every pass; returns one reason per failed
    operation.  Without ``expected`` values, the first pass's values are
    the reference, so all passes must agree."""
    failures = []
    reference = expected
    for i, p in enumerate(passes):
        if p.get("error"):
            failures += [f"pass {i} {op}: {p['error']}" for op, _ in workload.ops]
            continue
        got = {o["op"]: o["values"] for o in p["ops"] if o["ok"]}
        if reference is None and len(got) == len(workload.ops):
            reference = got
        for o in p["ops"]:
            op = o["op"]
            if not o["ok"]:
                failures.append(f"pass {i} {op}: {o['error']}")
                continue
            problems = workloads.invariants(op, o["values"])
            if reference is not None and op in reference:
                diff = workloads.difference(reference[op], o["values"])
                if diff:
                    problems.append(f"mismatch at {diff}")
            for later, earlier in workload.same_as:
                if op == later and earlier in got:
                    diff = workloads.difference(got[earlier], o["values"])
                    if diff:
                        problems.append(f"differs from {earlier} at {diff}")
            if problems:
                failures.append(f"pass {i} {op}: {'; '.join(problems)}")
    return failures


def summarize(values: list[float]) -> dict:
    """Minimum, median, quartiles (``statistics.quantiles``, n=4) and
    sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"min": min(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values}


class Ledger:
    """Runs the passes of several workloads and collects their numbers."""

    def __init__(self, names: list[str], seed: int, small: bool, out_dir: str):
        self.names = names
        self.seed = seed
        self.small = small
        self.out_dir = out_dir
        tmp = os.path.join(out_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        # keep every file the program writes inside the checkout
        self.env = {**os.environ, "TMPDIR": tmp,
                    "REPRO_KERNEL_CACHE": os.path.join(out_dir, "kernel-cache")}
        self.setup = {n: [] for n in names}
        self.passes = {n: [] for n in names}
        self.traced = {}
        self.fingerprint = None

    def _args(self, name: str) -> list[str]:
        return [name, str(self.seed)] + (["--small"] if self.small else [])

    def probe(self, name: str, timed: bool = True) -> None:
        """One set-up-only interpreter, timed from spawn to ready."""
        out, reason, spawned = spawn(self._args(name) + ["--setup-only"],
                                     self.env, PROBE_TIMEOUT_S)
        if reason is not None:
            raise SystemExit(f"error: set-up of {name} failed: {reason}")
        self.fingerprint = self.fingerprint or out["fingerprint"]
        if timed:
            self.setup[name].append(out["ready"] - spawned)

    def run_pass(self, name: str, trace: bool = False) -> dict:
        args = self._args(name)
        if trace:
            args += ["--trace-out", os.path.join(self.out_dir, f"trace-{name}.json")]
        out, reason, spawned = spawn(args, self.env, PASS_TIMEOUT_S)
        if reason is not None:
            out = {"error": reason}
        else:
            self.setup[name].append(out["ready"] - spawned)
        if trace:
            self.traced[name] = out
        else:
            self.passes[name].append(out)
        return out

    def broken(self, name: str) -> bool:
        """Whether a pass of ``name`` died (timeout, kill, crash)."""
        return any(p.get("error") for p in self.passes[name])

    def results(self) -> dict:
        return {"fingerprint": {**self.fingerprint, "git_rev": _git_rev()},
                "seed": self.seed, "smoke": self.small,
                "workloads": {n: self._workload_results(n) for n in self.names}}

    def _workload_results(self, name: str) -> dict:
        workload = WORKLOADS[name]
        passes = self.passes[name]
        checked = passes + ([self.traced[name]] if name in self.traced else [])
        failures = verify(workload, checked,
                          load_expected(name, self.seed, self.small))
        attempted = len(checked) * len(workload.ops)
        good = [p for p in passes if not p.get("error")]
        metrics = {}
        if good:
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                metrics[key] = summarize([p[key] for p in good])
        if self.setup[name]:
            metrics["setup_s"] = summarize(self.setup[name])
        metrics["failed_frac"] = summarize([len(failures) / attempted])
        if name == "table1-native":
            errs = [workloads.paper_err_pp(o["values"]) for p in good
                    for o in p["ops"] if o["ok"]]
            if errs:
                metrics["paper_err_pp"] = summarize(errs)
        for key, stats in metrics.items():
            stats["unit"] = END_TO_END[key]
        out = {"attempted": attempted, "failed": len(failures),
               "failures": failures, "metrics": metrics}
        traced = self.traced.get(name)
        if traced and not traced.get("error") and "wall_s" in metrics:
            lay = dict(traced["layers"])
            lay["obs.trace_overhead"] = (
                traced["wall_s"] / metrics["wall_s"]["median"] - 1.0)
            out["traced_wall_s"] = traced["wall_s"]
            out["layers"] = {k: {"value": lay[k], "unit": u}
                             for k, u in layers.LAYER_UNITS.items()}
        return out


def _git_rev() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure(names: list[str], *, seed: int = DEFAULT_SEED, reps: int = 3,
            seconds: float | None = None, trace: bool = True,
            small: bool = False, probes: int = SETUP_PROBES,
            out_dir: str = os.path.join(HERE, "out")) -> dict:
    """Run the ledger and return its results (the results-file content)."""
    ledger = Ledger(names, seed, small, out_dir)
    for name in names:  # builds the native kernel and warms the file cache
        ledger.probe(name, timed=False)
    # Slow spells on a shared host last seconds; spreading the probes
    # between the passes keeps one spell from moving the set-up median.
    rounds = reps if seconds is None else MIN_TIMED_PASSES
    per_round = -(-probes // rounds)
    done = 0
    spent = 0.0  # seconds spent in passes, probes excluded
    last = 0.0  # seconds the last round of passes took
    # with ``seconds``, no round starts that would end past it
    while (done < reps if seconds is None else
           done < MIN_TIMED_PASSES or spent + last <= seconds):
        live = [n for n in names if not ledger.broken(n)]
        if not live:  # a dead pass ends its workload's measurement
            break
        for _ in range(per_round if done < rounds else 0):
            for name in live:
                ledger.probe(name)
        start = time.monotonic()
        for name in live:
            ledger.run_pass(name)
        last = time.monotonic() - start
        spent += last
        done += 1
    if trace:
        for name in names:
            if not ledger.broken(name):
                ledger.run_pass(name, trace=True)
    return ledger.results()


def write_expected(names: list[str], seed: int) -> None:
    """Record one pass's values per workload as the expected values."""
    ledger = Ledger(names, seed, False, os.path.join(HERE, "out"))
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for name in names:
        p = ledger.run_pass(name)
        failures = verify(WORKLOADS[name], [p], None)
        if failures:
            raise SystemExit(f"error: {failures[0]}; nothing written")
        path = os.path.join(EXPECTED_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "values": {o["op"]: o["values"]
                                                for o in p["ops"]}},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render(results: dict) -> str:
    lines = []
    for name, w in results["workloads"].items():
        lines.append(f"{name}: {w['failed']} of {w['attempted']} operations "
                     f"failed")
        for reason in w["failures"]:
            lines.append(f"  FAILED {reason}")
        for key, s in w["metrics"].items():
            lines.append(f"  {key:<28} {_fmt(s['median']):>12} {s['unit']:<8}"
                         f" min {_fmt(s['min'])}  q1 {_fmt(s['q1'])}"
                         f"  q3 {_fmt(s['q3'])}  n={s['n']}")
        if "layers" in w:
            wall = w["traced_wall_s"]
            lines.append(f"  traced pass: {_fmt(wall)} s")
            idle = []
            for key, m in w["layers"].items():
                if m["value"] == 0:
                    idle.append(key)
                    continue
                share = (f"{100 * m['value'] / wall:5.1f}% of traced wall"
                         if m["unit"] == "s" else "")
                lines.append(f"    {key:<30} {_fmt(m['value']):>12} "
                             f"{m['unit']:<6} {share}")
            if idle:
                lines.append(f"    zero here: {', '.join(idle)}")
    return "\n".join(lines)


def result_line(results: dict, trace: bool) -> dict:
    """The closing JSON line.  For one workload: the gated end-to-end
    metrics, or with ``trace`` the per-layer values.  For several: every
    end-to-end metric, named ``<workload>.<metric>``.  :data:`BEST_OF`
    metrics are the fastest pass, the others the median."""
    ws = results["workloads"]
    metrics = {}
    for name, w in ws.items():
        e2e = {k: {"value": s["min" if k in BEST_OF else "median"],
                   "unit": s["unit"]}
               for k, s in w["metrics"].items()}
        if len(ws) == 1:
            metrics = (w.get("layers", {}) if trace else
                       {k: v for k, v in e2e.items() if k in GATED})
        else:
            metrics.update({f"{name}.{k}": v for k, v in e2e.items()})
    attempted = sum(w["attempted"] for w in ws.values())
    failed = sum(w["failed"] for w in ws.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Artifact-level perf ledger (see perf/README.md).")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        action="extend", nargs="+", choices=sorted(WORKLOADS),
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced passes per workload (default 3, "
                             "smoke 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat passes for this long instead of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="run the traced pass (default 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="4- and 6-port trees, fast presets")
    parser.add_argument("--write-expected", action="store_true",
                        help="record perf/expected/ at --seed and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    names = list(dict.fromkeys(args.workloads or WORKLOADS))
    if args.write_expected:
        write_expected(names, args.seed)
        return 0
    reps = args.reps if args.reps is not None else (1 if args.smoke else 3)
    results = measure(names, seed=args.seed, reps=reps, seconds=args.seconds,
                      trace=bool(args.trace), small=args.smoke,
                      probes=2 if args.smoke else SETUP_PROBES)
    print(render(results))
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(HERE, "out", f"results-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    line = result_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two ledger results files, metric by metric and workload by workload.

    python3 perf/compare.py BASE.json NEW.json

For each end-to-end metric of each workload it prints both sides' median
and quartiles and a verdict, using the bounds in BENCHMARK.json:

* ``regressed``: NEW's median is worse than BASE's by more than the bound;
* ``improved``: better by more than the bound, or, when the spread is
  too wide to tell, every run of NEW beats every run of BASE;
* ``unresolved``: either side's spread (IQR / median) exceeds the bound
  and NEW does not beat BASE run for run;
* ``ok``: otherwise.

``failed_frac`` and ``paper_err_pp`` have no bound: any increase is a
regression.  Exits 1 on any regression, and 2 without comparing when the
two files come from different hosts or builds (their fingerprints
differ in anything but the git revision).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: metrics with no bound, which may never increase
NO_INCREASE = ("failed_frac", "paper_err_pp")


def load_bounds(path: str = BENCHMARK) -> dict[str, tuple[float, str]]:
    """metric -> (bound, better) from BENCHMARK.json, plus the
    no-increase metrics."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bounds.update({name: (0.0, "lower") for name in NO_INCREASE})
    return bounds


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], new: list[float], bound: float,
            better: str = "lower") -> str:
    """The verdict for one (metric, workload) pair; see the module doc."""
    sign = 1.0 if better == "lower" else -1.0
    a = [sign * v for v in base]
    b = [sign * v for v in new]
    ma, mb = statistics.median(a), statistics.median(b)
    if bound == 0.0:
        return ("regressed" if mb > ma + 1e-12 else
                "improved" if mb < ma - 1e-12 else "ok")
    beats = max(b) < min(a)
    if _spread(base) > bound or _spread(new) > bound:
        return "improved" if beats else "unresolved"
    change = (mb - ma) / abs(ma)
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "ok"


def _fingerprint(results: dict) -> dict:
    return {k: v for k, v in results["fingerprint"].items() if k != "git_rev"}


def compare(base: dict, new: dict, bounds: dict) -> list[dict]:
    rows = []
    for workload, wb in base["workloads"].items():
        wn = new["workloads"].get(workload)
        if wn is None:
            continue
        for metric, (bound, better) in bounds.items():
            sa, sb = wb["metrics"].get(metric), wn["metrics"].get(metric)
            if sa is None or sb is None:
                continue
            rows.append({"workload": workload, "metric": metric,
                         "unit": sa["unit"], "base": sa, "new": sb,
                         "verdict": verdict(sa["values"], sb["values"],
                                            bound, better)})
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 perf/compare.py BASE.json NEW.json",
              file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args[1], encoding="utf-8") as fh:
        new = json.load(fh)
    if _fingerprint(base) != _fingerprint(new):
        print(f"error: not comparable, host fingerprints differ:\n"
              f"  {_fingerprint(base)}\n  {_fingerprint(new)}", file=sys.stderr)
        return 2
    rows = compare(base, new, load_bounds())
    for r in rows:
        a, b = r["base"], r["new"]
        print(f"{r['workload']:<24} {r['metric']:<13} "
              f"{a['median']:>10.4g} [{a['q1']:.4g}, {a['q3']:.4g}] -> "
              f"{b['median']:>10.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
              f"{r['unit']:<8} {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

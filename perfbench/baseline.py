"""Measure a baseline and write it to ``perfbench/baseline.json``.

Run from the root of a checkout:

    python3 perfbench/baseline.py

For each workload of ``BENCHMARK.json`` it makes ten untraced runs of
``run_seconds`` with seeds 1..10 and records, per end-to-end metric, the
median, the quartiles and the spread (quartile distance over the median)
next to the metric's bound.  It then makes one traced run per workload
(seed 1) for the per-layer table and the inputs table: why each input was
chosen, its candidates, total models, pass rate and mean h per total model.
It overwrites ``baseline.json`` whole.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summary(values, bound=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, failed, details = {}, 0, []
        for seed in range(1, RUNS + 1):
            result, detail = one_run(workload, seed, seconds, 0)
            failed += result["failed"]
            details.append(detail)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        traced, tdetail = one_run(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "failed": failed,
            "end_to_end": {n: summary(v, bounds.get(n)) for n, v in values.items()},
            "op_tail": details[0]["op_tail"],
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
            "inputs": {
                name: {**props, "pass_rate": props["total_models"] / props["candidates"],
                       "h_per_total": props["h_below"] / props["total_models"]
                       if props["total_models"] else 0.0}
                for name, props in tdetail["inputs"].items()
            },
            "provenance": details[0]["provenance"],
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

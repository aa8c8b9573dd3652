"""Fast self-check of the benchmark on the smallest inputs.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload it runs one untraced and one traced pass over the
operations marked small and asserts that the result has exactly the keys
and metric names (with units) that ``BENCHMARK.json`` declares, that every
output check passed, and that the traced self times cover the traced wall
time.  It then shows that the output checks reject wrong answers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import inputs as gen
import run
import workloads
from passrun import ROOT, WORK, load_digests, run_ops, write_inputs


def check_result(result: dict, units: dict):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert isinstance(metric["value"], (int, float)), name


def check_rejections():
    """Each kind of output check fails on a wrong answer."""
    chain = gen.chain(3, 2, 0)
    op = workloads.Op("solve", ("solve", "@x"), "solve", chain.name)
    good = json.dumps({"stable_models": [dict(m) for m in sorted(chain.expect)]})
    assert workloads.check_output(op, chain, 0, good) is None
    fewer = json.dumps({"stable_models": [dict(m) for m in sorted(chain.expect)][1:]})
    assert workloads.check_output(op, chain, 0, fewer) is not None
    assert workloads.check_output(op, chain, 1, good) is not None
    ht = workloads.Op("ht", ("solve", "@x", "--ht"), "ht", "choice")
    choice = gen.choice(1, 0)
    assert workloads.check_output(ht, choice, 0, json.dumps({"ht_models": []})) is not None
    verdict = workloads.Op("check", ("check",), "verdict")
    assert workloads.check_output(
        verdict, None, 0, json.dumps({"report": {"verdict": "different"}})) is not None
    props = workloads.Op("props", ("props",), "props")
    assert workloads.check_output(
        props, None, 0, json.dumps({"report": {"violations": 1}})) is not None
    refused = workloads.Op("refused", ("translate",), "refused")
    assert workloads.check_output(refused, None, 0, "") is not None
    assert workloads.check_output(refused, None, 2, "") is None
    # a stdout that differs from its frozen digest fails the operation
    inputs, ops = workloads.build("solve-sparse", 1, str(ROOT), small=True)
    digests = {k: "0:tampered" for k in load_digests()}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        contents = write_inputs(inputs, Path(tmp))
        records, failures, _, _, _ = run_ops(ops, inputs, contents, Path(tmp), 1, digests)
    assert records and len(failures) == len(records), failures


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    names, e2e, layers = run.declared()
    assert names == list(workloads.WORKLOADS), names
    for workload in names:
        for trace in (False, True):
            result, _ = run.measure(workload, 1, 0, trace, small=True)
            check_result(result, layers if trace else e2e)
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                gap = abs(m["trace.coverage"] - 1)
                assert gap <= max(abs(m["trace.overhead_frac"]), 0.01), m
            print(f"ok {workload} trace={int(trace)}: {result['attempted']} operations")
    check_rejections()
    print("ok output checks reject wrong answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh interpreter.

Usage (from the root of a checkout; ``run.py`` starts it):

    python3 perfbench/passrun.py --workload W --seed N --jobs J --trace off|spans|pool \
        --t0 <time.monotonic() at spawn> --work <dir> [--small] [--prepass]

Set-up imports ``htc``, generates the workload's inputs from the seed and
writes them as ``.lc`` files.  Each operation is then one in-process call
to ``htc.cli.main(argv)`` with stdout captured; its output is checked right
after the call, outside the timed region.  A calibration (``calibrate``)
runs before the first operation and after each one, so that ``run.py`` can
scale every operation's time by the speed the machine had around it.  The
pass prints one JSON object.
``--trace spans`` records spans around the calls into every module;
``--trace pool`` times only the process pool.
With ``--prepass`` it instead counts the input properties (candidates,
total models, h below them) with the public ``enumerate_valuations`` and
``satisfies`` and runs no operation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer, layer_metrics, pool_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"  # generated inputs; removed after each pass
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(inputs: dict, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    contents = {}
    for name, inp in inputs.items():
        (work / f"{name}.lc").write_text(inp.text, encoding="utf-8")
        contents[name] = inp.text
    return contents


CAL_ROWS = 3000


def calibrate() -> float:
    """Seconds taken by a fixed piece of plain Python work, with the
    collector off: building tuples, a dict and a set of frozensets keyed by
    them, and sorting strings.  Like htc's enumeration it is bound by
    allocation and hashing, so it slows down with it when neighbours on a
    shared machine take cache and memory bandwidth; a pure arithmetic loop
    does not (it tracked only a third of that slowdown)."""
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [tuple(range(i % 13)) for i in range(CAL_ROWS)]
        table = {row: len(row) for row in rows}
        sets = set(map(frozenset, rows))
        sorted(map(str, rows[: CAL_ROWS // 4]))
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_ops(ops, inputs, contents, work: Path, jobs: int, digests):
    """Run the operations in order.

    Returns per-operation records ``[label, seconds, ok]``, the failures
    ``[label, reason]``, the stdout bytes, the digest of every operation
    (key -> value), which ``digests`` (when not None) must match, and the
    calibration times: one before the first operation and one after each.
    """
    from htc import cli

    records, failures, seen = [], [], {}
    stdout_bytes = 0
    cal_s = [calibrate()]
    for op in ops:
        argv = [str(work / f"{a[1:]}.lc") if a.startswith("@") else a for a in op.argv]
        argv += ["--jobs", str(jobs)]
        out, err = io.StringIO(), io.StringIO()
        reason = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an operation that raises counts as failed
                rc, reason = None, f"raised {exc!r}"
            seconds = time.perf_counter() - start
        cal_s.append(calibrate())
        stdout = out.getvalue()
        stdout_bytes += len(stdout.encode())
        if op.save:
            (work / f"{op.save}.lc").write_text(stdout, encoding="utf-8")
            contents[op.save] = stdout
        key = workloads.digest_key(op, contents)
        seen[key] = workloads.digest_value(rc, stdout)
        if reason is None:
            try:
                reason = workloads.check_output(op, inputs.get(op.input), rc, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is None and digests is not None:
            frozen = digests.get(key)
            if frozen is None:
                reason = "no frozen digest for this input"
            elif frozen != seen[key]:
                reason = f"stdout digest {seen[key]} differs from frozen {frozen}"
        records.append([op.label, seconds, reason is None])
        if reason is not None:
            if err.getvalue():
                reason += f"; stderr: {err.getvalue()[:200]}"
            failures.append([op.label, reason])
    return records, failures, stdout_bytes, seen, cal_s


def prepass(inputs: dict, ops) -> dict:
    """Exact input properties of every input the workload solves or checks."""
    from htc import (Interpretation, desugar_theory, enumerate_valuations, parse_theory,
                     satisfies)
    from htc.transforms import theory_formulas

    names = sorted({op.input for op in ops if op.check in ("solve", "ht", "verdict")})
    per_input = {}
    for name in names:
        thy = desugar_theory(parse_theory(inputs[name].text))
        formulas = theory_formulas(thy)
        cand = total = h = 0
        for t in enumerate_valuations(thy.spec):
            cand += 1
            tt = Interpretation(t, t)
            if all(satisfies(tt, f) for f in formulas):
                total += 1
                h += 2 ** len(t) - 1
        per_input[name] = {"candidates": cand, "total_models": total, "h_below": h,
                           "why": inputs[name].why}
    cand = sum(v["candidates"] for v in per_input.values())
    total = sum(v["total_models"] for v in per_input.values())
    h = sum(v["h_below"] for v in per_input.values())
    return {
        "semantics.candidates": cand,
        "semantics.total_models": total,
        "semantics.pass_rate": total / cand if cand else 0.0,
        "semantics.h_per_total": h / total if total else 0.0,
        "inputs": per_input,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--trace", choices=("off", "spans", "pool"), default="off")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--prepass", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import htc.cli  # noqa: F401  (set-up includes the import)
    from htc import transforms

    inputs, ops = workloads.build(args.workload, args.seed, str(ROOT), small=args.small)
    work = Path(args.work)
    contents = write_inputs(inputs, work)
    if args.prepass:
        print(json.dumps(prepass(inputs, ops)))
        return 0
    tracer = None
    if args.trace != "off":
        tracer = Tracer()
        tracer.install(functions=args.trace == "spans")
    setup_s = time.monotonic() - args.t0
    records, failures, stdout_bytes, _, cal_s = run_ops(
        ops, inputs, contents, work, args.jobs, load_digests()
    )
    wall_s = sum(r[1] for r in records)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": records,
        "cal_s": cal_s,
        "failures": failures,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if args.trace == "spans":
        layers = layer_metrics(tracer, wall_s, transforms)
        layers["cli.stdout_bytes"] = stdout_bytes
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
    elif args.trace == "pool":
        result["layers"] = pool_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

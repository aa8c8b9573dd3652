"""The htc-lab benchmark (standard library only).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run makes rounds of passes of the workload, each pass in a fresh
interpreter (``passrun.py``), one pass per hash seed in ``HASH_SEEDS`` and
round, until the next round would end after ``--seconds``.  It is a closed
loop with one client: each operation starts when the previous one has
returned.

Times are reference seconds.  Each pass runs a fixed calibration
(``passrun.calibrate``) before its first operation and after each one; an
operation's time is scaled by ``CAL_REF_S`` over the mean of the two
calibrations around it, and ``setup_s`` by ``CAL_REF_S`` over the first
calibration.  On a shared machine the speed of a core drifts by 30% and
more over minutes, which no statistic over one run removes; the scaling
takes it out, because the calibration slows down with htc.  ``CAL_REF_S``
is about the calibration's time on an idle two-core x86 VM, so reference
seconds are close to real seconds there.  The detail line holds the
unscaled figures too.

An operation's figure is the median over the rounds of each hash seed,
averaged over the seeds: htc's running time depends on set iteration order
(up to 1.6x on intchoice(4,2)), and every run and every commit sees the
same orders, however many rounds fit.  ``wall_s`` is the sum of these
figures, ``op_p50_s`` their median and ``op_tail_s`` their highest
percentile with ten operations beyond it.  ``setup_s`` and ``peak_rss_mb``
are medians over the passes.

The workloads run at ``--jobs 1``.  With ``--trace 0`` a run prints the
end-to-end metrics.  With ``--trace 1`` it prints the per-layer metrics: it
rotates passes with spans around the calls into each module, untraced
passes (for the tracing overhead) and passes at ``--jobs 2`` with only the
process pool timed (the pool metrics and speedup), and adds an untimed
pre-pass that counts input properties.  Per-layer times, ``trace.wall_s``
included, are unscaled; ``trace.overhead_frac`` and ``pool.speedup`` are
ratios of scaled times.
Every run also times a plain two-process CPU burn (``pool.raw_speedup``).
The line before the last holds provenance and details; the last line is
the result.

``peak_rss_mb`` is the peak RSS of a pass process plus the largest peak of
its pool workers, as ``getrusage`` reports them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from burn import burn
from passrun import WORK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 150  # a run must end within 180 s
HASH_SEEDS = (0, 1, 2)  # PYTHONHASHSEED of the passes of a round
CAL_REF_S = 0.0035  # reference time of passrun.calibrate
BURN_N = 1_500_000


class PassError(RuntimeError):
    """A pass process failed or printed no result."""


# ---------------------------------------------------------------------------
# Child processes and calibration


def run_group(cmd, timeout=None, env=None):
    """Run ``cmd`` in a process group of its own; its exit code, stdout and
    stderr.  Whether it ends or times out, whatever is left of its group
    (pool workers, a resource tracker) is killed and waited for, so no
    process outlives the call."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, process_group=0)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        end_group(proc)
    return proc.returncode, out, err


def end_group(proc, wait_s=10.0):
    """Kill the process group led by ``proc`` and wait until it is gone."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if proc.poll() is None:
            proc.wait()
        if time.monotonic() > deadline:
            return
        time.sleep(0.005)


def raw_speedup(n: int = BURN_N) -> float:
    """Serial time of two burns over their wall time in two processes."""
    start = time.perf_counter()
    burn(n)
    burn(n)
    serial = time.perf_counter() - start
    cmd = [sys.executable, str(HERE / "burn.py"), str(n)]
    procs = []
    try:
        for _ in range(2):
            procs.append(subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, text=True))
        for p in procs:
            if p.stdout.readline().strip() != "ready":
                raise PassError("burn process did not start")
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        spans = [tuple(map(float, p.communicate(timeout=60)[0].split())) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.communicate()
    if any(p.returncode != 0 or len(s) != 2 for p, s in zip(procs, spans)):
        raise PassError("burn process failed")
    return serial / (max(e for _, e in spans) - min(s for s, _ in spans))


# ---------------------------------------------------------------------------
# Provenance


def provenance() -> dict:
    rev = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            rev = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "htc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Passes


def declared():
    """Workload names, and metric name -> unit for the end-to-end and the
    per-layer metrics, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            *({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")))


def run_pass(workload, seed, jobs, hash_seed=0, trace="off", small=False, prepass=False,
             deadline=None):
    """One pass in a fresh interpreter with ``PYTHONHASHSEED=hash_seed``;
    its JSON result."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs), "--trace", trace,
           "--work", str(work)]
    if small:
        cmd.append("--small")
    if prepass:
        cmd.append("--prepass")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        t0 = time.monotonic()
        code, out, err = run_group(cmd + ["--t0", repr(t0)], timeout=timeout,
                                   env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass of {workload} timed out after {exc.timeout:.0f} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        raise PassError(f"pass of {workload} exited {code}: {err[-2000:]}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise PassError(f"pass of {workload} printed no result: {err[-2000:]}") from exc
    result["hash_seed"] = hash_seed
    return result


def repeat(workload, seed, configs, seconds, deadline, small=False):
    """Rounds of passes, one pass per hash seed and ``(jobs, trace)`` config
    in each, until the next round would end after ``seconds``; the passes of
    each config.  Rotating the configs exposes them to the same noise."""
    groups = [[] for _ in configs]
    start = time.monotonic()
    rounds = 0
    while True:
        for hash_seed in HASH_SEEDS:
            for group, (jobs, trace) in zip(groups, configs):
                group.append(run_pass(workload, seed, jobs, hash_seed, trace=trace,
                                      small=small, deadline=deadline))
        rounds += 1
        now = time.monotonic()
        next_end = now + (now - start) / rounds
        if next_end > start + seconds or next_end > deadline - 10:
            return groups


def scaled_ops(p):
    """A pass's operation times in reference seconds."""
    cal = p["cal_s"]
    return [op[1] * CAL_REF_S / (0.5 * (cal[i] + cal[i + 1])) for i, op in enumerate(p["ops"])]


def unscaled_ops(p):
    return [op[1] for op in p["ops"]]


def op_times(passes, times=scaled_ops):
    """Each operation's figure, in operation order: its median over the
    passes of each hash seed, averaged over the hash seeds."""
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p["hash_seed"], []).append(times(p))
    per_seed = [[statistics.median(col) for col in zip(*runs)] for runs in by_seed.values()]
    return [statistics.fmean(col) for col in zip(*per_seed)]


def tail(samples):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it (nearest rank); the maximum for ten samples or fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def measure(workload, seed, seconds, trace, small=False):
    """(result line, detail) of one run."""
    _, end_to_end, per_layer = declared()
    deadline = time.monotonic() + TIME_LIMIT_S
    detail = {"provenance": provenance(), "workload": workload, "seed": seed,
              "trace": int(trace)}
    if not trace:
        (passes,) = repeat(workload, seed, [(1, "off")], seconds, deadline, small)
        times = op_times(passes)
        raw = op_times(passes, unscaled_ops)
        tail_value, tail_pct = tail(times)
        metrics = {
            "setup_s": statistics.median(
                p["setup_s"] * CAL_REF_S / p["cal_s"][0] for p in passes),
            "wall_s": sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_value,
            "peak_rss_mb": statistics.median(
                (p["rss_self_kb"] + p["rss_children_kb"]) / 1024 for p in passes),
        }
        units = end_to_end
        detail["op_tail"] = {"percentile": round(tail_pct, 2), "samples": len(times)}
        detail["unscaled"] = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "wall_s": sum(raw), "op_p50_s": statistics.median(raw), "op_tail_s": tail(raw)[0],
        }
        detail["cal_s"] = statistics.median(c for p in passes for c in p["cal_s"])
        detail["pass_wall_s"] = [p["wall_s"] for p in passes]
        detail["op_s"] = dict(zip((op[0] for op in passes[0]["ops"]), times))
    else:
        traced, serial, pooled = repeat(
            workload, seed, [(1, "spans"), (1, "off"), (2, "pool")], seconds, deadline, small)
        counted = run_pass(workload, seed, 1, small=small, prepass=True, deadline=deadline)
        walls = {1: sum(op_times(serial)), 2: sum(op_times(pooled))}
        metrics = {}
        for group in (traced, pooled):
            metrics.update({name: statistics.median(p["layers"][name] for p in group)
                            for name in group[0]["layers"]})
        metrics.update({k: v for k, v in counted.items() if k.startswith("semantics.")})
        metrics["trace.wall_s"] = sum(op_times(traced, unscaled_ops))
        metrics["trace.overhead_frac"] = sum(op_times(traced)) / walls[1] - 1
        metrics["pool.speedup"] = walls[1] / walls[2]
        units = per_layer
        detail["inputs"] = counted["inputs"]
        detail["spans_per_pass"] = statistics.median(p["spans"] for p in traced)
        detail["untraced_wall_s"] = {f"jobs={k}": v for k, v in walls.items()}
        passes = traced + serial + pooled
    raw = raw_speedup()
    detail["pool.raw_speedup"] = raw
    if trace:
        metrics["pool.raw_speedup"] = raw
        metrics["pool.efficiency"] = metrics["pool.speedup"] / raw
    detail["provenance"]["loadavg_end"] = os.getloadavg()
    detail["passes"] = len(passes)
    failures = [f for p in passes for f in p["failures"]]
    detail["failures"] = failures[:20]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if not op[2])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="htc-lab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "htc" / "__init__.py").is_file():
        print(f"run.py: no htc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

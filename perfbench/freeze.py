"""Write ``digests.json``: the frozen stdout digest of every operation the
benchmark can run, over every variant any seed can draw.

Run from the root of a checkout, at the commit whose output is the
reference:

    python3 perfbench/freeze.py

It refuses to write when any output check fails (closed-form answers,
verdicts, violations, the budget refusal).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import inputs as gen
import workloads
from passrun import DIGESTS, ROOT, WORK, run_ops, write_inputs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    builds = [(w, v) for w in workloads.WORKLOADS for v in range(gen.VARIANTS)]
    digests, failures = {}, []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for i, (workload, variant) in enumerate(builds):
            inputs, ops = workloads.build(workload, 0, str(ROOT), variant=variant)
            work = Path(tmp) / str(i)
            contents = write_inputs(inputs, work)
            _, failed, _, seen, _ = run_ops(ops, inputs, contents, work, 1, None)
            failures += failed
            digests.update(seen)
            print(f"{workload} variant {variant}: {len(ops)} operations", file=sys.stderr)
    if failures:
        for label, reason in failures:
            print(f"FAILED {label}: {reason}", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

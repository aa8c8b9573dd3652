"""A plain pure-Python CPU burn, the calibration of ``pool.raw_speedup``.

``run.py`` starts two of these as child processes:

    python3 perfbench/burn.py <n>

Each prints ``ready``, waits for a line on stdin so that both start
together, runs ``burn(n)`` and prints its start and end as
``time.monotonic()`` values.
"""

from __future__ import annotations

import sys
import time


def burn(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) % 1_000_003
    return x


def main() -> int:
    n = int(sys.argv[1])
    print("ready", flush=True)
    sys.stdin.readline()
    start = time.monotonic()
    burn(n)
    print(start, time.monotonic(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

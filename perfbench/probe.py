"""Set-up probe: time from before ``import knotrank`` until one operation returns.

Run in a fresh interpreter by ``run.py``:

    python3 -I perfbench/probe.py <src-dir> <workload> <operation-json>

Prints the elapsed seconds, then the host's reference-loop time just
after (the best of three, see host.py).  Only the standard library and
the benchmark's own modules are loaded before the clock starts, so every
knotrank cache is cold.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import host  # noqa: E402  (needs the path above)
import workloads  # noqa: E402


def main() -> None:
    src, workload, op_json = sys.argv[1:4]
    op = json.loads(op_json)
    sys.path.insert(0, src)
    start = time.perf_counter()
    kr = workloads.import_knotrank(workload)
    workloads.bind(op, kr)(None)
    elapsed = time.perf_counter() - start
    reference = min(host.reference_seconds() for _ in range(3))
    print(repr(elapsed), repr(reference))


if __name__ == "__main__":
    main()

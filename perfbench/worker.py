"""One pass over a workload's operation list, in a fresh interpreter.

Started by ``run.py`` once per pass:

    python3 -I perfbench/worker.py <job.json> <result.pickle>

The job names the knotrank source directory, the workload, the file of
prepared operations, the order to run them in, and whether to trace.
The result holds the pass's wall time, every operation's latency, its
outputs as plain data, and the process's peak RSS; a traced pass adds
the tracer's summary and whether every attribute was restored.

Every pass starts with cold caches, as a command-line user's process
does: nothing knotrank memoizes survives from one pass to the next.
Caches shared between the operations of one pass still pay off.
"""

from __future__ import annotations

import gc
import importlib
import json
import pickle
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import host  # noqa: E402  (needs the path above)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

LAYERS = ("numtheory", "characters", "seifert", "laurent", "pretzel", "cli")

# Seconds of operations between two timings of the host's reference loop:
# longer operations get a timing on each side, shorter ones share them.
REFERENCE_EVERY = 1e-3


def run_pass(calls, order, tracer: Tracer | None = None):
    """Run every operation once, in the given order of indices.

    Returns (wall seconds, latencies, references, outputs), indexed like
    ``calls``.  An operation's reference is the mean of the host's
    reference-loop timings just before and just after it (host.py).

    The collector stays on, as it is in a user's process, but the
    benchmark's own objects (the operation list, the outputs kept for
    checking) are frozen out of it so that collections do not rescan them.
    """
    latency = array("d", bytes(8 * len(calls)))
    reference = array("d", bytes(8 * len(calls)))
    outputs = [None] * len(calls)
    prev = None
    clock = time.perf_counter
    pending = []

    def share_reference() -> None:
        nonlocal before, since
        after = host.reference_seconds()
        for j in pending:
            reference[j] = (before + after) / 2
        pending.clear()
        before, since = after, clock()

    gc.collect()
    gc.freeze()
    try:
        begin = clock()
        before, since = host.reference_seconds(), clock()
        for i in order:
            call = calls[i]
            t = clock()
            try:
                if tracer is None:
                    prev = call(prev)
                else:
                    with tracer.root_span("op"):
                        prev = call(prev)
            except Exception as exc:  # a failed operation is counted, not fatal
                prev = ("raised", type(exc).__name__, str(exc))
            latency[i] = clock() - t
            outputs[i] = prev
            pending.append(i)
            if clock() - since >= REFERENCE_EVERY:
                share_reference()
        if pending:
            share_reference()
        return clock() - begin, latency, reference, outputs
    finally:
        gc.unfreeze()


def import_layers() -> list:
    return [importlib.import_module(f"knotrank.{name}") for name in LAYERS]


def snapshot(modules) -> dict:
    """Identity of every attribute of the modules and of the classes they define."""
    out = {}
    for module in modules:
        for name, obj in vars(module).items():
            out[(module.__name__, name)] = id(obj)
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, raw in vars(obj).items():
                    out[(module.__name__, name, attr)] = id(raw)
    return out


def traced_pass(kr, calls, order):
    """One pass with the tracer installed: (wall, outputs, tracer, restored).

    ``restored`` says whether every attribute of the package is back to
    the object it held before the tracer was installed.
    """
    layers = import_layers()
    before = snapshot([kr.package, *layers])
    tracer = Tracer(kr.package, layers)
    with tracer:
        wall, _, _, outputs = run_pass(calls, order, tracer)
    return wall, outputs, tracer, snapshot([kr.package, *layers]) == before


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space, in MiB.

    Not ``getrusage``: Linux carries the parent's peak across ``exec``
    into a child's ``ru_maxrss``, so it would count the benchmark process
    that started this pass.  ``VmHWM`` counts only this interpreter.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    job_path, result_path = sys.argv[1:3]
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    kr = workloads.import_knotrank(job["workload"])
    if not Path(kr.package.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported knotrank from {kr.package.__file__}, not {src}")
    ops = json.loads(Path(job["ops"]).read_text())
    calls = [workloads.bind(op, kr) for op in ops]
    result = {}
    if job["trace"]:
        wall, outputs, tracer, restored = traced_pass(kr, calls, job["order"])
        tracer.write(Path(job["spans"]))
        result.update(summary=tracer.summary(), restored=restored)
    else:
        wall, latency, reference, outputs = run_pass(calls, job["order"])
        result["latency"] = list(latency)
        result["reference"] = list(reference)
    result["wall"] = wall
    result["peak_rss_mb"] = peak_rss_mb()
    result["outputs"] = [workloads.plain(o) for o in outputs]
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main()

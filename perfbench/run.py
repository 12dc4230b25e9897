"""knotrank benchmark: seeded closed-loop workloads with output checks.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One caller in a closed loop: each operation starts when the previous
one has returned, with no threads and no pool.  A run repeats the
workload's fixed, seeded operation list for ``--seconds`` (at least three
times) with tracing off, each pass in a fresh interpreter (worker.py),
then checks every output against the benchmark's own oracle.
``--trace 1`` adds one traced pass and reports per-layer metrics instead
of end-to-end ones.  The last line of standard output is the JSON
result; see README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (needs the path above)
import host  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
MIN_PASSES = 3  # every operation is timed at least three times; its median timing counts
PERCENTILES = (50, 75, 90, 95, 97.5, 99, 99.9)
MIN_BEYOND = 10

# The functions the per-layer metrics report (see README.md for the
# end-to-end metric each should move, and on which workload).
LAYER_FUNCTIONS = (
    "numtheory.factorize",
    "numtheory.is_prime",
    "numtheory.sqrt_minus_one",
    "characters.certify",
    "characters.build_certificate",
    "characters.verify_certificate",
    "seifert.rank_int",
    "seifert.det_int",
    "seifert.determinant_poly",
    "seifert.alexander_from_seifert",
    "laurent.LaurentPoly.eval_at",
    "laurent.LaurentPoly.__mul__",
    "laurent.LaurentPoly.__pow__",
    "laurent.LaurentPoly.normalize",
    "pretzel.alexander_closed_form",
    "pretzel.alexander_of_witness",
    "cli.main",
    "cli.build_parser",
)


def tail_percentile(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile with >= 10 beyond."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for q in PERCENTILES:
        rank = math.ceil(round(q * n / 100, 9))
        if n - rank >= MIN_BEYOND or best is None:
            best = (q, xs[rank - 1], n - rank)
    return best


def probe_setup(workload: str, op: dict, count: int, src: Path = SRC) -> list[tuple]:
    """(import-to-first-result seconds, reference seconds), each in a fresh interpreter."""
    cmd = [sys.executable, "-I", str(HERE / "probe.py"), str(src), workload, json.dumps(op)]
    values = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        elapsed, reference = done.stdout.split()[-2:]
        values.append((float(elapsed), float(reference)))
    return values


def layer_report(summary: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics: calls and self time of each reported function."""
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        stats = summary.get(fn, {"calls": 0, "self_s": 0.0})
        metrics[f"{fn}.calls"] = {"value": stats["calls"], "unit": "count"}
        metrics[f"{fn}.self_s"] = {"value": stats["self_s"], "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return metrics


def describe(op: dict) -> dict:
    """The operation without its matrix entries (the genus stands in for them)."""
    out = {k: v for k, v in op.items() if k != "matrix"}
    if "matrix" in op:
        out["genus"] = len(op["matrix"]) // 2
    return out


def run_worker(job: dict, workdir: Path) -> dict:
    """Run one pass in a fresh interpreter and return its result (see worker.py)."""
    job_path, result_path = workdir / "job.json", workdir / "result.pickle"
    job_path.write_text(json.dumps(job))
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), str(job_path), str(result_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"pass failed: {done.stderr.strip()}")
    with open(result_path, "rb") as fh:
        return pickle.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, src: Path = SRC) -> dict:
    ops = workloads.generate(workload, seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        workdir = Path(work)
        workloads.prepare(ops, workdir)
        (workdir / "ops.json").write_text(json.dumps(ops))
        job = {"src": str(src), "workload": workload, "ops": str(workdir / "ops.json"),
               "trace": False}

        walls, latencies, references, peaks = [], [], [], []
        setup = []
        first = None
        mismatches = [0] * len(ops)

        def record(outputs) -> None:
            nonlocal first
            if first is None:
                first = outputs
                return
            for i, (a, b) in enumerate(zip(first, outputs)):
                if a != b:
                    mismatches[i] += 1

        def probe_up_to(count: int) -> None:
            if not trace and len(setup) < count:
                setup.extend(probe_setup(workload, ops[0], count - len(setup), src))

        # Each pass runs the list in a fresh seeded order, so that an
        # operation's timing does not hinge on which operation the seed
        # happened to put before it.  Set-up probes are spread over
        # the run, so that a slow spell of the machine does not decide
        # their median.
        orders = workloads.pass_orders(workload, seed, len(ops))
        begin = time.perf_counter()
        deadline = begin + seconds
        while True:
            elapsed = time.perf_counter() - begin
            probe_up_to(max(1, math.ceil(SETUP_PROBES * elapsed / max(seconds, 1))))
            result = run_worker(dict(job, order=list(next(orders))), workdir)
            walls.append(result["wall"])
            latencies.append(result["latency"])
            references.append(result["reference"])
            peaks.append(result["peak_rss_mb"])
            record(result["outputs"])
            del result
            if len(walls) >= MIN_PASSES and time.perf_counter() + walls[-1] > deadline:
                break
        probe_up_to(SETUP_PROBES)

        layer_metrics = None
        restored = True
        if trace:
            # The traced pass runs in the first pass's order, so the two
            # passes differ only by the tracer.
            spans = OUT / f"spans-{workload}.csv"
            result = run_worker(dict(job, order=list(range(len(ops))), trace=True,
                                     spans=str(spans)), workdir)
            record(result["outputs"])
            restored = result["restored"]
            summary = result["summary"]
            (OUT / f"layers-{workload}.json").write_text(
                json.dumps(summary, indent=1, sort_keys=True)
            )
            layer_metrics = layer_report(summary, result["wall"] / walls[0])

    check = checks.checker(workload)
    rng = random.Random(f"check:{workload}:{seed}")
    executions = len(walls) + (1 if trace else 0)
    verdicts = [check(op, out, rng) for op, out in zip(ops, first)]
    failed = sum(executions if v else m for v, m in zip(verdicts, mismatches))
    attempted = executions * len(ops)
    # An operation's latency is its median timing over the passes, each
    # timing scaled to the quiet host's speed (host.py).  Each pass ran in
    # its own process, so no repeat found a cache warmed by an earlier one.
    quiet = host.QUIET_SECONDS
    per_op = [
        statistics.median(lat[i] * quiet / ref[i] for lat, ref in zip(latencies, references))
        for i in range(len(ops))
    ]
    raw = [statistics.median(lat[i] for lat in latencies) for i in range(len(ops))]
    detail = [
        dict(describe(op), latency_s=t, raw_latency_s=r, failure=v)
        for op, t, r, v in zip(ops, per_op, raw, verdicts)
    ]
    (OUT / f"ops-{workload}.json").write_text(json.dumps(detail, indent=0))
    for entry in detail:
        if entry["failure"]:
            print(f"FAILED {json.dumps(entry)}", file=sys.stderr)
    if not restored:
        print("FAILED tracer left an attribute patched", file=sys.stderr)

    q, tail, beyond = tail_percentile(per_op)
    print(f"workload {workload} seed {seed}: {len(ops)} operations, {len(walls)} timed passes"
          + (" + 1 traced" if trace else ""))
    print(f"cmd_tail_ms is p{q:g} of {len(ops)} per-operation latencies ({beyond} beyond)")
    print(f"fail_ratio {failed / attempted:g} ({failed} of {attempted} executions)")
    median_ref = statistics.median(r for pass_ in references for r in pass_)
    print(f"host reference loop: median {median_ref * 1e6:.1f} us, quiet {quiet * 1e6:.1f} us;"
          f" uncorrected wall_s {sum(raw):.4g}")

    if trace:
        metrics = layer_metrics
    else:
        metrics = {
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "cmd_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
            "cmd_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(t * quiet / r for t, r in setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MiB"},
        }
    return {
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process and print every metric by name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload}: exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["metrics"]["fail_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        for name, m in result["metrics"].items():
            print(f"{workload:14} {name:12} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{workload}.{name}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total, sort_keys=True))
    return status if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "knotrank" / "__init__.py").is_file():
        print(f"error: knotrank sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

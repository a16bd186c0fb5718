"""One workload in a fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N --seconds T \
        --mode setup|measure|trace --out-dir DIR

Started by run.py with BLAS/OpenMP threads pinned to 1. Prints ``ready``
once the imports and the untimed warm-up op (the first recorded reference
op) are done, so the parent can time set-up from launch. Then, unless the
mode is ``setup``, it runs a closed loop with one client for T seconds and
prints one JSON line with the op times, the failed checks and the peak RSS.
In ``trace`` mode the first half of the time runs untraced and the second
half with the layer wrappers installed, so their difference is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import load_reference, make_workloads


def run_op(workload, config, trace_path=None) -> tuple:
    """(problems, output) of one op; an op that raises fails, it does not crash."""
    try:
        code, output = workload.run(config, trace_path)
    except Exception as exc:  # the loop goes on and the op counts as failed
        traceback.print_exc()
        return [f"{type(exc).__name__}: {exc}"], None
    return workload.check(config, code, output), output


def reference_op(workload, reference) -> list:
    problems, output = run_op(workload, reference["config"])
    if not problems:
        problems = workload.compare(workload.digest(output), reference["digest"])
    return [f"reference seed {reference['config']['seed']}: {p}" for p in problems]


def closed_loop(workload, rng, seconds, tracer=None, scratch=None):
    """Ops one after another for `seconds`; returns (op times, failed ops, problems, wall)."""
    times, problems, failed = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = len(times)
        config = workload.config(rng)
        trace_path = None
        if tracer is not None:
            if workload.in_process:
                tracer.op = op
            else:
                trace_path = scratch / "spans.json"
        began = time.perf_counter()
        op_problems, _ = run_op(workload, config, trace_path)
        elapsed = time.perf_counter() - began
        times.append(elapsed)
        if tracer is not None:
            if workload.in_process:
                tracer.op_wall[op] = elapsed
            elif trace_path.exists():
                tracer.ingest(json.loads(trace_path.read_text()), op)
                trace_path.unlink()
            else:
                op_problems.append("traced child wrote no spans")
        failed += bool(op_problems)
        problems += [f"op {op} (seed {config['seed']}): {p}" for p in op_problems]
    if tracer is not None:
        tracer.op = None
    return times, failed, problems, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    scratch = args.out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    workload = make_workloads(scratch)[args.workload]
    references = load_reference()[workload.name]
    tracer = Tracer() if args.mode == "trace" else None
    if workload.in_process:
        began = time.perf_counter()
        import icc_kit.cli  # noqa: F401  (import cost belongs to set-up)

        if tracer is not None:
            tracer.import_s.append(time.perf_counter() - began)
            tracer.processes = 1
            tracer.install()
            tracer.op = -1
    problems = reference_op(workload, references[0])
    failed = bool(problems)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)

    report = {}
    attempted = 1
    if args.mode != "setup":
        rng = random.Random(f"{workload.name}/{args.seed}")
        if tracer is None:
            times, loop_failed, loop_problems, wall = closed_loop(workload, rng, args.seconds)
            report.update(op_s=times, phase_s=wall)
        else:
            half = args.seconds / 2
            plain, plain_failed, plain_problems, _ = closed_loop(workload, rng, half)
            if workload.in_process:
                tracer.install()
            times, loop_failed, loop_problems, _ = closed_loop(workload, rng, half, tracer, scratch)
            tracer.uninstall()
            loop_failed += plain_failed
            loop_problems = plain_problems + loop_problems
            attempted += len(plain)
            layers = tracer.layer_metrics()
            layers["trace.overhead_s"] = statistics.median(times) - statistics.median(plain)
            report.update(layers=layers, absent=sorted(tracer.absent))
            tracer.write(args.out_dir / f"spans-{workload.name}.jsonl.gz")
        attempted += len(times)
        failed += loop_failed
        problems += loop_problems
        for reference in references[1:]:
            ref_problems = reference_op(workload, reference)
            attempted += 1
            failed += bool(ref_problems)
            problems += ref_problems

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    report.update(attempted=attempted, failed=failed, problems=problems,
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

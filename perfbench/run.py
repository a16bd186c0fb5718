"""icc-kit benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload sim-wide --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source tree that holds ``src/icc_kit``. Each
workload runs in fresh interpreters (see worker.py), one op at a time, on
one CPU (the lowest this process may use), with BLAS/OpenMP threads pinned
to 1. With ``--trace 0`` it reports the
end-to-end metrics named in BENCHMARK.json; set-up is measured in several
fresh interpreters and its median reported. With ``--trace 1`` it reports
the per-layer metrics instead. Every op's output is checked; the recorded
reference ops pin exact outputs. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every check passed. Full results, with provenance, go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
SETUP_RUNS = 3  # fresh interpreters timed for set-up, the measuring one included
CHILD_SLACK_S = 120  # beyond --seconds, before a worker is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU: migrating between
    CPUs of unequal speed is the largest source of run-to-run spread."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def launch(args, mode: str) -> tuple:
    """Start one worker; returns (seconds from launch to ready, its report)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out-dir", str(OUT_DIR)]
    began = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        killer = threading.Timer(args.seconds + CHILD_SLACK_S, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - began
            rest = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker for {args.workload} ({mode}) exited with {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def percentile(values, share: float) -> float:
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def provenance(seed: int, cpu: int) -> dict:
    model = "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def end_to_end(setups, report) -> dict:
    times = report["op_s"]
    return {
        "op_s.p50": statistics.median(times),
        "op_s.p90": percentile(times, 0.9),
        "ops_per_s": len(times) / report["phase_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "icc_kit" / "cli.py").is_file():
        print(f"error: no icc_kit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    OUT_DIR.mkdir(exist_ok=True)
    cpu = pin_to_one_cpu()

    try:
        if args.trace:
            _, report = launch(args, "trace")
            values = report["layers"]
            listed = spec["per_layer"]
        else:
            setups, reports = [], []
            for _ in range(SETUP_RUNS - 1):
                setup_s, setup_report = launch(args, "setup")
                setups.append(setup_s)
                reports.append(setup_report)
            setup_s, report = launch(args, "measure")
            setups.append(setup_s)
            for extra in reports:
                report["attempted"] += extra["attempted"]
                report["failed"] += extra["failed"]
                report["problems"] += extra["problems"]
            values = end_to_end(setups, report)
            listed = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    absent = report.get("absent", [])
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    correct = report["failed"] == 0
    prov = provenance(args.seed, cpu)
    result_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "metrics": metrics, "absent": absent, "problems": report["problems"],
        "attempted": report["attempted"], "failed": report["failed"],
        "provenance": prov,
    }, indent=1) + "\n")

    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {report['attempted']}  failed {report['failed']}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<44} {report['failed'] / report['attempted']:.6g} -")
    if absent:
        print(f"absent: {', '.join(absent)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

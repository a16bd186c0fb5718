"""Median, quartiles and spread of each end-to-end metric over the results
in perfbench/out.

    python3 perfbench/spread.py [--json FILE]

Groups the end-to-end result files that run.py wrote (one per workload and
seed) at BENCHMARK.json's run length by workload and, for each metric,
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.
"""

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def summarize(seconds: float) -> dict:
    by_workload = {}
    for path in sorted(OUT_DIR.glob("result-*-trace0.json")):
        result = json.loads(path.read_text())
        if result["seconds"] != seconds:
            continue
        runs = by_workload.setdefault(result["workload"], {"seeds": [], "metrics": {}, "provenance": []})
        provenance = dict(result["provenance"])
        runs["seeds"].append(provenance.pop("seed"))
        if provenance not in runs["provenance"]:
            runs["provenance"].append(provenance)
        for name, metric in result["metrics"].items():
            runs["metrics"].setdefault(name, []).append(metric["value"])
    summary = {}
    for workload, runs in by_workload.items():
        rows = {}
        for name, values in runs["metrics"].items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else None}
        summary[workload] = {"runs": len(runs["seeds"]), "seeds": sorted(runs["seeds"]),
                             "provenance": runs["provenance"], "metrics": rows}
    return summary


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", type=Path, default=None, help="also write the summary here")
    args = parser.parse_args()
    summary = summarize(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    for workload, entry in summary.items():
        print(f"{workload}  ({entry['runs']} runs)")
        for name, row in entry["metrics"].items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name:<44} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {spread}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

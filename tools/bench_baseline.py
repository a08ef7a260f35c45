#!/usr/bin/env python3
"""Write committed perfbench baselines: BENCH_<workload>.json at the repo root.

Usage:
    tools/bench_baseline.py RESULTS_DIR

RESULTS_DIR is perfbench's record directory ($CARGO_TARGET_DIR/perfbench/
results), holding one `<workload>-seed<N>-trace0.json` record per workload
and seed from `perfbench/run.py --trace 0` runs. Run the benchmark once per
seed, e.g.

    for s in $(seq 1701 1710); do
      CARGO_TARGET_DIR=/tmp/pb python3 perfbench/run.py --workload all \\
          --seed $s --seconds 30 --trace 0
    done
    python3 tools/bench_baseline.py /tmp/pb/perfbench/results

Each BENCH file holds, per end-to-end metric of BENCHMARK.json, the median
and quartiles over the seeds, with the seeds, core count, run length, build
and commit the records name. The commit gets a "-dirty" suffix when the
checkout's src/ differs from it, since perfbench records HEAD even when the
measured sources were not committed. Exits 1, writing nothing, when a record
is incorrect, a workload has fewer than 2 runs, or its records disagree on
run length, core count, build or commit.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def commit_label(commit):
    if commit == "unknown":  # the records came from outside a git checkout
        return commit
    clean = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", commit,
                            "--", "src"]).returncode == 0
    return commit if clean else commit + "-dirty"


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: tools/bench_baseline.py RESULTS_DIR")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    by_workload = {}
    for path in sorted(Path(sys.argv[1]).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        result = record["result"]
        if not result["correct"] or result["failed"] != 0:
            sys.exit(f"{path}: run was not correct")
        by_workload.setdefault(record["workload"], []).append(record)

    baselines = {}
    for workload, records in sorted(by_workload.items()):
        if len(records) < 2:
            sys.exit(f"{workload}: quartiles need at least 2 runs")
        shared = {key: {r[key] for r in records}
                  for key in ("seconds", "nproc", "git_commit", "build_type",
                              "compiler")}
        for key, values in shared.items():
            if len(values) != 1:
                sys.exit(f"{workload}: records disagree on {key}: {values}")
        one = {key: values.pop() for key, values in shared.items()}
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in records]
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  **quartiles(values)}
        baseline = {
            "workload": workload,
            "commit": commit_label(one["git_commit"]),
            "seeds": sorted(r["seed"] for r in records),
            "runs": len(records),
            "seconds": one["seconds"],
            "nproc": one["nproc"],
            "build_type": one["build_type"],
            "compiler": one["compiler"],
            "metrics": metrics,
        }
        baselines[workload] = baseline
    for workload, baseline in baselines.items():
        out = ROOT / f"BENCH_{workload}.json"
        out.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"{out.name}: {baseline['runs']} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

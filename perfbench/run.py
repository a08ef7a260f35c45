#!/usr/bin/env python3
"""Wall-clock render farm benchmark.

Builds perfbench/farmbench from the checkout's own sources (CMake, Release),
computes the workload's reference frame digests in a separate process, runs
the measurement, checks the printed metric set against BENCHMARK.json, and
prints the result as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload paper_newton --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

--trace 0 times render_farm() end to end (end-to-end metrics); --trace 1 runs
the single-threaded traced replay (per-layer metrics) and writes a Chrome
trace plus a per-layer table under <build dir>/traces. Build outputs, work
files and one JSON record per run (seed, nproc, build type, compiler, git
commit, thread-budget flag) go to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Exit code 0 only when every frame matched its
reference digest.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["paper_newton", "newton_no_coherence", "held_shot_durable",
             "tenant_shots"]
BUILD_TIMEOUT_S = 850
STEP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once, then (re)builds farmbench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: render farm sources (src/CMakeLists.txt) not found "
            "next to perfbench/")
        return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "farmbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return bdir / "farmbench"


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def reference_digests(binary, bdir, workload, seed):
    """Path of the workload's reference digests, computed once per binary."""
    stamp = binary.stat()
    refs = (bdir / "refs" / f"{workload}-seed{seed}-"
            f"{stamp.st_mtime_ns}-{stamp.st_size}.txt")
    if refs.is_file():
        return refs
    refs.parent.mkdir(parents=True, exist_ok=True)
    ref = subprocess.run([str(binary), "reference", "--workload", workload,
                          "--seed", str(seed), "--out", str(refs)],
                         stdout=sys.stderr, stderr=sys.stderr,
                         timeout=STEP_TIMEOUT_S)
    return refs if ref.returncode == 0 and refs.is_file() else None


def run_workload(binary, bdir, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, record dict) or None."""
    refs = reference_digests(binary, bdir, workload, seed)
    if refs is None:
        log(f"perfbench: reference digests failed for {workload}")
        return None
    work = bdir / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        proc = subprocess.run([str(binary), "run", "--workload", workload,
                               "--seed", str(seed), "--seconds",
                               str(seconds), "--trace", str(trace),
                               "--refs", str(refs), "--work-dir", str(work),
                               "--trace-dir", str(bdir / "traces")],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=STEP_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("#info "):
        log(f"perfbench: farmbench printed no result for {workload} "
            f"(exit {proc.returncode})")
        return None
    for line in lines[:-2]:
        print(line)
    info = json.loads(lines[-2][len("#info "):])
    result = json.loads(lines[-1])
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        log(f"perfbench: metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}")
        return None
    if result["correct"] != (proc.returncode == 0):
        log(f"perfbench: farmbench exit {proc.returncode} disagrees with "
            f"correct={result['correct']}")
        return None

    nproc = len(os.sched_getaffinity(0))
    budget_ok = nproc >= info["busy_ranks"]
    if not budget_ok:
        log(f"perfbench: WARNING {workload} keeps {info['busy_ranks']} ranks "
            f"busy but this machine gives {nproc} core(s); its timings "
            f"measure scheduler contention")
    record = dict(info)
    record.update({"trace": trace, "seconds": seconds, "nproc": nproc,
                   "thread_budget_ok": budget_ok,
                   "git_commit": git_commit(), "result": result})
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        out = run_workload(binary, bdir, workload, args.seed, args.seconds,
                           args.trace)
        if out is None:
            return 3
        results[workload], record = out
        print(f"== {workload}: seed {args.seed}, {record['nproc']} cores, "
              f"{record['build_type']}, {record['compiler']}, "
              f"commit {record['git_commit']}")
        for name, m in results[workload]["metrics"].items():
            print(f"   {workload:<20} {name:<28} {m['value']:>18.6f} "
                  f"{m['unit']}")

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

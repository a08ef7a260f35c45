#!/usr/bin/env python3
"""Sim byte-identity check: a base git ref against the working tree.

Usage:
    tools/sim_identity.py BASE_REF [--work DIR] [--jobs N] [--quick]
                                   [--only SUBSTR] [--keep]

Builds render_farm_cli, bench_table1 and bench_multitenant twice — once from
BASE_REF (exported with `git archive` into a temporary directory outside the
repo) and once from the working tree (out-of-source, into the same temporary
directory) — then runs a fixed matrix of sim-backend configurations on both
and byte-compares everything each run leaves behind: frame TGAs, stdout,
stderr and exit code, --metrics-out JSON, --trace-out JSON and journals.
Every run uses relative paths inside its own directory, so the two sides see
identical arguments.

Bench metrics files are compared with their one wall-clock gauge
(bench.wall_seconds) removed; everything else must match byte for byte.

Prints one line per configuration and exits 1 on any difference, 2 when a
build fails. Use it for every refactor that claims sim outputs unchanged:
    tools/sim_identity.py HEAD~
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["render_farm_cli", "bench_table1", "bench_multitenant"]
BINARIES = {
    "cli": "examples/render_farm_cli",
    "table1": "bench/bench_table1",
    "multitenant": "bench/bench_multitenant",
}
WALL_GAUGES = {"bench.wall_seconds"}


def sh(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def export_ref(ref, dest):
    """Export `ref` into `dest` unless it already holds that commit (so a
    reused --work directory rebuilds the base incrementally)."""
    sha = subprocess.run(["git", "-C", REPO, "rev-parse", ref + "^{commit}"],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    stamp = os.path.join(dest, ".sim_identity_commit")
    if os.path.exists(stamp) and open(stamp).read() == sha:
        return
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", ref],
                               stdout=subprocess.PIPE)
    sh(["tar", "-x", "-C", dest], stdin=archive.stdout)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {ref} failed")
    with open(stamp, "w") as f:
        f.write(sha)


def build(src, out, jobs, log_path):
    with open(log_path, "w") as log:
        try:
            sh(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
               stdout=log, stderr=subprocess.STDOUT)
            sh(["cmake", "--build", out, "-j", str(jobs), "--target"] +
               TARGETS, stdout=log, stderr=subprocess.STDOUT)
        except subprocess.CalledProcessError:
            return False
    return True


def truncate_half(name, lose_frame):
    """Simulate a crash: keep half the journal and delete one frame file."""
    def step(cwd):
        path = os.path.join(cwd, name)
        os.truncate(path, os.path.getsize(path) // 2)
        frame = os.path.join(cwd, lose_frame)
        if os.path.exists(frame):
            os.remove(frame)
    return step


def matrix(scene, quick):
    """(name, steps): a step is a (binary key, args) pair or a callable."""
    obs = ["--out", ".", "--trace-out", "t.json", "--metrics-out", "m.json",
           "--report"]
    cli = ["--backend", "sim", "--workers", "3"]
    cases = [("table1", [("table1", ["--metrics-out", "m.json"])])]
    for scheme in ("seq", "frame", "hybrid"):
        for spec in ([], ["--speculate"]):
            name = f"demo-{scheme}" + ("-spec" if spec else "")
            cases.append((name, [("cli", [scene] + cli + ["--scheme", scheme]
                                  + spec + obs)]))
    journal = ["--journal", "r.journal"]
    cases.append(("resume", [
        ("cli", [scene] + cli + journal + ["--out", ".", "--speculate"]),
        truncate_half("r.journal", "farm_0003.tga"),
        ("cli", [scene] + cli + journal + ["--resume"] + obs),
    ]))
    # Sequence division completes frames early and checkpoints late, so
    # this resume restores whole frames and re-partitions the runs between
    # them instead of restoring a checkpoint.
    seq = ["--scheme", "seq"]
    cases.append(("resume-seq", [
        ("cli", [scene] + cli + seq + journal + ["--out", "."]),
        truncate_half("r.journal", "farm_0003.tga"),
        ("cli", [scene] + cli + seq + journal + ["--resume"] + obs),
    ]))
    cases.append(("kill-scheduler", [
        ("cli", [scene] + cli + journal + ["--kill-scheduler", "--out", "."]),
        ("cli", [scene] + cli + journal + ["--resume"] + obs),
    ]))
    cases.append(("kill-shard", [
        ("cli", [scene] + cli + journal + ["--shards", "2", "--kill-shard",
                                           "1"] + obs),
    ]))
    for seed in range(1, 26):
        cases.append((f"chaos-{seed}", [
            ("cli", [scene] + cli + ["--chaos-seed", str(seed)] + obs)]))
    cases.append(("service", [
        ("cli", [scene] + cli + ["--submit", "acme:2:0:4", "--submit",
                                 "indie:1:2:4:1", "--poll", "0.5:0",
                                 "--cancel", "900:1", "--speculate"] + obs),
    ]))
    cases.append(("multitenant", [
        ("multitenant", (["--quick"] if quick else []) +
         ["--metrics-out", "m.json"])]))
    return cases


def run_case(build_dir, steps, cwd):
    os.makedirs(cwd)
    for i, step in enumerate(steps):
        if callable(step):
            step(cwd)
            continue
        key, args = step
        binary = os.path.join(build_dir, BINARIES[key])
        proc = subprocess.run([binary] + args, cwd=cwd, capture_output=True)
        with open(os.path.join(cwd, f"step{i}.out"), "wb") as f:
            f.write(proc.stdout)
            f.write(b"\n--- stderr ---\n" + proc.stderr)
            f.write(f"\n--- exit {proc.returncode} ---\n".encode())


def normalized(path):
    with open(path, "rb") as f:
        data = f.read()
    if not path.endswith(".json"):
        return data
    try:
        doc = json.loads(data)
    except ValueError:
        return data
    gauges = doc.get("gauges") if isinstance(doc, dict) else None
    if not isinstance(gauges, dict) or not WALL_GAUGES & set(gauges):
        return data
    for key in WALL_GAUGES:
        gauges.pop(key, None)
    return json.dumps(doc, sort_keys=True).encode()


def compare(a_dir, b_dir):
    """Names of files that differ or exist on one side only."""
    def files(root):
        out = set()
        for d, _, names in os.walk(root):
            for n in names:
                out.add(os.path.relpath(os.path.join(d, n), root))
        return out
    a_files, b_files = files(a_dir), files(b_dir)
    diffs = sorted(a_files ^ b_files)
    for name in sorted(a_files & b_files):
        if normalized(os.path.join(a_dir, name)) != normalized(
                os.path.join(b_dir, name)):
            diffs.append(name)
    return diffs, len(a_files | b_files)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("base_ref")
    ap.add_argument("--work", help="work directory, kept and reused for "
                    "incremental builds (default: a new temp dir, removed on "
                    "success)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--quick", action="store_true",
                    help="run bench_multitenant in --quick mode")
    ap.add_argument("--only", help="run only configurations whose name "
                    "contains this substring")
    ap.add_argument("--keep", action="store_true",
                    help="keep the temp work directory")
    args = ap.parse_args()

    work = args.work or tempfile.mkdtemp(prefix="sim_identity_")
    os.makedirs(work, exist_ok=True)
    base_src = os.path.join(work, "base-src")
    export_ref(args.base_ref, base_src)
    builds = {"base": (base_src, os.path.join(work, "base-build")),
              "head": (REPO, os.path.join(work, "head-build"))}
    for side, (src, out) in builds.items():
        log = os.path.join(work, f"{side}-build.log")
        print(f"building {side} ({src}) ...", flush=True)
        if not build(src, out, args.jobs, log):
            print(f"BUILD FAILED: {side}, see {log}")
            return 2

    scene = os.path.join(REPO, "examples", "scenes", "demo.scene")
    runs = os.path.join(work, "runs")
    if os.path.exists(runs):
        shutil.rmtree(runs)
    failed = 0
    for name, steps in matrix(scene, args.quick):
        if args.only and args.only not in name:
            continue
        dirs = {}
        for side, (_, out) in builds.items():
            dirs[side] = os.path.join(runs, side, name)
            run_case(out, steps, dirs[side])
        diffs, count = compare(dirs["base"], dirs["head"])
        if diffs:
            failed += 1
            print(f"DIFF {name}: {', '.join(diffs)}", flush=True)
        else:
            print(f"ok   {name} ({count} files identical)", flush=True)
    print(f"{'FAIL' if failed else 'PASS'}: {failed} configuration(s) differ"
          f" from {args.base_ref}")
    if args.work or args.keep or failed:
        print(f"work directory: {work}")
    else:
        shutil.rmtree(work)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""treenum benchmark runner.

Builds perfbench (Release) from this checkout, runs one workload, checks
that every metric BENCHMARK.json names was emitted with its unit, appends
the result (with host facts) to .bench_out/results.jsonl, and prints, as
the last line of stdout, one JSON object with exactly the keys correct,
attempted, failed and metrics.

  python3 perfbench/run.py --workload tree_edits --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 40   # every workload
  python3 perfbench/run.py --smoke                                # self-check

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced binary
and reports the per-layer metrics, writing the span file to
.bench_out/spans-<workload>-<seed>.csv. With --workload all the last line
adds up attempted and failed over the workloads, is correct only if every
workload was, and the exit code is 1 if any check failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds both binaries; returns the build dir."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench",
         "perfbench_traced"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bdir


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_binary(bdir, workload, seed, seconds, trace, smoke, deadline):
    exe = os.path.join(bdir, "perfbench_traced" if trace else "perfbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans",
                os.path.join(OUT_DIR, "spans-%s-%s.csv" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed nothing" % workload)
    return lines[:-1], json.loads(lines[-1])


def check_metrics(spec, trace, metrics):
    """Every metric BENCHMARK.json names for this mode, with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, not %s"
                            % (m["name"], got["unit"], m["unit"]))
        elif not math.isfinite(got["value"]):
            problems.append("metric %s is not finite" % m["name"])
        elif not trace and got["value"] <= 0:
            problems.append("end-to-end metric %s is not positive"
                            % m["name"])
    return [m["name"] for m in wanted], problems


def one_run(spec, bdir, workload, seed, seconds, trace, smoke, deadline):
    human, raw = run_binary(bdir, workload, seed, seconds, trace, smoke,
                            deadline)
    names, problems = check_metrics(spec, trace, raw["metrics"])
    host = dict(raw["host"])
    host["commit"] = git_commit()
    host["nproc_os"] = os.cpu_count()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "time": time.time(),
        "correct": raw["correct"], "attempted": raw["attempted"],
        "failed": raw["failed"], "metrics": raw["metrics"],
        "extra": raw["extra"], "host": host, "failures": raw["failures"],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    for line in human:
        print(line)
    print("host: nproc=%s simd=%s build=%s seed=%s commit=%s" % (
        host["nproc"], host["simd_tier"], host["build_type"], seed,
        host["commit"]))
    result = {
        "correct": bool(raw["correct"]) and not problems,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: raw["metrics"][n] for n in names
                    if n in raw["metrics"]},
    }
    return result, problems


def smoke(spec, bdir):
    """Tiny sizes, every workload, both modes: every metric BENCHMARK.json
    names is emitted with its unit, and nothing fails."""
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            deadline = time.monotonic() + RUN_TIMEOUT_S
            result, problems = one_run(spec, bdir, w["name"], 1, 1, trace,
                                       True, deadline)
            if result["failed"] != 0:
                problems.append("failed_frac is %d/%d, not 0"
                                % (result["failed"], result["attempted"]))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            log("smoke %-13s trace=%d %s" % (w["name"], trace, status))
            ok &= not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; check every metric is emitted")
    args = ap.parse_args()

    try:
        spec = load_spec()
        bdir = build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    # The time limit starts after the build: the first run in a checkout
    # builds from scratch, and an up-to-date build takes a second or two.
    start = time.monotonic()

    if args.smoke:
        return 0 if smoke(spec, bdir) else 1
    if not args.workload:
        log("perfbench: --workload is required")
        return 2
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log("perfbench: unknown workload %s (known: %s)"
            % (args.workload, ", ".join(names)))
        return 2

    # With "all", the last line sums attempted and failed over the
    # workloads, is correct only if every workload was, and carries each
    # workload's metrics under "<workload>.<metric>".
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        # With "all" each workload gets its own time limit.
        deadline = (start if len(workloads) == 1 else time.monotonic()) \
            + RUN_TIMEOUT_S
        try:
            result, problems = one_run(spec, bdir, w, args.seed, seconds,
                                       bool(args.trace), False, deadline)
        except (RuntimeError, ValueError, KeyError,
                subprocess.TimeoutExpired) as e:
            log("perfbench: %s" % e)
            return 1
        for p in problems:
            log("perfbench: %s: %s" % (w, p))
        if problems:
            return 1
        if len(workloads) == 1:
            # The benchmark's contract: the result line says whether the run
            # was correct; the exit code says only that it ran.
            print(json.dumps(result))
            return 0
        print("== %s: %s" % (w, json.dumps(result)))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(total))
    return 0 if total["correct"] and total["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

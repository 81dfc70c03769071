#!/usr/bin/env python3
"""Runs the mvtl benchmark suite.

One workload (the form a harness calls; the last stdout line is a JSON
result with exactly the keys correct, attempted, failed, metrics):

    python3 benchsuite/run.py --workload cluster-rw --seed 3 --seconds 30 --trace 0

Every workload, each in its own process, as a table (plus a result file
for compare.py with --out; --append adds to an existing one):

    python3 benchsuite/run.py [--seed N] [--seconds S] [--trace 0|1]
                              [--repeat K] [--out PATH [--append]]

The first call builds benchsuite/ (and with it the library) in Release
mode into .bench_build/ at the repository root. --trace 1 reports the
per-layer metrics instead of the end-to-end ones, and writes
the sampled spans to .bench_build/trace-<workload>.jsonl. Metric names,
units and regression bounds are those of BENCHMARK.json. Exits non-zero
when a correctness check fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SUITE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mvtl_bench")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds mvtl_bench; refuses anything but Release."""
    subprocess.run(
        ["cmake", "-S", SUITE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type != "Release":
        sys.exit(f"run.py: {BUILD} is a '{build_type}' build; timings need "
                 "Release (delete the directory to reconfigure)")
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "mvtl_bench", "-j",
         str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def bench(*args):
    """Runs mvtl_bench once; returns its JSON result."""
    out = subprocess.run([BINARY, *args], stdout=subprocess.PIPE, check=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def git_sha():
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(spec, workload, seed, seconds, trace):
    """One measured run of `workload`, shaped as the harness result, and
    how mvtl_bench ran it (warm-up seconds, set-ups timed)."""
    def flags(window):
        return [f"--workload={workload}", f"--seed={seed}",
                f"--seconds={window}"]

    if trace:
        # An untraced reference run, then the traced run, half the window
        # each, so a traced run costs what an untraced one does.
        wanted = spec["per_layer"]
        reference = bench(*flags(seconds / 2))
        spans = os.path.join(BUILD, f"trace-{workload}.jsonl")
        run = bench(*flags(seconds / 2), "--traced", f"--spans={spans}")
        values = {**run["layers"], **reference["process"]}
        ref_tps = reference["metrics"]["tps"]
        values["trace.overhead_frac"] = (
            1.0 - run["metrics"]["tps"] / ref_tps if ref_tps > 0 else 0.0)
        correct = run["correct"] and reference["correct"]
    else:
        wanted = spec["end_to_end"]
        run = bench(*flags(seconds))
        values = run["metrics"]
        correct = run["correct"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"run.py: mvtl_bench did not report {missing}")
    return {
        "correct": bool(correct),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }, {"warmup_seconds": run["warmup_seconds"],
        "setup_samples": run["setup_samples"]}


def print_table(results):
    log(f"{'workload':<14} {'metric':<36} {'value':>14}  unit")
    for r in results:
        for name, m in r["metrics"].items():
            log(f"{r['workload']:<14} {name:<36} {m['value']:>14.6g}  "
                f"{m['unit']}")
        log(f"{r['workload']:<14} {'(attempted / failed / correct)':<36} "
            f"{r['attempted']:>14}  {r['failed']} / {r['correct']}")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--append", action="store_true")
    a = p.parse_args()

    seconds = a.seconds or spec["run_seconds"]
    trace = bool(a.trace)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    if a.workload:
        result, _ = run_workload(spec, a.workload, a.seed, seconds, trace)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    results = []
    for _ in range(a.repeat):
        for workload in workloads:
            log(f"run.py: {workload} seed={a.seed} trace={int(trace)}")
            r, how = run_workload(spec, workload, a.seed, seconds, trace)
            results.append({"workload": workload, "seed": a.seed,
                            "trace": int(trace), **how, **r})
    print_table(results)
    if a.out:
        doc = {"runs": []}
        if a.append and os.path.exists(a.out):
            with open(a.out) as f:
                doc = json.load(f)
        doc.update({"git_sha": git_sha(), "nproc": os.cpu_count(),
                    "cpu_model": cpu_model(), "run_seconds": seconds})
        doc["runs"].extend(results)
        with open(a.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    ok = all(r["correct"] for r in results)
    print(json.dumps({"correct": ok, "git_sha": git_sha(), "seed": a.seed,
                      "runs": len(results)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

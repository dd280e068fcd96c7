#!/usr/bin/env python3
"""Builds and runs the end-to-end PathLog benchmark.

    python3 perfbench/run.py --workload closure|serve|ingest --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   (the three in turn)
    python3 perfbench/run.py --selftest

The runner (runner.cc) and the pathlog library it links are built from
source with CMake, in Release mode, under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench at the repository root). The first run
builds; later runs reuse the build. The runner's report goes to standard
output and ends with one JSON line; build output goes to standard error.
Durable databases live under the build directory while the run lasts and
are removed when it ends. A traced run (--trace 1) first runs the same
workload and seed untraced, with that run's report going to standard
error, so that it can report its overhead over it; it writes its spans to
<build>/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closure", "serve", "ingest")
# What a run spends outside its --seconds window: input generation, the
# set-up cycles, reopens, and in a traced run the direct layer calls.
# A runner that takes longer than the window plus this is stopped.
RUN_MARGIN_S = 120
BUILD_TIMEOUT_S = 840
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target, bdir):
    """Configures (once) and builds `target`; returns its path or None."""
    steps = []
    if not (bdir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", target,
                  "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {' '.join(cmd[:2])} failed: {e}",
                  file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    exe = bdir / target
    return exe if exe.exists() else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def parse_report(last_line):
    """The result object when the runner's last line is one, else None."""
    try:
        report = json.loads(last_line)
    except ValueError:
        return None
    if (isinstance(report, dict) and
            set(report) == {"correct", "attempted", "failed", "metrics"}):
        return report
    return None


def main(argv):
    args = parse_args(argv)
    bdir = build_dir()
    if args.selftest:
        exe = build("perfbench_selftest", bdir)
        if exe is None:
            return 2
        return subprocess.run([str(exe)], timeout=RUN_MARGIN_S).returncode

    exe = build("perfbench_runner", bdir)
    if exe is None:
        return 2
    if args.workload != "all":
        return run_workload(exe, bdir, args.workload, args)
    worst = 0
    for workload in WORKLOADS:
        worst = run_workload(exe, bdir, workload, args) or worst
    return worst


def run_workload(exe, bdir, workload, args):
    """Runs the runner once, after an untraced pass when tracing; passes
    the report through to standard output."""
    extra = []
    if args.trace:
        code, report = run_pass(exe, bdir, workload, args, [], sys.stderr)
        if code != 0 or report is None:
            print("perfbench: the untraced pass failed", file=sys.stderr)
            return code or 4
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        extra = ["--trace", "1",
                 "--trace-out", str(traces / f"{workload}-seed{args.seed}.json"),
                 "--untraced", ",".join(f"{name}={m['value']!r}" for name, m
                                        in report["metrics"].items())]
    code, report = run_pass(exe, bdir, workload, args, extra, sys.stdout)
    if report is None:
        print("perfbench: the runner printed no result", file=sys.stderr)
        return code or 4
    return code


def run_pass(exe, bdir, workload, args, extra, out):
    """Runs the runner with `extra` arguments, writing its report to `out`;
    returns its exit code and its result object, or None without one."""
    work = bdir / "runs" / f"{workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--work-dir", str(work)] + extra
    timeout = args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:g} s", file=sys.stderr)
        return 3, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.write(done.stdout)
    out.flush()
    return done.returncode, parse_report(done.stdout.rstrip("\n")
                                         .split("\n")[-1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

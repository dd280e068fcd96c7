#!/usr/bin/env bash
# Bench smoke gate: builds the two headline benchmarks and runs their
# bound-target rows at small scale, archiving machine-readable JSON
# (one BENCH_<name>.json per binary) for trend tracking.
#
#   ci/bench_smoke.sh [build-dir] [out-dir]
#
# The build directory defaults to build-bench (Release — benchmark
# numbers from a Debug tree are meaningless); JSON lands in out-dir
# (default: bench-results/).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
OUT_DIR="${2:-bench-results}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  --target bench_nested_refs bench_second_dimension bench_store \
  bench_stratification bench_tc

mkdir -p "${OUT_DIR}"

# The BoundTarget rows time a path matched against a bound target
# through the inverted value→receiver and member→receiver indexes.
"${BUILD_DIR}/bench/bench_nested_refs" \
  --benchmark_filter='BoundTarget' \
  --benchmark_min_time=0.05 \
  --benchmark_out="${OUT_DIR}/BENCH_nested_refs.json" \
  --benchmark_out_format=json

"${BUILD_DIR}/bench/bench_second_dimension" \
  --benchmark_filter='BoundTarget' \
  --benchmark_min_time=0.05 \
  --benchmark_out="${OUT_DIR}/BENCH_second_dimension.json" \
  --benchmark_out_format=json

# Durability rows: WAL append throughput and recovery (scan + replay),
# and a snapshot load with the heap bytes per fact the loaded store
# holds.
"${BUILD_DIR}/bench/bench_store" \
  --benchmark_filter='Wal|SnapshotLoad' \
  --benchmark_min_time=0.05 \
  --benchmark_out="${OUT_DIR}/BENCH_store.json" \
  --benchmark_out_format=json

# Admission at Load: loading layered rules in three orders, each rule
# checked against the installed ones, and the Load that rejects an
# unstratifiable rule (the binary aborts if that Load does not).
"${BUILD_DIR}/bench/bench_stratification" \
  --benchmark_filter='LoadRules|RejectionCost' \
  --benchmark_min_time=0.05 \
  --benchmark_out="${OUT_DIR}/BENCH_stratification.json" \
  --benchmark_out_format=json

# Overhead gates: the ObsOn/ObsOff twins run the same materialisation
# with the metrics registry attached vs detached, the
# BudgetChecksOn/Off twins under a never-tripping set of limits vs the
# default limits; both report absolute times for trend tracking. The
# 5% agreement gates run on the *Paired rows instead: a shared CI core
# drifts faster than two separately-timed twin blocks run, so only a
# paired measurement (both variants timed back-to-back inside one
# iteration, ABBA order, thread-CPU clock) can resolve 5% reliably.
# The enabled run also exports its metrics registry as JSON next to the
# benchmark JSON.
PATHLOG_METRICS_OUT="${OUT_DIR}/METRICS_tc.json" \
  "${BUILD_DIR}/bench/bench_tc" \
  --benchmark_filter='ObsOn|ObsOff|ObsPaired|DiagPaired|BudgetChecks|ConcurrentReaders' \
  --benchmark_min_time=0.05 \
  --benchmark_repetitions=7 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out="${OUT_DIR}/BENCH_tc.json" \
  --benchmark_out_format=json

python3 -m json.tool "${OUT_DIR}/METRICS_tc.json" >/dev/null

# Instrumentation is per-run (never per-tuple) and budget polls sit at
# rule-evaluation boundaries (and every ~1k enumeration steps), so the
# true overhead of either is far below 5%; the gates catch obs or
# governance checks creeping into the evaluation hot loop, and a
# disabled path that got *slower* than the enabled one (the fast path
# is gone). The median paired ratio across repetitions sheds the
# occasional preempted repetition that min-of-N absolute times cannot.
python3 - "${OUT_DIR}/BENCH_tc.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)

def iters(pred):
    return [b for b in data["benchmarks"]
            if b.get("run_type") == "iteration" and pred(b["name"])]

def best(suffix):
    times = [b["cpu_time"] for b in iters(lambda n: suffix in n)]
    if not times:
        sys.exit(f"overhead gate: no repetitions for {suffix} in "
                 f"{sys.argv[1]}")
    return min(times)

def paired_ratio(name):
    ratios = sorted(b["on_off_ratio"]
                    for b in iters(lambda n: name in n))
    if not ratios:
        sys.exit(f"overhead gate: no {name} rows in {sys.argv[1]}")
    return ratios[len(ratios) // 2]

# Twin bests are informational (absolute cost at a glance); the pass /
# fail decision uses the drift-immune paired ratios only.
for twin in ("ObsOff", "ObsOn", "BudgetChecksOff", "BudgetChecksOn"):
    print(f"overhead gate: {twin} best {best(twin):.3f} ms cpu")

failed = False
for name, what, crept in (
    ("ObsPaired", "obs",
     "instrumentation has crept into the evaluation hot loop"),
    ("BudgetChecksPaired", "budget",
     "governance checks have crept into the evaluation hot loop"),
    ("DiagPaired", "serving diagnostics",
     "the stats-server sinks (flight recorder / query log) have crept "
     "into the evaluation hot loop"),
):
    ratio = paired_ratio(name)
    print(f"overhead gate: {name} median on/off ratio {ratio:.3f}")
    if ratio > 1.05:
        print(f"overhead gate FAILED: enabling {what} costs >5% — {crept}")
        failed = True
    if ratio < 1 / 1.05:
        print(f"overhead gate FAILED: the {what}-disabled path is >5% "
              f"slower than the enabled path — the fast path is gone")
        failed = True
# Concurrent-reader scaling is informational: thread counts beyond the
# CI box's free cores make a hard gate flaky, but the per-thread-count
# throughput belongs in the log (and in history.jsonl) for trend eyes.
for b in iters(lambda n: "ConcurrentReaders" in n):
    ips = b.get("items_per_second")
    if ips is not None:
        print(f"concurrent readers: {b['name']}: {ips:,.0f} lookups/s")

if failed:
    sys.exit(1)
EOF

# Build-type gate: every BENCH_*.json must carry the
# pathlog_build_type custom context key (stamped by bench/bench_main.cc
# from the NDEBUG state of the code under test) and it must say
# "release". The stock library_build_type key is useless here — it
# describes the distro's libbenchmark build (always "debug"), not ours.
python3 - "${OUT_DIR}"/BENCH_*.json <<'EOF2'
import json, sys

bad = []
for path in sys.argv[1:]:
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    stamped = ctx.get("pathlog_build_type")
    if stamped != "release":
        bad.append(f"{path}: pathlog_build_type={stamped!r}")
    else:
        print(f"build-type gate: {path}: release")
if bad:
    sys.exit("build-type gate FAILED (benchmark numbers from a "
             "non-release tree are meaningless):\n" + "\n".join(bad))
EOF2

# Trend history: one JSONL row per headline benchmark per run, keyed
# by commit sha. The BENCH_*.json files above are overwritten each run
# and gitignored; history.jsonl is append-only and tracked, so the
# per-commit throughput trend survives in the repo itself.
GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
GIT_SHA="${GIT_SHA}" python3 - "${OUT_DIR}" "${OUT_DIR}"/BENCH_*.json <<'EOF4'
import datetime, json, os, sys

out_dir, paths = sys.argv[1], sys.argv[2:]
utc = datetime.datetime.now(datetime.timezone.utc).isoformat(
    timespec="seconds")
sha = os.environ.get("GIT_SHA", "unknown")
rows = []
for path in paths:
    with open(path) as f:
        data = json.load(f)
    build = data.get("context", {}).get("pathlog_build_type", "unknown")
    # Best-of-repetitions throughput per benchmark row: min-of-N times
    # sheds scheduler noise, so max-of-N items/s is the matching pick.
    best = {}
    for b in data["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        if ips is None:
            continue
        best[b["name"]] = max(best.get(b["name"], 0.0), ips)
    for name, ips in sorted(best.items()):
        rows.append({"git_sha": sha, "utc": utc, "benchmark": name,
                     "items_per_second": ips,
                     "pathlog_build_type": build})
history = os.path.join(out_dir, "history.jsonl")
with open(history, "a") as f:
    for row in rows:
        f.write(json.dumps(row, sort_keys=True) + "\n")
print(f"bench history: appended {len(rows)} rows to {history}")
EOF4

echo "ci/bench_smoke.sh: benchmark JSON written to ${OUT_DIR}/"

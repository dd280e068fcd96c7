#!/usr/bin/env bash
# CI gate: a compile-only Release build of every target, one combined
# ASan+UBSan Debug build, the full test suite under both sanitizers,
# and an analyzer-enabled lint pass over every shipped example and
# workload scenario program.
#
#   ci/check.sh [build-dir]
#
# The build directory defaults to build-asan (kept separate from the
# regular build/ so the sanitizer flags never leak into it).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"

# Lock-discipline lint: every mutex member in a src/ header must have a
# GUARDED_BY peer and every atomic a `// lock-free:` contract comment.
# Structural, compiler-independent, and cheap — run it first.
python3 tools/lock_lint.py

# Clang thread-safety analysis over the annotated serving core. The
# annotations in base/thread_annotations.h are no-ops under GCC, so
# this gate only has teeth where clang exists; skipping silently would
# hide a hole in CI, so say so out loud.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety"
  cmake --build build-tsa -j "${JOBS}" \
    --target pathlog pathlog_shell pathlog_lint
else
  echo "ci/check.sh: clang++ not found; skipping -Wthread-safety build" \
    "(annotations still lint-checked by tools/lock_lint.py)" >&2
fi

# Release build of every target, compile only: -O3 raises diagnostics
# that the Debug and RelWithDebInfo builds never see (GCC's -Wrestrict
# false positives among them), and -Werror makes each one fatal.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}"

# -fno-sanitize-recover=all already makes any UB report fatal; the
# options below make the report actionable (symbolised stack) and keep
# ASan strict about lifetime issues the tests might otherwise miss.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_stack_use_after_return=1:strict_string_checks=1"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# The recovery torture tests run as part of ctest above, but they are
# the one gate crash-safety rests on, so run them again by name: a
# filter typo or discovery failure must not silently skip them under
# the sanitizers. The DurableLog cases are the named gate for the log's
# retry policy (truncate, reopen, re-run the batch) and failure latch.
"${BUILD_DIR}/tests/durability_test" \
  --gtest_filter='DurabilityTortureTest.*:DurableLogTest.*'

# Same reasoning for the chaos harness: the scripted fault schedules
# (transient retries, ENOSPC windows, degraded-mode entry/exit,
# crash-mid-commit) are the gate for resource governance and degraded
# serving, so run the whole binary by name under the sanitizers.
"${BUILD_DIR}/tests/chaos_test"

# TSan gate for the concurrency contract: the dedicated race suite
# (readers vs writer with checkpoints, degrade/heal under concurrent
# scrapes, flight-recorder span storms, query-log rotation races,
# histogram export) plus the stats-server lifecycle tests run under
# ThreadSanitizer. halt_on_error makes the first report fatal — races
# get fixed, not suppressed.
TSAN_BUILD_DIR="build-tsan"
TSAN_FLAGS="-fsanitize=thread"
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${TSAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}"
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
  --target concurrency_test stats_server_test
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/concurrency_test"
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/stats_server_test"

# Shipped programs must be lint-clean with the semantic analyses
# (PL014-PL019) enabled, in both head-value modes: pathlog_lint exits 1
# on any diagnostic, warning or error, and that fails the gate.
"${BUILD_DIR}/tools/pathlog_lint" --analyze \
  examples/programs/*.plg src/workload/programs/*.plg
"${BUILD_DIR}/tools/pathlog_lint" --analyze --skolemize \
  examples/programs/*.plg src/workload/programs/*.plg
"${BUILD_DIR}/tools/pathlog_lint" --analyze --json \
  examples/programs/*.plg src/workload/programs/*.plg >/dev/null

# Observability smoke: a traced shell session (load, materialise,
# query) must emit valid chrome://tracing JSON and valid metrics JSON.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "${OBS_TMP}"' EXIT
printf '%s\n' \
  'a[kids->>{b}].' \
  'b[kids->>{c}].' \
  'X[desc->>{Y}] <- X[kids->>{Y}].' \
  'X[desc->>{Y}] <- X..desc[kids->>{Y}].' \
  '?- a[desc->>{D}].' \
  '\quit' | \
  "${BUILD_DIR}/tools/pathlog" \
    --trace-out="${OBS_TMP}/trace.json" \
    --metrics-out="${OBS_TMP}/metrics.json" >/dev/null
python3 -m json.tool "${OBS_TMP}/trace.json" >/dev/null
python3 -m json.tool "${OBS_TMP}/metrics.json" >/dev/null
# Span shape, not just JSON: the trace holds complete ("X") events
# with a duration, and the engine's span tree nests by interval
# containment — db.materialize > engine.run > stratum > iteration >
# rule.evaluate, the stratified fixpoint as the ring recorded it.
python3 - "${OBS_TMP}/trace.json" <<'EOF6'
import json, sys

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
spans = [(e["name"], e["ts"], e["ts"] + e["dur"]) for e in events
         if e.get("ph") == "X" and isinstance(e.get("dur"), (int, float))]
if not spans:
    sys.exit("span smoke FAILED: no X events with dur in --trace-out")
chain = ["db.materialize", "engine.run", "stratum", "iteration",
         "rule.evaluate"]
for outer, inner in zip(chain, chain[1:]):
    inners = [s for s in spans if s[0] == inner]
    if not inners:
        sys.exit(f"span smoke FAILED: no {inner} span in --trace-out")
    for _, start, end in inners:
        if not any(name == outer and s <= start and end <= e
                   for name, s, e in spans):
            sys.exit(f"span smoke FAILED: {inner} [{start}, {end}] "
                     f"lies inside no {outer}")
print(f"span smoke: {len(spans)} spans, " + " > ".join(chain) + " nested")
EOF6

# Serving-diagnostics smoke: a live shell with the embedded stats
# server (ephemeral port) and the structured query log on. Every HTTP
# endpoint must answer while the shell is still serving, and the query
# log must hold schema-valid JSONL once the session ends. stdin rides
# a fifo so the session stays open across the curl probes.
SHELL_PID=""
trap 'kill "${SHELL_PID}" 2>/dev/null || true; rm -rf "${OBS_TMP}"' EXIT
mkfifo "${OBS_TMP}/shell.in"
"${BUILD_DIR}/tools/pathlog" \
  --stats-port=0 \
  --query-log="${OBS_TMP}/query_log.jsonl" \
  < "${OBS_TMP}/shell.in" > "${OBS_TMP}/shell.out" &
SHELL_PID=$!
exec 3> "${OBS_TMP}/shell.in"
printf '%s\n' \
  'a[kids->>{b}].' \
  'b[kids->>{c}].' \
  'X[desc->>{Y}] <- X[kids->>{Y}].' \
  'X[desc->>{Y}] <- X..desc[kids->>{Y}].' \
  '?- a[desc->>{D}].' \
  '\explain ?- a[desc->>{D}].' >&3

STATS_PORT=""
for _ in $(seq 100); do
  STATS_PORT="$(sed -n \
    's/.*stats server listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
    "${OBS_TMP}/shell.out" | head -n1)"
  [ -n "${STATS_PORT}" ] && break
  sleep 0.1
done
[ -n "${STATS_PORT}" ] || {
  echo "diag smoke FAILED: shell never announced a stats port" >&2
  cat "${OBS_TMP}/shell.out" >&2
  exit 1
}

for endpoint in metrics healthz varz statusz tracez querylogz; do
  curl -fsS "http://127.0.0.1:${STATS_PORT}/${endpoint}" \
    > "${OBS_TMP}/http_${endpoint}.out"
done
grep -q '^pathlog_' "${OBS_TMP}/http_metrics.out"
grep -q '^ok$' "${OBS_TMP}/http_healthz.out"
python3 -m json.tool "${OBS_TMP}/http_varz.out" >/dev/null
# The first scrape can land before the shell has read its first
# clause: poll /tracez until the ring holds a complete span.
for _ in $(seq 100); do
  grep -q '"ph":"X","dur":' "${OBS_TMP}/http_tracez.out" && break
  sleep 0.1
  curl -fsS "http://127.0.0.1:${STATS_PORT}/tracez" \
    > "${OBS_TMP}/http_tracez.out"
done
python3 - "${OBS_TMP}/http_tracez.out" <<'EOF7'
import json, sys

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
if not any(e.get("ph") == "X" and isinstance(e.get("dur"), (int, float))
           for e in events):
    sys.exit("diag smoke FAILED: /tracez holds no X events with dur")
EOF7
python3 -m json.tool "${OBS_TMP}/http_querylogz.out" >/dev/null

printf '\\quit\n' >&3
exec 3>&-
wait "${SHELL_PID}"
SHELL_PID=""

python3 - "${OBS_TMP}/query_log.jsonl" "${OBS_TMP}/shell.out" <<'EOF5'
import json, re, sys

with open(sys.argv[1]) as f:
    lines = [l for l in f.read().splitlines() if l.strip()]
if not lines:
    sys.exit("query-log smoke FAILED: no records written")
for i, line in enumerate(lines, 1):
    rec = json.loads(line)
    for key in ("ts_ms", "latency_ms", "rows"):
        if not isinstance(rec.get(key), (int, float)):
            sys.exit(f"query-log smoke FAILED: record {i}: bad {key}")
    for key in ("kind", "query", "status", "strategy", "plan_fingerprint"):
        if not isinstance(rec.get(key), str):
            sys.exit(f"query-log smoke FAILED: record {i}: bad {key}")
    if rec["kind"] not in ("query", "eval", "holds"):
        sys.exit(f"query-log smoke FAILED: record {i}: kind={rec['kind']!r}")
    if not isinstance(rec.get("slow"), bool):
        sys.exit(f"query-log smoke FAILED: record {i}: bad slow flag")
    for key in ("budget", "routes"):
        if not isinstance(rec.get(key), dict):
            sys.exit(f"query-log smoke FAILED: record {i}: bad {key}")
# One call, one budget window: the desc read lazily materialises the
# closure, so its record must carry that materialisation's spend.
desc = [rec for rec in map(json.loads, lines)
        if rec.get("query") == "?- a[desc->>{D}]."]
if not desc:
    sys.exit("query-log smoke FAILED: no record for ?- a[desc->>{D}].")
if not desc[0]["budget"].get("derivations", 0) > 0:
    sys.exit("query-log smoke FAILED: the desc read's budget.derivations "
             f"is {desc[0]['budget'].get('derivations')}, not > 0")
# The read's record names the plan \explain printed, and its routes
# come from the site executor that ran it.
with open(sys.argv[2]) as f:
    printed = re.findall(r"plan fingerprint: ([0-9a-f]{8})", f.read())
if printed != [desc[0]["plan_fingerprint"]]:
    sys.exit("query-log smoke FAILED: \\explain printed fingerprints "
             f"{printed}, the read logged {desc[0]['plan_fingerprint']!r}")
if not any(v > 0 for k, v in desc[0]["routes"].items()
           if k != "duplicates_suppressed"):
    sys.exit(f"query-log smoke FAILED: the desc read's routes are all "
             f"zero: {desc[0]['routes']}")
print(f"query-log smoke: {len(lines)} records validated")
EOF5

# Durable-restart smoke: a database closed after its materialisation
# reopens clean. Session 1 loads the closure and reads it (the read
# materialises); session 2 reopens the same directory and reads again.
# Its record must show that the read ran no rules and found the same
# rows.
DURABLE_DIR="${OBS_TMP}/durable"
printf '%s\n' \
  'a[kids->>{b}].' \
  'b[kids->>{c}].' \
  'X[desc->>{Y}] <- X[kids->>{Y}].' \
  'X[desc->>{Y}] <- X..desc[kids->>{Y}].' \
  '?- a[desc->>{D}].' \
  '\quit' | \
  "${BUILD_DIR}/tools/pathlog" --durable "${DURABLE_DIR}" \
    --query-log="${OBS_TMP}/restart1.jsonl" >/dev/null
printf '%s\n' '?- a[desc->>{D}].' '\quit' | \
  "${BUILD_DIR}/tools/pathlog" --durable "${DURABLE_DIR}" \
    --query-log="${OBS_TMP}/restart2.jsonl" >/dev/null
python3 - "${OBS_TMP}/restart1.jsonl" "${OBS_TMP}/restart2.jsonl" <<'EOF8'
import json, sys

def desc_record(path):
    with open(path) as f:
        recs = [json.loads(l) for l in f.read().splitlines() if l.strip()]
    desc = [r for r in recs if r.get("query") == "?- a[desc->>{D}]."]
    if len(desc) != 1 or desc[0].get("status") != "ok":
        sys.exit(f"restart smoke FAILED: {path} holds no answered desc read")
    return desc[0]

first, second = desc_record(sys.argv[1]), desc_record(sys.argv[2])
if not first["budget"].get("derivations", 0) > 0:
    sys.exit("restart smoke FAILED: session 1's read did not materialise")
if second["budget"].get("derivations") != 0:
    sys.exit("restart smoke FAILED: the reopened session's first read made "
             f"{second['budget'].get('derivations')} derivations, not 0")
if second["rows"] != first["rows"]:
    sys.exit(f"restart smoke FAILED: {second['rows']} rows after the "
             f"reopen, {first['rows']} before")
print(f"restart smoke: reopened clean, {second['rows']} rows, 0 derivations")
EOF8

# Sessions 3 and 4: a Load stops at its first syntax error and keeps
# the clauses before it. Session 3 loads a file whose last line does
# not parse; the shell must exit non-zero and name the error's line.
# Session 4 reopens the directory; its read must return the rows the
# clauses before the error imply.
DURABLE_DIR2="${OBS_TMP}/durable2"
printf '%s\n' \
  'a[kids->>{b}].' \
  'b[kids->>{c}].' \
  'X[desc->>{Y}] <- X[kids->>{Y}].' \
  'X[desc->>{Y}] <- X..desc[kids->>{Y}].' \
  'c[kids->>{d}}.' > "${OBS_TMP}/broken.plg"
if "${BUILD_DIR}/tools/pathlog" --durable "${DURABLE_DIR2}" \
    "${OBS_TMP}/broken.plg" </dev/null >/dev/null \
    2>"${OBS_TMP}/broken.err"; then
  echo "error-rule smoke FAILED: loading broken.plg exited 0" >&2
  exit 1
fi
if ! grep -q "ParseError: line 5," "${OBS_TMP}/broken.err"; then
  echo "error-rule smoke FAILED: no ParseError naming line 5:" >&2
  cat "${OBS_TMP}/broken.err" >&2
  exit 1
fi
printf '%s\n' '?- a[desc->>{D}].' '\quit' | \
  "${BUILD_DIR}/tools/pathlog" --durable "${DURABLE_DIR2}" \
    --query-log="${OBS_TMP}/restart4.jsonl" >/dev/null
python3 - "${OBS_TMP}/restart4.jsonl" <<'EOF9'
import json, sys

with open(sys.argv[1]) as f:
    recs = [json.loads(l) for l in f.read().splitlines() if l.strip()]
desc = [r for r in recs if r.get("query") == "?- a[desc->>{D}]."]
if len(desc) != 1 or desc[0].get("status") != "ok":
    sys.exit("error-rule smoke FAILED: session 4 holds no answered desc read")
if desc[0]["rows"] != 2:
    sys.exit(f"error-rule smoke FAILED: session 4 read {desc[0]['rows']} "
             "rows, not the 2 (b, c) the clauses before the error imply")
print("error-rule smoke: the clauses before the syntax error survived, "
      "2 rows")
EOF9

echo "ci/check.sh: all checks passed"

#!/usr/bin/env python3
"""Appends perfbench runs to the benchmark ledger.

    python3 perfbench/run.py --workload all --seed 3 > run.out
    python3 tools/perfbench_ledger.py --side change run.out [more.out ...]

Each input is the standard output of perfbench/run.py: for every
workload it ran, a header line ("perfbench <workload> seed=N ..."), a
"fingerprint:" line and, last, the result JSON. Standard input is read
when no file is named. One row per run is appended to the ledger
(default bench-results/history.jsonl): the git sha, the UTC time, the
workload, seed, side and nproc, the end-to-end medians and the
fingerprint. Rows carry "ledger": "perfbench", which keeps them apart
from ci/bench_smoke.sh's rows (those have a "benchmark" key instead).

--side names what was measured ("parent" or "change" in an A/B pair,
"main" otherwise); --sha defaults to the short HEAD of the working
directory, so a run of another checkout must name its commit.
"""

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The end-to-end metrics of BENCHMARK.json; a traced run reports the
# per-layer ones instead and has none of these.
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def parse_runs(text):
    """Yields (header fields, fingerprint fields, result) per run."""
    header, fingerprint = None, None
    for line in text.splitlines():
        if line.startswith("perfbench "):
            words = line.split()
            header = {"workload": words[1]}
            header.update(w.split("=", 1) for w in words[2:] if "=" in w)
            fingerprint = None
        elif line.startswith("fingerprint:"):
            fingerprint = dict(w.split("=", 1) for w in line.split()[1:])
        elif line.startswith("{") and header is not None:
            yield header, fingerprint, json.loads(line)
            header, fingerprint = None, None


def row(header, fingerprint, result, side, sha, utc):
    metrics = result["metrics"]
    return {
        "ledger": "perfbench",
        "git_sha": sha,
        "utc": utc,
        "workload": header["workload"],
        "seed": int(header["seed"]),
        "side": side,
        "nproc": int(header.get("nproc", 0)),
        "build": header.get("build"),
        "traced": header.get("trace") == "1",
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]]["value"]
                    for m in END_TO_END if m["name"] in metrics},
        "fingerprint": {k: v if k == "snapshot_crc" else int(v)
                        for k, v in (fingerprint or {}).items()},
    }


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("inputs", nargs="*", help="run.py outputs (default stdin)")
    p.add_argument("--side", default="main")
    p.add_argument("--sha")
    p.add_argument("--ledger", default=str(ROOT / "bench-results" /
                                           "history.jsonl"))
    args = p.parse_args(argv)
    sha = args.sha or subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
        text=True, check=True).stdout.strip()
    utc = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    texts = ([Path(f).read_text() for f in args.inputs] if args.inputs
             else [sys.stdin.read()])
    rows = [row(h, fp, r, args.side, sha, utc)
            for text in texts for h, fp, r in parse_runs(text)]
    if not rows:
        sys.exit("perfbench_ledger: no perfbench run found in the input")
    with open(args.ledger, "a") as f:
        for r in rows:
            f.write(json.dumps(r, sort_keys=True) + "\n")
    print(f"perfbench_ledger: appended {len(rows)} rows to {args.ledger}")


if __name__ == "__main__":
    main(sys.argv[1:])

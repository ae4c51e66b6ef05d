#!/usr/bin/env python3
"""swarmform benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload design_dense --seed 0 --seconds 40 --trace 0

Run from the repository root. It starts one single-threaded worker process
(perfbench/worker.py) that calls `swarmform.cli.main(["pipeline", ...])`
in-process on the workload's seeded scenario until the time is up, checking
every call's outputs, and times fresh-process start-ups between iterations.

stdout: one line with the full result (samples, output digests, machine
fingerprint, problems), then, as the last line, the summary
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end ones; with --trace 1 its per_layer ones.
Both lines are also written to perfbench/.out/. --record-digests stores
this seed's output digests in perfbench/digests.json; later runs report
whether their outputs still match them ("faster, same bytes").
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORKER_TIMEOUT_S = 170.0
BLAS_ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this seed's output digests in perfbench/digests.json")
    args = ap.parse_args(argv)

    if not (SRC / "swarmform" / "cli.py").is_file():
        print(f"perfbench: no swarmform sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    out = HERE / ".out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(SRC), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    samples = doc["pipeline_s"]
    doc["pipeline_s_median"] = statistics.median(samples)
    doc["pipeline_s_samples"] = len(samples)
    tail = [p for p in (99, 95, 90, 75) if len(samples) * (100 - p) / 100 >= 10]
    if tail:
        doc[f"pipeline_s_p{tail[0]}"] = statistics.quantiles(samples, n=100)[tail[0] - 1]
    doc["failed_frac"] = doc["failed"] / doc["attempted"]

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entry = recorded.get(args.workload, {}).get(str(args.seed))
    doc["digests_match_recorded"] = None if entry is None else entry == doc["digests"]
    if args.record_digests:
        recorded.setdefault(args.workload, {})[str(args.seed)] = doc["digests"]
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    if args.trace:
        values = dict(doc["layers"], failed_frac=doc["failed_frac"])
        units = spec["per_layer"]
    else:
        values = {"pipeline_s": doc["pipeline_s_median"],
                  "setup_s": statistics.median(doc["setup_s"]),
                  "peak_rss_mb": doc["peak_rss_mb"]}
        units = spec["end_to_end"]
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 4
    summary = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    (out / "result.json").write_text(json.dumps(doc, indent=1) + "\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(doc))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark worker: runs one workload's `swarmform pipeline` iterations
in this process for a fixed time, checks every call's outputs, and prints
one JSON document on stdout.

run.py starts it with BLAS threads pinned to 1 and `src` on PYTHONPATH
(the start-up processes it times inherit both):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

With --trace 1, even iterations run with spans around the public functions
that `swarmform.cli` and `swarmform.fov` call and odd ones run bare, so the
two can be compared; the spans are written to DIR/spans.json at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BYTES_COUNTERS = {"report.json": "cli.report_bytes", "fly_trace.csv": "cli.trace_bytes"}
# One timed start-up per this much measured pipeline time, run between
# iterations: spread over the run, the start-ups see the same mix of fast
# and slow machine phases as the iterations do.
SETUP_EVERY_S = 4.0

# What one start-up does: import the CLI, parse the workload's scenario, and
# compile the rollout kernel when a JIT backend is active. It prints the
# clock when done, so process teardown is not counted.
SETUP_CODE = """
import sys, time
import swarmform.cli as cli
cli.parse_scenario(sys.argv[1])
from swarmform import kernels
if kernels.NUMBA_ENABLED:
    import numpy as np
    from swarmform.flight import ControlGains, FormationPlan, SwarmState, simulate
    simulate(SwarmState(np.eye(2, 3), np.zeros((2, 3))), FormationPlan(np.eye(2, 3)),
             "log", ControlGains(), 0.01, 0.01)
print(repr(time.perf_counter()))
"""


def setup_seconds(scenario_path: Path) -> float:
    """Seconds from spawning a fresh process to the end of its
    `import swarmform.cli` + scenario parsing (perf_counter is the
    system-wide monotonic clock)."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario_path)],
                          check=True, timeout=60, stdout=subprocess.PIPE)
    return float(done.stdout) - t0


def install(tracer: tracing.Tracer) -> None:
    """Wrap the layer boundaries: the names `swarmform.cli` and
    `swarmform.fov` look up at call time, and the rollout kernel."""
    from swarmform import cli, fov, kernels

    tracer.wrap(cli, "parse_scenario", "config.parse_scenario")
    tracer.wrap(cli, "build_candidates", "alloc.build_candidates",
                lambda t, cands: t.count("alloc.candidates", len(cands)))
    tracer.wrap(cli, "greedy_allocate", "alloc.greedy_allocate",
                lambda t, res: t.count("alloc.greedy_rounds", len(res.gains)))
    tracer.wrap(cli, "optimize_formation", "fov.optimize_formation")
    for module in (cli, fov):
        tracer.wrap(module, "coverage", "fov.coverage")
        tracer.wrap(module, "link_stats", "radio.link_stats")
    tracer.wrap(cli, "total_fim", "sensing.total_fim")
    tracer.wrap(cli, "simulate", lambda state, plan, ctrl, *a, **k: f"flight.simulate.{ctrl}",
                lambda t, traj: t.count("flight.uav_steps", traj.controls[..., 0].size))
    tracer.wrap(cli, "metrics", "flight.metrics")
    tracer.wrap(kernels, "rollout", None,
                lambda t, out: t.count("kernels.bytes_out", sum(x.nbytes for x in out)))


def call_outputs(w: workloads.Workload, code: int, out_dir: Path,
                 first: dict[str, str]) -> tuple[list[str], dict | None, dict[str, str]]:
    """Problems of one pipeline call, its parsed report (None when there is
    none to read) and its output digests."""
    if code != 0:
        return [f"exit code {code}"], None, {}
    try:
        blobs = {n: (out_dir / n).read_bytes() for n in workloads.outputs(w)}
        return workloads.check_call(w, blobs, first)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"], None, {}


def fingerprint() -> dict:
    import numpy

    from swarmform import kernels
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": kernels.NUMBA_ENABLED,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def warm_up(src: Path, out: Path, main) -> None:
    """One short pipeline call, so imports and first-call set-up are paid
    before timing starts."""
    doc = workloads.bundled(src, "paper_default")
    doc["flight"]["horizon_s"] = 0.5
    path = out / "warmup.json"
    path.write_text(json.dumps(doc))
    if main(["pipeline", "--scenario", str(path), "--out-dir", str(out / "warmup")]) != 0:
        raise RuntimeError("warm-up pipeline call failed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    from swarmform import cli

    w = workloads.WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    scenario_path = args.out / "scenario.json"
    scenario_path.write_text(json.dumps(workloads.scenario(w.name, args.seed, args.src), indent=1))
    calls = {}   # label -> (out dir, pipeline argv)
    for c in w.controllers:
        out_dir = args.out / (c or w.stage)
        calls[c or w.stage] = out_dir, workloads.pipeline_argv(w, scenario_path, out_dir,
                                                               c, args.seed)
    warm_up(args.src, args.out, cli.main)

    tracer = tracing.Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    setups: list[float] = []
    first_digests: dict[str, dict[str, str]] = {}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    longest = 0.0
    it = 0
    while True:
        t_iter = time.perf_counter()
        traced = bool(args.trace) and it % 2 == 0
        tracer.iteration = it
        codes = {}
        t0 = time.perf_counter()
        with tracer.installed(install) if traced else contextlib.nullcontext():
            for label, (_, argv) in calls.items():
                with tracer.span(tracing.ROOT) if traced else contextlib.nullcontext():
                    codes[label] = cli.main(argv)
        walls[traced].append(time.perf_counter() - t0)

        reports, bad = {}, set()
        for label, (out_dir, _) in calls.items():
            found, report, digests = call_outputs(w, codes[label], out_dir,
                                                  first_digests.get(label, {}))
            if report is not None:
                reports[label] = report
                first_digests.setdefault(label, digests)
                if traced:
                    for name, counter in BYTES_COUNTERS.items():
                        if name in digests:
                            tracer.count(counter, (out_dir / name).stat().st_size)
            if found:
                bad.add(label)
                problems += [f"iteration {it} {label}: {p}" for p in found]
        if len(reports) == len(calls):
            across = workloads.check_iteration(w, reports)
            if across:
                bad.update(reports)
                problems += [f"iteration {it}: {p}" for p in across]
        attempted += len(calls)
        failed += len(bad)
        for _ in range(max(1, round(walls[traced][-1] / SETUP_EVERY_S))):
            setups.append(setup_seconds(scenario_path))

        it += 1
        longest = max(longest, time.perf_counter() - t_iter)
        both = walls[False] and (walls[True] or not args.trace)
        if both and time.perf_counter() - start + longest > args.seconds:
            break

    doc = {
        "workload": w.name,
        "seed": args.seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "pipeline_s": walls[False],
        "pipeline_traced_s": walls[True],
        "setup_s": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": first_digests,
        "fingerprint": fingerprint(),
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_frac"] = (statistics.median(walls[True])
                                         / statistics.median(walls[False]) - 1.0)
        doc["layers"] = layers
        (args.out / "spans.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "iteration"],
            "spans": [[s.name, s.start, s.end, s.parent, s.iteration] for s in tracer.spans],
            "counters": {str(k): dict(v) for k, v in tracer.counters.items()},
        }))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

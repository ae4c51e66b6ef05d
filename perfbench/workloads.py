"""Benchmark workloads: seeded scenario documents and output checks.

Each workload is a list of `swarmform pipeline` calls made per iteration on
one scenario document that `scenario()` builds from the bundled scenarios
and the seed. The checks turn one call's outputs into a list of problems;
an empty list means the call's outputs are correct.

Why these three workloads (BENCHMARK.json gives each a one-line reason):

- design_dense: 1 degree grid, no penalties, 14 UAVs of which 10 are
  flip-gated, so the flip search is exhaustive (1,024 SINR evaluations).
  Allocation and flip search dominate; flight never runs. The SINR floor
  is set far below any link here, so every pattern is feasible and each
  one is scored for coverage. With the default floor the number of
  feasible patterns (527 or 959 of 1,024) depends on how greedy breaks
  exact ties on the symmetric 1 degree grid, which rounding in the seeded
  translation decides, and the iteration time would vary by 15% by seed.
- fly_fleet: the bundled flight benchmark (6 UAVs, moving target, 20 runs
  of 2,000 steps) flown once per controller. Many short rollouts of a
  small swarm; design is nearly free.
- swarm_wide: 10 degree grid, 48 UAVs, all flip-gated, so the flip search
  takes its steepest-ascent branch; 2 runs of 2,000 steps at n = 48, where
  per-step O(n^2) work and the 17 MB trace CSV dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

FLIP_TOL = 1e-9        # log-det and SINR slack for flip invariance
LYAPUNOV_RISE = 1e-6   # largest allowed per-step rise of V (stationary target)
TRANSLATE_M = 50.0     # seeded target translation, per axis
OPEN_FLOOR_DB = -100.0  # design_dense SINR floor: below every link


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str                          # last pipeline stage
    controllers: tuple[str | None, ...]  # one pipeline call each; None keeps the scenario's
    uavs: int                           # expected "UAV count"
    candidates: int                     # expected "Candidates"
    lyapunov_monotone: bool = False     # stationary target: V must not rise
    distance_order: tuple[str, ...] = ()  # controllers by increasing avg distance


WORKLOADS = {
    w.name: w
    for w in (
        Workload("design_dense", "formation", (None,), uavs=14, candidates=15840),
        Workload("fly_fleet", "fly", ("log", "quad", "apf"), uavs=6, candidates=288,
                 distance_order=("log", "apf", "quad")),
        Workload("swarm_wide", "fly", ("log",), uavs=48, candidates=288,
                 lyapunov_monotone=True),
    )
}


def bundled(src: Path, name: str) -> dict:
    return json.loads((src / "swarmform" / "scenarios" / f"{name}.json").read_text())


def _translated_target(doc: dict, seed: int) -> None:
    rng = random.Random(seed)
    doc["target"]["position"] = [round(rng.uniform(-TRANSLATE_M, TRANSLATE_M), 3)
                                 for _ in range(3)]


def scenario(name: str, seed: int, src: Path) -> dict:
    """The scenario document of workload `name` for `seed`; `src` is the
    directory that holds the `swarmform` package."""
    if name == "fly_fleet":
        return bundled(src, "flight_benchmark")   # the seed goes in --seed-override
    doc = bundled(src, "paper_default")
    doc["description"] = f"benchmark workload {name}, seed {seed}"
    _translated_target(doc, seed)
    doc["weights"].update(alpha_resource=0.0, alpha_cost=0.0, min_gain=0.0)
    doc["flight"]["seed"] = seed
    if name == "design_dense":
        doc["grid"].update(beta_step_deg=1.0, delta_step_deg=1.0)
        doc["weights"]["max_uavs"] = 14
        doc["fov"]["eta_min_db"] = OPEN_FLOOR_DB
    elif name == "swarm_wide":
        doc["weights"]["max_uavs"] = 48
        doc["flight"].update(controller="log", runs=2, horizon_s=20.0)
    else:
        raise KeyError(name)
    return doc


def outputs(w: Workload) -> tuple[str, ...]:
    """Files one pipeline call of `w` writes to its --out-dir."""
    return ("report.json", "fly_trace.csv") if w.stage == "fly" else ("report.json",)


def pipeline_argv(w: Workload, scenario_path: Path, out_dir: Path,
                  controller: str | None, seed: int) -> list[str]:
    argv = ["pipeline", "--scenario", str(scenario_path), "--out-dir", str(out_dir),
            "--stage", w.stage]
    if controller is not None:
        argv += ["--controller", controller]
    if w.name == "fly_fleet":
        argv += ["--seed-override", str(seed)]
    return argv


def check_report(w: Workload, report: dict) -> list[str]:
    """Problems in one call's report.json (parsed)."""
    problems = []
    alloc = report["Allocation"]
    if alloc["UAV count"] != w.uavs:
        problems.append(f"UAV count {alloc['UAV count']} != {w.uavs}")
    if alloc["Candidates"] != w.candidates:
        problems.append(f"candidate count {alloc['Candidates']} != {w.candidates}")
    before, after = report["Formation"]["Before"], report["Formation"]["After"]
    if not abs(after["log-det FIM"] - before["log-det FIM"]) <= FLIP_TOL:
        problems.append(f"flip changed log-det: {before['log-det FIM']!r} -> "
                        f"{after['log-det FIM']!r}")
    if not after["Gamma"] >= before["Gamma"]:
        problems.append(f"Gamma fell: {before['Gamma']!r} -> {after['Gamma']!r}")
    eta = report["Scenario"].get("fov", {}).get("eta_min_db", 10.0)
    floor = min(eta, before["Min. SINR (dB)"]) - FLIP_TOL
    if not after["Min. SINR (dB)"] >= floor:
        problems.append(f"min SINR {after['Min. SINR (dB)']!r} below floor {floor!r}")
    if w.stage == "fly":
        means = report["Flight"]["Mean"]
        bad = sorted(k for k, v in means.items() if not math.isfinite(v))
        if bad:
            problems.append(f"non-finite flight means: {bad}")
    return problems


def lyapunov_column(trace_csv: str) -> list[float]:
    """The V column (the last one) of a fly_trace.csv text."""
    lines = trace_csv.splitlines()
    if not lines or lines[0].rsplit(",", 1)[-1] != "V":
        raise ValueError("trace has no trailing V column")
    return [float(line.rsplit(",", 1)[1]) for line in lines[1:]]


def check_trace(w: Workload, trace_csv: str) -> list[str]:
    """Problems in one call's fly_trace.csv text."""
    if not w.lyapunov_monotone:
        return []
    v = lyapunov_column(trace_csv)
    rises = [(k, b - a) for k, (a, b) in enumerate(zip(v, v[1:])) if b - a > LYAPUNOV_RISE]
    if rises:
        k, d = max(rises, key=lambda r: r[1])
        return [f"V rose {len(rises)} times, most by {d!r} at step {k}"]
    return []


def check_call(w: Workload, blobs: dict[str, bytes],
               first_digests: dict[str, str]) -> tuple[list[str], dict, dict[str, str]]:
    """Check one call's output files (name -> bytes): returns the problems,
    the parsed report and the files' SHA-256 digests. `first_digests` are
    the same call's digests in the first iteration of the run."""
    digests = {n: hashlib.sha256(b).hexdigest() for n, b in blobs.items()}
    report = json.loads(blobs["report.json"])
    problems = check_report(w, report)
    if "fly_trace.csv" in blobs:
        problems += check_trace(w, blobs["fly_trace.csv"].decode())
    problems += [f"{n} differs from the first iteration's"
                 for n in digests if digests[n] != first_digests.get(n, digests[n])]
    return problems, report, digests


def check_iteration(w: Workload, reports: dict[str, dict]) -> list[str]:
    """Problems across the calls of one iteration, keyed by controller."""
    if not w.distance_order:
        return []
    dist = {c: reports[c]["Flight"]["Mean"]["Avg. Distance (m)"] for c in w.distance_order}
    if all(dist[a] < dist[b] for a, b in zip(w.distance_order, w.distance_order[1:])):
        return []
    return [f"avg-distance order is not {' < '.join(w.distance_order)}: {dist}"]

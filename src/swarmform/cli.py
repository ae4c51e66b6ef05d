"""Command-line surface: scenario ingestion, pipeline orchestration and
report emission.

Subcommands
-----------
allocate    stage 1 only: greedy UAV/sensor allocation
formation   stages 1-2: allocation + FOV-oriented reconfiguration
fly         stages 1-3, reporting flight metrics
pipeline    all stages, optionally truncated with --stage
eval-fim    print the regularized log-det FIM of an explicit pose list

Exit codes: 0 success, 1 usage/config error, 2 numeric or degenerate
geometry error. Reports are plain JSON (sorted keys, no timestamps) so
identical inputs produce byte-identical outputs; time series go to CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .alloc import build_candidates, greedy_allocate
from .config import Scenario, ScenarioError, parse_formation, parse_scenario
from .flight import (
    ApfParams,
    ControlGains,
    FormationPlan,
    SwarmState,
    metrics,
    simulate,
)
from .fov import coverage, ground_constrain, optimize_formation
from .geom import DegenerateGeometryError, Formation
from .radio import link_stats
from .sensing import logdet_reg, total_fim

STAGES = ("allocate", "formation", "fly")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise UsageError(message)


@contextmanager
def _write_atomic(path: Path, newline: str | None = None):
    """Yield a text handle on a temp file beside `path`. When the block
    completes the temp file replaces `path`; when it raises, the temp file
    is removed and `path` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, doc: dict) -> None:
    with _write_atomic(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _pose_doc(pose, target) -> dict:
    rel = pose.position - target
    return {
        "Sensor": pose.sensor.value,
        "Azimuth (deg)": float(np.degrees(np.arctan2(rel[1], rel[0])) % 360.0),
        "Pitch (deg)": float(np.degrees(np.arctan2(rel[2], np.hypot(rel[0], rel[1])))),
        "Position (x, y, z)": [float(v) for v in pose.position],
        "Yaw (deg)": float(np.degrees(pose.yaw)),
    }


def _formation_stats(f: Formation, scenario: Scenario) -> dict:
    cov = coverage(f, scenario.fov)
    sinr = link_stats(f, 0, scenario.radio)
    return {
        "log-det FIM": logdet_reg(total_fim(f, scenario.sensors), scenario.eps),
        "Gamma": cov.gamma_metric,
        "xi": cov.xi,
        "Uncovered directions": cov.uncovered,
        "Avg. SINR (dB)": sinr["avg_db"],
        "Min. SINR (dB)": sinr["min_db"],
    }


def _stage_allocate(scenario: Scenario) -> tuple[Formation, dict]:
    candidates = build_candidates(
        scenario.target.position, scenario.grid, scenario.weights,
        scenario.resources, scenario.sensors,
        max_boresight_pitch=scenario.fov.kappa / 2.0,
    )
    if not candidates:
        raise DegenerateGeometryError("candidate grid is empty after FOV filtering")
    result = greedy_allocate(candidates, scenario.target.position,
                             scenario.weights, scenario.eps)
    lidar = sum(1 for p in result.formation.poses if p.sensor.value == "lidar")
    doc = {
        "Members": [_pose_doc(p, result.formation.target) for p in result.formation.poses],
        "UAV count": len(result.formation),
        "Sensor mix": {"lidar": lidar, "camera": len(result.formation) - lidar},
        "log-det FIM": result.logdet,
        "Marginal gains": result.gains,
        "Net utilities": result.utilities,
        "Candidates": len(candidates),
    }
    return result.formation, doc


def _stage_formation(scenario: Scenario, allocated: Formation) -> tuple[Formation, dict]:
    before = _formation_stats(allocated, scenario)
    optimized = optimize_formation(allocated, scenario.fov, scenario.radio)
    if scenario.target.ground:
        optimized = ground_constrain(optimized, allocated.target)
    after = _formation_stats(optimized, scenario)
    doc = {
        "Before": before,
        "After": after,
        "Ground constrained": scenario.target.ground,
        "Members": [_pose_doc(p, optimized.target) for p in optimized.poses],
    }
    return optimized, doc


def _stage_fly(scenario: Scenario, formation: Formation, out_dir: Path | None,
               controller: str | None, seed: int | None) -> dict:
    fl = scenario.flight
    controller = controller or fl.controller
    seed = fl.seed if seed is None else seed
    n = len(formation)
    if n < 2:
        raise DegenerateGeometryError("flight stage needs at least 2 UAVs")
    slots = formation.positions() - formation.target
    plan = FormationPlan(slots=slots, target_position=scenario.target.position,
                         target_velocity=scenario.target.velocity)
    gains = ControlGains(k1=fl.k1, k2=fl.k2, kp=fl.kp,
                         masses=np.full(n, fl.mass_kg), leader=0)
    apf = ApfParams(ka=fl.apf_ka, kr=fl.apf_kr, d0=fl.apf_d0_m)
    half = fl.init_cube_half_width_m
    starts = [
        SwarmState(positions=scenario.target.position
                   + np.random.default_rng([seed, run]).uniform(-half, half, (n, 3)),
                   velocities=np.zeros((n, 3)))
        for run in range(fl.runs)
    ]
    traj = simulate(starts, plan, controller, gains, fl.dt_s, fl.horizon_s, apf)
    runs = [{
        "Avg. Distance (m)": m.avg_distance,
        "Avg. Velocity Err.": m.avg_vel_err,
        "Max. Velocity Err.": m.max_vel_err,
        "Avg. Final Pos. Err. (m)": m.avg_final_pos_err,
    } for m in metrics(traj)]
    mean = {k: float(np.mean([r[k] for r in runs])) for k in runs[0]}
    if out_dir is not None:
        _write_trace(out_dir / "fly_trace.csv", traj)
    return {"Controller": controller, "Seed": seed, "Runs": runs, "Mean": mean}


def _write_trace(path: Path, traj) -> None:
    """Run 0's time series: state, control and V at every step."""
    n = traj.positions.shape[1]
    header = ["t"]
    for i in range(n):
        header += [f"{axis}{i}" for axis in ("px", "py", "pz", "vx", "vy", "vz")]
    for i in range(n):
        header += [f"{axis}{i}" for axis in ("ux", "uy", "uz")]
    header.append("V")
    times = traj.times.tolist()
    lyap = traj.lyapunov[0].tolist()
    idle = [0.0] * (3 * n)  # no control after the last step
    with _write_atomic(path, newline="") as fh:
        writer = csv.writer(fh)  # writes each float as its repr
        writer.writerow(header)
        for t, time in enumerate(times):
            state = np.concatenate((traj.positions[t], traj.velocities[t]), axis=1)
            u = traj.controls[t].ravel().tolist() if t < len(traj.controls) else idle
            writer.writerow([time, *state.ravel().tolist(), *u, lyap[t]])


def _run(scenario: Scenario, last_stage: str, out_dir: Path | None,
         controller: str | None, seed: int | None) -> dict:
    report: dict = {"Scenario": scenario.raw}
    stage = "allocate"
    try:
        formation, report["Allocation"] = _stage_allocate(scenario)
        if last_stage in ("formation", "fly"):
            stage = "formation"
            formation, report["Formation"] = _stage_formation(scenario, formation)
        if last_stage == "fly":
            stage = "fly"
            report["Flight"] = _stage_fly(scenario, formation, out_dir, controller, seed)
    except Exception as exc:
        exc.stage = stage  # read by main's error message
        raise
    if out_dir is not None:
        _write_json(out_dir / "report.json", report)
    return report


def _build_parser() -> _Parser:
    parser = _Parser(prog="swarmform", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        p.add_argument("--scenario", required=scenario_required,
                       help="path to a scenario JSON document")
        p.add_argument("--out-dir", default=None, help="directory for report.json / CSV traces")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the scenario's flight seed")
        p.add_argument("--controller", choices=["log", "quad", "apf"], default=None,
                       help="replace the scenario's flight controller")

    common(sub.add_parser("allocate", help="stage 1: greedy UAV/sensor allocation"))
    common(sub.add_parser("formation", help="stages 1-2: allocation + reconfiguration"))
    common(sub.add_parser("fly", help="stages 1-3, reporting flight metrics"))
    p = sub.add_parser("pipeline", help="full pipeline with optional truncation")
    common(p)
    p.add_argument("--stage", choices=list(STAGES), default="fly",
                   help="last stage to execute (default: fly)")
    p = sub.add_parser("eval-fim", help="log-det FIM of an explicit pose list")
    p.add_argument("--formation", required=True, help="path to a formation JSON document")

    return parser


def _message(exc: Exception) -> str:
    stage = getattr(exc, "stage", None)
    return f"[stage {stage}] {exc}" if stage else str(exc)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval-fim":
            formation, sensors, eps = parse_formation(args.formation)
            print(f"{logdet_reg(total_fim(formation, sensors), eps):.6f}")
            return 0
        scenario = parse_scenario(args.scenario)
        last_stage = args.stage if args.command == "pipeline" else args.command
        out_dir = Path(args.out_dir) if args.out_dir else None
        report = _run(scenario, last_stage, out_dir, args.controller, args.seed_override)
        if out_dir is None:
            print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    except UsageError as exc:
        print(f"swarmform: error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"swarmform: config error: {_message(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an --out-dir that cannot be created or written
        print(f"swarmform: error: {_message(exc)}", file=sys.stderr)
        return 1
    except (DegenerateGeometryError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"swarmform: numeric error: {_message(exc)}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"swarmform: error: {_message(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: scenario ingestion, pipeline orchestration and
report emission. The model's rules, such as which placements are
feasible and where each flight run starts, live in the library; this
module parses, calls the stages in order and writes what they return.

Subcommands
-----------
allocate    stage 1 only: greedy UAV/sensor allocation
formation   stages 1-2: allocation + FOV-oriented reconfiguration
fly         stages 1-3, reporting flight metrics
pipeline    all stages, optionally truncated with --stage
eval-fim    print the regularized log-det FIM of an explicit pose list

Exit codes: 0 success, 1 usage/config error or out of memory, 2 numeric
or degenerate geometry error. Reports are plain JSON (sorted keys, no
timestamps) so identical inputs produce byte-identical outputs; time
series go to CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from .alloc import build_candidates, greedy_allocate
from .config import Scenario, ScenarioError, parse_formation, parse_scenario
from .flight import CONTROLLERS, cube_starts, metrics, simulate
from .fov import coverage, optimize_formation
from .geom import DegenerateGeometryError, Formation
from .radio import link_stats
from .sensing import logdet_reg, total_fim

STAGES = ("allocate", "formation", "fly")
_TRACE_VALUES = 4096  # trace values formatted per write, rounded down to whole rows


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise UsageError(message)


@contextmanager
def _write_atomic(path: Path):
    """Yield a binary handle on a temp file beside `path`. When the block
    completes the temp file replaces `path`; when it raises, the temp file
    is removed and `path` is left as it was. The file's mode follows the
    umask, as a plain `open` would give (`mkstemp`'s would be 0600)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _member_docs(f: Formation) -> list[dict]:
    return [{
        "Sensor": "lidar" if lidar else "camera",
        "Azimuth (deg)": float(np.degrees(np.arctan2(rel[1], rel[0])) % 360.0),
        "Pitch (deg)": float(np.degrees(np.arctan2(rel[2], np.hypot(rel[0], rel[1])))),
        "Position (x, y, z)": [float(v) for v in position],
        "Yaw (deg)": float(np.degrees(yaw)),
    } for position, rel, yaw, lidar in zip(f.positions, f.positions - f.target, f.yaws, f.lidar)]


def _formation_stats(f: Formation, scenario: Scenario) -> dict:
    cov = coverage(f, scenario.fov)
    sinr = link_stats(f, scenario.radio)
    return {
        "log-det FIM": logdet_reg(total_fim(f, scenario.sensors), scenario.sensors.eps),
        "Gamma": cov.gamma_metric,
        "xi": cov.xi,
        "Uncovered directions": cov.uncovered,
        "Avg. SINR (dB)": sinr["avg_db"],
        "Min. SINR (dB)": sinr["min_db"],
    }


def _stage_allocate(scenario: Scenario) -> tuple[Formation, dict]:
    candidates = build_candidates(scenario.target.position, scenario.grid, scenario.fov.kappa)
    result = greedy_allocate(candidates, scenario.weights, scenario.resources, scenario.sensors)
    lidar = int(np.count_nonzero(result.formation.lidar))
    doc = {
        "Members": _member_docs(result.formation),
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
    optimized = optimize_formation(allocated, scenario.fov, scenario.radio,
                                   ground=scenario.target.ground)
    after = _formation_stats(optimized, scenario)
    doc = {
        "Before": before,
        "After": after,
        "Ground constrained": scenario.target.ground,
        "Members": _member_docs(optimized),
    }
    return optimized, doc


def _stage_fly(scenario: Scenario, formation: Formation, out_dir: Path | None) -> dict:
    fl = scenario.flight
    start = cube_starts(formation, fl.init_cube_half_width_m, fl.seed, fl.runs)
    traj = simulate(start, formation, fl.controller, fl.gains,
                    scenario.target.velocity, fl.dt_s, fl.horizon_s)
    m = metrics(traj)
    columns = {
        "Avg. Distance (m)": m.avg_distance,
        "Avg. Velocity Err.": m.avg_vel_err,
        "Max. Velocity Err.": m.max_vel_err,
        "Avg. Final Pos. Err. (m)": m.avg_final_pos_err,
    }
    runs = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    mean = {k: float(np.mean(c)) for k, c in columns.items()}
    if out_dir is not None:
        _write_trace(out_dir / "fly_trace.csv", traj)
    return {"Controller": fl.controller, "Seed": fl.seed, "Runs": runs, "Mean": mean}


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


def _write_rows(fh, traj, starts: range) -> None:
    """Write run 0's rows to the binary `fh`, `starts.step` rows from each of `starts`."""
    from .floatrepr import repr_rows   # on first use: a run without a trace never loads it
    n = traj.positions.shape[1]
    for lo in starts:
        block = slice(lo, lo + starts.step)
        state = np.concatenate((traj.positions[block], traj.velocities[block]), axis=2)
        state = state.reshape(-1, 6 * n)
        u = traj.controls[block].reshape(-1, 3 * n)
        if len(u) < len(state):  # no control after the last step
            u = np.vstack((u, np.zeros((1, 3 * n))))
        table = np.column_stack((traj.times[block], state, u, traj.lyapunov[0, block]))
        fh.write(repr_rows(table))


def _write_trace(path: Path, traj) -> None:
    """Run 0's time series as CSV, one row per step from t = 0 on.

    Columns: `t`; then `px{i} py{i} pz{i} vx{i} vy{i} vz{i}` for each
    member i; then `ux{i} uy{i} uz{i}` for each member; then `V`. The last
    row's controls are 0.0, as no step follows it. Each float is written
    as its Python `repr` and each line ends in `\r\n`: `floatrepr.repr_rows`
    makes those bytes for a whole block of rows in NumPy (Schubfach's
    shortest digits, then `repr`'s layout), with no Python call per value.
    A block is as many whole rows as fit in `_TRACE_VALUES` values (at
    least one), so memory does not grow with the horizon or the swarm.

    The blocks are split into one contiguous range per CPU this process may
    run on, never more ranges than blocks: formatting is still the bulk of
    the write, and one writer for every range is slower on a wide swarm.
    Where `os.fork` exists (POSIX), a forked writer formats each range
    after the first into its own unnamed temporary file, while this process
    writes the header and the first range; the parts are then appended in
    order. Where it does not, one writer formats every range. The bytes do
    not depend on the number of writers. A writer that fails fails the whole
    write (`OSError`), and no writer process or part file outlives this call.
    """
    rows, n = traj.positions.shape[:2]
    header = ["t"]
    for i in range(n):
        header += [f"{axis}{i}" for axis in ("px", "py", "pz", "vx", "vy", "vz")]
    for i in range(n):
        header += [f"{axis}{i}" for axis in ("ux", "uy", "uz")]
    header.append("V")
    starts = range(0, rows, max(1, _TRACE_VALUES // len(header)))
    writers = min(_cpus() if hasattr(os, "fork") else 1, len(starts))
    ranges = [starts[len(starts) * k // writers:len(starts) * (k + 1) // writers]
              for k in range(writers)]
    parts, pids = [], []   # parts[k] and pids[k] belong to ranges[k + 1]
    with _write_atomic(path) as fh:
        try:
            for part_rows in ranges[1:]:
                parts.append(tempfile.TemporaryFile(dir=path.parent))
                # Safe although a BLAS thread may be running here (Python 3.12+
                # warns of forking a threaded process): the child calls no
                # BLAS routine, it only slices the trajectory, formats rows
                # and writes them to its own part.
                pid = os.fork()
                if pid == 0:
                    try:   # never return into the caller, nor flush its buffers
                        _write_rows(parts[-1], traj, part_rows)
                        parts[-1].flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                pids.append(pid)
            fh.write((",".join(header) + "\r\n").encode())
            _write_rows(fh, traj, ranges[0])
            for k, part in enumerate(parts):
                status = os.waitpid(pids[k], 0)[1]
                pids[k] = None
                if status != 0:
                    raise OSError("a trace writer process failed with exit status "
                                  f"{os.waitstatus_to_exitcode(status)}")
                part.seek(0)
                shutil.copyfileobj(part, fh)
        finally:
            for pid in pids:
                if pid is not None:
                    os.waitpid(pid, 0)
            for part in parts:
                part.close()


def _run(scenario: Scenario, last_stage: str, out_dir: Path | None) -> dict:
    report: dict = {"Scenario": scenario.raw}
    stage = "allocate"
    try:
        formation, report["Allocation"] = _stage_allocate(scenario)
        if last_stage in ("formation", "fly"):
            stage = "formation"
            formation, report["Formation"] = _stage_formation(scenario, formation)
        if last_stage == "fly":
            stage = "fly"
            report["Flight"] = _stage_fly(scenario, formation, out_dir)
    except Exception as exc:
        exc.stage = stage  # read by main's error message
        raise
    return report


@cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: `main` may be called
    many times in one process, and each `parse_args` fills a new namespace."""
    parser = _Parser(prog="swarmform", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text: str) -> int:   # named for argparse's "invalid seed value" message
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return int(text)

    def common(p):
        p.add_argument("--scenario", required=True, help="path to a scenario JSON document")
        p.add_argument("--out-dir", default=None, help="directory for report.json / CSV traces")
        p.add_argument("--seed-override", type=seed, default=None,
                       help="replace the scenario's flight seed (>= 0)")
        p.add_argument("--controller", choices=list(CONTROLLERS), default=None,
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
    text = str(exc) or type(exc).__name__   # a bare MemoryError() has no text
    return f"[stage {stage}] {text}" if stage else text


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval-fim":
            formation, sensors = parse_formation(args.formation)
            print(f"{logdet_reg(total_fim(formation, sensors), sensors.eps):.6f}")
            return 0
        scenario = parse_scenario(args.scenario)
        fl = scenario.flight
        # replace() checks the overridden flight record as parsing did
        scenario = replace(scenario, flight=replace(
            fl, controller=args.controller or fl.controller,
            seed=fl.seed if args.seed_override is None else args.seed_override))
        last_stage = args.stage if args.command == "pipeline" else args.command
        out_dir = Path(args.out_dir) if args.out_dir else None
        report = _run(scenario, last_stage, out_dir)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if out_dir is None:
            sys.stdout.write(text)
        else:
            with _write_atomic(out_dir / "report.json") as fh:
                fh.write(text.encode())
        return 0
    except UsageError as exc:
        print(f"swarmform: error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"swarmform: config error: {_message(exc)}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:  # e.g. an unwritable --out-dir, a too-wide swarm
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

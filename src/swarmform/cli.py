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
from contextlib import contextmanager, nullcontext
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
_TRACE_VALUES = 16384  # trace values formatted per write, rounded down to whole rows
_BACKLOG = 2  # messages of rows the streaming trace writer may hold unacknowledged


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
    trace = None if out_dir is None else out_dir / "fly_trace.csv"
    streamed = trace is not None and hasattr(os, "fork") and _cpus() > 1
    with _trace_stream(trace, len(formation), fl.dt_s) if streamed else nullcontext() as on_block:
        traj = simulate(start, formation, fl.controller, fl.gains,
                        scenario.target.velocity, fl.dt_s, fl.horizon_s, on_block)
        m = metrics(traj)
    if trace is not None and not streamed:
        _write_trace(trace, traj)
    columns = {
        "Avg. Distance (m)": m.avg_distance,
        "Avg. Velocity Err.": m.avg_vel_err,
        "Max. Velocity Err.": m.max_vel_err,
        "Avg. Final Pos. Err. (m)": m.avg_final_pos_err,
    }
    runs = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    mean = {k: float(np.mean(c)) for k, c in columns.items()}
    return {"Controller": fl.controller, "Seed": fl.seed, "Runs": runs, "Mean": mean}


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


def _header(n: int) -> bytes:
    """The trace's header line for n members."""
    header = ["t"]
    for i in range(n):
        header += [f"{axis}{i}" for axis in ("px", "py", "pz", "vx", "vy", "vz")]
    for i in range(n):
        header += [f"{axis}{i}" for axis in ("ux", "uy", "uz")]
    header.append("V")
    return (",".join(header) + "\r\n").encode()


def _chunk(n: int) -> int:
    """The trace rows formatted per write for n members: as many whole rows
    as fit in `_TRACE_VALUES` values, at least one."""
    return max(1, _TRACE_VALUES // (9 * n + 2))


def _tables(times, P, V, U, lyap0, lo: int, hi: int):
    """Trace rows lo to hi as float tables of `_chunk(n)` rows each, from
    run 0's history P, V (steps+1, n, 3), U (steps, n, 3), its Lyapunov
    trace lyap0 and the times of its states."""
    n = P.shape[1]
    step = _chunk(n)
    for a in range(lo, hi, step):
        block = slice(a, min(a + step, hi))
        state = np.concatenate((P[block], V[block]), axis=2).reshape(-1, 6 * n)
        u = U[block].reshape(-1, 3 * n)
        if len(u) < len(state):  # no control after the last step
            u = np.vstack((u, np.zeros((1, 3 * n))))
        yield np.column_stack((times[block], state, u, lyap0[block]))


def _format_rows(out, times, P, V, U, lyap0, lo: int, hi: int) -> None:
    """Write the text of trace rows lo to hi (see `_tables`) to the binary `out`."""
    from .floatrepr import repr_rows   # on first use: a run without a trace never loads it
    for table in _tables(times, P, V, U, lyap0, lo, hi):
        out.write(repr_rows(table))


def _write_trace(path: Path, traj) -> None:
    """Run 0's time series as CSV, one row per step from t = 0 on.

    Columns: `t`; then `px{i} py{i} pz{i} vx{i} vy{i} vz{i}` for each
    member i; then `ux{i} uy{i} uz{i}` for each member; then `V`. The last
    row's controls are 0.0, as no step follows it. Each float is written
    as its Python `repr` and each line ends in `\r\n`: `floatrepr.repr_rows`
    makes those bytes for a whole block of rows in NumPy (Schubfach's
    shortest digits, then `repr`'s layout), with no Python call per value.
    A block is `_chunk(n)` rows, so memory does not grow with the horizon
    or the swarm.

    This is the inline writer: it formats every row after the flight.
    Where a second CPU and `os.fork` are at hand the CLI streams the same
    bytes during the flight instead (`_trace_stream`).
    """
    with _write_atomic(path) as fh:
        fh.write(_header(traj.positions.shape[1]))
        _format_rows(fh, traj.times, traj.positions, traj.velocities, traj.controls,
                     traj.lyapunov[0], 0, len(traj.times))


def _format_spooled(spool: int, out, lo: int, hi: int, n: int) -> None:
    """Write the text of rows lo to hi of the raw trace table in the file
    `spool` to the binary `out`, `_chunk(n)` rows per write."""
    from .floatrepr import repr_rows
    row_bytes, step = 8 * (9 * n + 2), _chunk(n)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        raw = os.pread(spool, (b - a) * row_bytes, a * row_bytes)
        out.write(repr_rows(np.frombuffer(raw).reshape(b - a, -1)))


def _serve_writer(rows_fd: int, acks_fd: int, spool: int, fh, n: int) -> None:
    """The forked writer's loop: each message on `rows_fd` hands it the
    spooled rows up to a row number; it appends their text to `fh` and
    acknowledges with one byte on `acks_fd`, until `rows_fd` ends."""
    done = 0
    # each message is one 8-byte write, which a pipe never splits
    while message := os.read(rows_fd, 8):
        end = int.from_bytes(message, "little")
        _format_spooled(spool, fh, done, end, n)
        done = end
        os.write(acks_fd, b"\0")
    fh.flush()


@contextmanager
def _trace_stream(path: Path, n: int, dt: float):
    """Write the trace of an n-member flight of step `dt` to `path` while it
    flies: yield the `on_block` hook to pass to `simulate`. The bytes are
    `_write_trace`'s.

    Before the flight one writer process is forked. During the flight the
    hook hands the writer the rows that have become final, `_chunk(n)` rows
    to a message, while it holds fewer than `_BACKLOG` unacknowledged
    messages: it appends them, as raw floats, to an unnamed spool file the
    two processes share, and sends their end. Other rows wait in the
    rollout's arrays, so the flight never waits for the writer, and the
    writer never holds more than `_BACKLOG` messages. The writer formats
    the rows handed to it, in order, straight after the header in the
    output. When the block ends, the writer is handed the next rows, so
    that with the messages it still holds it has half of the rows left,
    and this process formats the rest into a part file of its own while
    the writer works; once the writer has exited, the part is appended.
    So the file is the header, the writer's rows, then this process's,
    whatever the schedule. If anything fails, in the block, in the writer
    or here, the writer is killed and reaped and no file is left; a
    writer's failure raises `OSError`.
    """
    with _write_atomic(path) as fh, tempfile.TemporaryFile(dir=path.parent) as spool:
        fh.write(_header(n))
        fh.flush()
        rows_r, rows_w = os.pipe()
        acks_r, acks_w = os.pipe()
        pid = None
        try:
            # Safe although a BLAS thread may be running here (Python 3.12+
            # warns of forking a threaded process): the writer calls no BLAS
            # routine, it only reads the spool, formats rows and writes them.
            pid = os.fork()
            if pid == 0:
                try:   # never return into the caller, nor flush its buffers
                    os.close(rows_w)
                    _serve_writer(rows_r, acks_w, spool.fileno(), fh, n)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(acks_w)   # so that the writer's exit ends the acknowledgements
            acks_w = None
            os.set_blocking(acks_r, False)
            history = None   # (times, P, V, U, lyap0) of the flight
            final = handed = unacked = 0
            step = _chunk(n)

            def writer_error() -> OSError | None:
                """Reap the writer: the error its exit status makes, if any."""
                nonlocal pid
                status, pid = os.waitpid(pid, 0)[1], None
                code = os.waitstatus_to_exitcode(status)
                return OSError(f"a trace writer process failed with exit status {code}") \
                    if code else None

            def read_acks() -> None:
                nonlocal unacked
                try:
                    acks = os.read(acks_r, 4096)
                    if not acks:   # end of file: the writer has exited
                        raise writer_error()
                    unacked -= len(acks)
                except BlockingIOError:   # no acknowledgement since the last one read
                    pass

            def hand_over(end: int) -> None:
                nonlocal handed, unacked
                for table in _tables(*history, handed, end):
                    spool.write(table)
                spool.flush()
                os.write(rows_w, end.to_bytes(8, "little"))
                handed, unacked = end, unacked + 1

            def on_block(s, P, V, U, lyap):
                nonlocal history, final
                if history is None:
                    history = (dt * np.arange(len(P)), P, V, U, lyap[0])
                if s == len(P) - 1:   # the last row waits for no control; the rest is split
                    final = len(P)
                    return
                final = s
                if final - handed < step:
                    return
                read_acks()
                while unacked < _BACKLOG and final - handed >= step:
                    hand_over(handed + step)

            yield on_block
            # the writer still holds `unacked` messages of `step` rows: it is
            # handed half of what is left beyond them
            read_acks()
            mid = handed + max(0, (final - handed - unacked * step) // 2)
            if mid > handed:
                hand_over(mid)
            os.close(rows_w)   # the writer exits once it has formatted what it holds
            rows_w = None
            with tempfile.TemporaryFile(dir=path.parent) as part:
                _format_rows(part, *history, mid, final)
                error = writer_error()
                if error:
                    raise error
                fh.seek(0, os.SEEK_END)
                part.seek(0)
                shutil.copyfileobj(part, fh)
        finally:
            if pid:
                from signal import SIGKILL   # on failure only: start-up never loads it
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            for fd in (rows_r, rows_w, acks_r, acks_w):
                if fd is not None:
                    os.close(fd)


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

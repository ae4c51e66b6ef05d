import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import swarmform
from conftest import slotted
from oracles import write_trace_csv
from swarmform import cli, kernels
from swarmform.cli import main
from swarmform.config import ScenarioError, parse_scenario
from swarmform.flight import ControlGains, cube_starts, metrics, simulate


def scenario(name):
    return str(resources.files("swarmform") / "scenarios" / name)


@dataclass(frozen=True)
class Scaled:
    """A leaf's numbers times `factor`, a list's item by item; other values are kept."""

    factor: float

    def of(self, value):
        if isinstance(value, list):
            return [self.of(v) for v in value]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return value * self.factor if number else value


def mutated(directory, changes, name="paper_default.json"):
    """The path of a copy, in `directory`, of the bundled scenario `name` with
    the leaves named by the dotted keys of `changes` ("target.velocity.0" is a
    list item) replaced by their values, or scaled by a `Scaled` value."""
    doc = json.loads(Path(scenario(name)).read_text())
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        node = doc
        for key in parents:
            node = node[int(key) if isinstance(node, list) else key]
        key = int(leaf) if isinstance(node, list) else leaf
        node[key] = value.of(node[key]) if isinstance(value, Scaled) else value
    p = Path(directory) / f"mutated_{name}"
    p.write_text(json.dumps(doc))
    return str(p)


def _assert_reaped():
    with pytest.raises(ChildProcessError):   # no writer process is left
        os.waitpid(-1, os.WNOHANG)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out-dir", str(out)])
    report = out / "report.json"
    return code, json.loads(report.read_text()) if report.exists() else None


class TestAllocate:
    def test_allocation_report(self, tmp_path):
        code, report = run(tmp_path, "allocate", "--scenario", scenario("paper_default.json"))
        assert code == 0
        alloc = report["Allocation"]
        assert alloc["UAV count"] == 6
        assert alloc["Sensor mix"] == {"lidar": 2, "camera": 4}
        assert alloc["log-det FIM"] == pytest.approx(16.482, abs=1e-2)
        assert "Formation" not in report and "Flight" not in report

    def test_stage_gating_matches_subcommand(self, tmp_path):
        code, report = run(tmp_path, "pipeline", "--scenario",
                           scenario("paper_default.json"), "--stage", "allocate")
        assert code == 0
        assert "Formation" not in report and "Flight" not in report


class TestFormation:
    def test_coverage_and_sinr_improve(self, tmp_path):
        code, report = run(tmp_path, "formation", "--scenario", scenario("paper_default.json"))
        assert code == 0
        before, after = report["Formation"]["Before"], report["Formation"]["After"]
        assert after["Gamma"] > before["Gamma"]
        assert after["Min. SINR (dB)"] > before["Min. SINR (dB)"]
        assert after["log-det FIM"] == pytest.approx(before["log-det FIM"], abs=1e-6)
        # greedy and the report score with one function
        assert report["Allocation"]["log-det FIM"] == before["log-det FIM"]

    def test_ground_scenario_upper_half_space(self, tmp_path):
        code, report = run(tmp_path, "formation", "--scenario", scenario("paper_ground.json"))
        assert code == 0
        assert report["Formation"]["Ground constrained"]
        zs = [m["Position (x, y, z)"][2] for m in report["Formation"]["Members"]]
        assert min(zs) >= 0.0


class TestFly:
    def test_metrics_and_trace(self, tmp_path):
        code, report = run(tmp_path, "fly", "--scenario", scenario("paper_default.json"))
        assert code == 0
        mean = report["Flight"]["Mean"]
        assert set(mean) == {"Avg. Distance (m)", "Avg. Velocity Err.",
                             "Max. Velocity Err.", "Avg. Final Pos. Err. (m)"}
        trace = tmp_path / "out" / "fly_trace.csv"
        header = trace.read_text().splitlines()[0].split(",")
        assert header[0] == "t" and header[-1] == "V"

    def test_controller_and_seed_override(self, tmp_path):
        code, report = run(tmp_path, "fly", "--scenario", scenario("paper_default.json"),
                           "--controller", "quad", "--seed-override", "7")
        assert code == 0
        assert report["Flight"]["Controller"] == "quad"
        assert report["Flight"]["Seed"] == 7

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="digest recorded with NumPy 2")
    def test_overrides_keep_the_report_bytes(self, tmp_path):
        # the overrides build a new, checked flight record; the report is the
        # one the overrides wrote into the parsed record before it was frozen
        out = tmp_path / "out"
        assert main(["fly", "--scenario", scenario("flight_benchmark.json"), "--controller",
                     "quad", "--seed-override", "7", "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == "4e3597bcf141d88720a0c3b051e9db47295a51707de614b4ec7821d80011bbe4"

    @pytest.mark.parametrize("controller", ["log", "quad", "apf"])
    def test_library_calls_reproduce_the_runs(self, capsys, controller):
        # the CLI only orchestrates: the library's stages, start builder,
        # rollout and metrics on the parsed scenario give its Runs rows
        path = scenario("flight_benchmark.json")
        assert main(["fly", "--scenario", path, "--controller", controller,
                     "--seed-override", "0"]) == 0
        reported = json.loads(capsys.readouterr().out)["Flight"]["Runs"]
        s = parse_scenario(path)
        allocated, _ = cli._stage_allocate(s)
        formation, _ = cli._stage_formation(s, allocated)
        fl = s.flight
        start = cube_starts(formation, fl.init_cube_half_width_m, 0, fl.runs)
        m = metrics(simulate(start, formation, controller, fl.gains, s.target.velocity,
                             fl.dt_s, fl.horizon_s))
        assert reported == [
            {"Avg. Distance (m)": d, "Avg. Velocity Err.": av, "Max. Velocity Err.": mv,
             "Avg. Final Pos. Err. (m)": fe}
            for d, av, mv, fe in zip(m.avg_distance.tolist(), m.avg_vel_err.tolist(),
                                     m.max_vel_err.tolist(), m.avg_final_pos_err.tolist())]

    def test_negative_seed_override_is_a_usage_error(self, tmp_path, capsys):
        # refused before any stage runs, as a negative flight.seed is
        out = tmp_path / "out"
        assert main(["fly", "--scenario", scenario("paper_default.json"),
                     "--seed-override", "-5", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("swarmform: error: argument --seed-override: "
                                "must be >= 0, got -5\n")
        assert captured.out == "" and not out.exists()

    def test_mean_rounded_above_max_is_consistent(self, tmp_path):
        # one step of 1e-20 s: all 12 velocity errors are 0.1, and their
        # float mean rounds to 0.10000000000000002 (NumPy 2.4), above the max
        p = mutated(tmp_path, {"target.velocity": [0.1, 0.0, 0.0], "flight.dt_s": 1e-20,
                               "flight.horizon_s": 1e-20})
        code, report = run(tmp_path, "fly", "--scenario", p)
        assert code == 0
        mean = report["Flight"]["Mean"]
        assert mean["Max. Velocity Err."] == 0.1
        assert mean["Avg. Velocity Err."] == pytest.approx(0.1, rel=1e-15)

    def test_apf_constants_reach_the_law(self, tmp_path, monkeypatch):
        # flight.apf is read into the one ControlGains the rollout flies with
        real_simulate = cli.simulate
        flown = []

        def recording(start, formation, controller, gains, *args):
            flown.append(gains)
            return real_simulate(start, formation, controller, gains, *args)

        monkeypatch.setattr(cli, "simulate", recording)
        flights = {}
        for name, apf in (("default", {}), ("custom", {"ka": 2.5, "kr": 7.0, "d0_m": 3.0})):
            p = mutated(tmp_path, {"flight.horizon_s": 2.0, "flight.apf": apf})
            code, report = run(tmp_path / name, "fly", "--scenario", p, "--controller", "apf")
            assert code == 0
            flights[name] = report["Flight"]
        default, custom = flown
        assert (default.ka, default.kr, default.d0) == (10.0, 5.0, 2.0)
        assert (custom.ka, custom.kr, custom.d0) == (2.5, 7.0, 3.0)
        assert flights["custom"] != flights["default"]

    def test_one_uav_stops_before_flight(self, tmp_path, capsys):
        assert main(["fly", "--scenario", mutated(tmp_path, {"weights.max_uavs": 1})]) == 2
        assert capsys.readouterr().err == ("swarmform: error: [stage formation] "
                                           "link statistics need at least two members\n")


class TestFarOutPoses:
    """Beyond about 1.3e154 m a squared LiDAR range overflows. The range
    row of its FIM then silently became 0: one LiDAR at 1e160 m printed
    the empty formation's 3 ln(eps), and a grid at 1e160 m allocated no
    UAV, both with exit 0. A camera at 1 m depth whose target lies 1e160 m
    to the side of its boresight has Jacobian entries whose squares
    overflow: its FIM printed inf after a RuntimeWarning, with exit 0. Two
    cameras at 1.5e152 m off boresight have finite FIMs whose sum
    overflows, which printed inf the same way."""

    @staticmethod
    def eval_fim(tmp_path, capsys, poses, code, out):
        p = tmp_path / "far.json"
        p.write_text(json.dumps({"poses": poses}))
        assert main(["eval-fim", "--formation", str(p)]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        if code:
            assert captured.err.startswith("swarmform: numeric error: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("x, code, out", [(1e150, 0, "-23.025851\n"), (1e160, 2, "")])
    def test_eval_fim_lidar(self, tmp_path, capsys, x, code, out):
        self.eval_fim(tmp_path, capsys, [{"position": [x, 0.0, 0.0], "sensor": "lidar"}],
                      code, out)

    @pytest.mark.parametrize("y, code, out", [(1e150, 0, "693.564176\n"), (1e160, 2, "")])
    def test_eval_fim_camera_off_boresight(self, tmp_path, capsys, y, code, out):
        self.eval_fim(tmp_path, capsys,
                      [{"position": [1.0, y, 0.0], "sensor": "camera", "yaw_deg": 0.0}], code, out)

    @pytest.mark.parametrize("copies, code, out", [(1, 0, "703.585447\n"), (2, 2, "")])
    def test_eval_fim_total_overflows(self, tmp_path, capsys, copies, code, out):
        # each camera's FIM is finite, but two of them sum past the float range
        self.eval_fim(tmp_path, capsys, [{"position": [1.0, 1.5e152, 0.0], "sensor": "camera",
                                          "yaw_deg": 0.0}] * copies, code, out)

    # the grid must lie within perception range
    def test_allocate_grid_at_1e150(self, tmp_path):
        p = mutated(tmp_path, {"grid.distance_m": 1e150, "fov.d_max_m": 1e150})
        code, report = run(tmp_path, "allocate", "--scenario", p)
        assert code == 0
        assert report["Allocation"]["Sensor mix"] == {"lidar": 3, "camera": 0}

    def test_allocate_grid_at_1e160(self, tmp_path):
        p = mutated(tmp_path, {"grid.distance_m": 1e160, "fov.d_max_m": 1e160})
        check_contract(p, "allocate", numeric_error=True)


# sha256 of the bundled scenarios' outputs, keyed by (command, scenario);
# a command such as "fly-quad" names its controller, a bare one flies log. The
# first three were recorded before the candidate set became a `Formation`,
# the flight_benchmark ones before `simulate` took the designed `Formation`
# (that scenario's seed is 0, so they equal perfbench's fly_fleet at seed
# 0). Any change to these bytes must be deliberate.
PINNED_OUTPUTS = {
    ("formation", "paper_default.json"): {
        "report.json": "f6ff23b0efff1ae1d1c2df106528644c7dbc3111d81b4724e5ed2f6e295649a0",
    },
    ("formation", "paper_ground.json"): {
        "report.json": "b65d3cc823b469cce0b419f2b84b65cba180b38991184b0a2cb642cbcd85e84d",
    },
    ("fly", "paper_default.json"): {
        "report.json": "6ee4e3082a19ad1a78391602139222f51663503406924d375988073d6a09bc77",
        "fly_trace.csv": "3fc782d468fe31253f8b81c2d3642e62d8abf23de9ed617a259e4a0e04b79b3a",
    },
    ("fly", "flight_benchmark.json"): {
        "report.json": "dc6c9569597546753a564a3bf167b04134f938aeab481a84c5b03416357db92b",
        "fly_trace.csv": "ba06543dcf9215be1964198c97b27b2334f21e85a7e8d96045531bde0984a3b3",
    },
    ("fly-quad", "flight_benchmark.json"): {
        "report.json": "6374a48d646851161091bf4177118a50f97c13c6dada451be23e35096ed23e32",
        "fly_trace.csv": "f6a7263665dc0212bebd749cc399c342b5469dda10251cff407c9755066ea40b",
    },
    ("fly-apf", "flight_benchmark.json"): {
        "report.json": "e5b40001cfa0876f993d5e809d5af6549343d4ebcaaa65a8ad7f2d77dc0e3052",
        "fly_trace.csv": "f7d2f908abbf21d1836c14f9397d1d7d48e281b42c7d23a0e141ba26e36e53c3",
    },
}


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="digests recorded with NumPy 2")
@pytest.mark.parametrize("command, name", sorted(PINNED_OUTPUTS))
def test_output_bytes_pinned(tmp_path, command, name):
    subcommand, _, controller = command.partition("-")
    out = tmp_path / "out"
    assert main([subcommand, "--scenario", scenario(name), "--controller", controller or "log",
                 "--out-dir", str(out)]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in PINNED_OUTPUTS[command, name]}
    assert digests == PINNED_OUTPUTS[command, name]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="digests recorded with NumPy 2")
@pytest.mark.parametrize("command, name", sorted(key for key, files in PINNED_OUTPUTS.items()
                                                 if "fly_trace.csv" in files))
def test_trace_bytes_pinned_for_every_writer_count(tmp_path, monkeypatch, command, name):
    # one CPU takes the inline writer, two the streaming one where os.fork exists
    subcommand, _, controller = command.partition("-")
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / str(cpus)
        assert main([subcommand, "--scenario", scenario(name), "--controller",
                     controller or "log", "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "fly_trace.csv").read_bytes()).hexdigest()
        assert digest == PINNED_OUTPUTS[command, name]["fly_trace.csv"], cpus


class TestPipelineDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        main(["pipeline", "--scenario", scenario("paper_default.json"),
              "--out-dir", str(tmp_path / "a")])
        main(["pipeline", "--scenario", scenario("paper_default.json"),
              "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "report.json").read_bytes() \
            == (tmp_path / "b" / "report.json").read_bytes()


class TestEvalFim:
    def test_reference_formation_value(self, capsys):
        assert main(["eval-fim", "--formation", scenario("reference_formation.json")]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(16.482, abs=1e-2)

    def test_empty_formation(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text('{"poses": []}')
        assert main(["eval-fim", "--formation", str(p)]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(3 * np.log(1e-6), abs=1e-3)

    def test_doubled_formation_bound(self, tmp_path, capsys):
        doc = json.loads((resources.files("swarmform") / "scenarios"
                          / "reference_formation.json").read_text())
        doc["poses"] = doc["poses"] * 2
        p = tmp_path / "doubled.json"
        p.write_text(json.dumps(doc))
        main(["eval-fim", "--formation", scenario("reference_formation.json")])
        single = float(capsys.readouterr().out)
        main(["eval-fim", "--formation", str(p)])
        doubled = float(capsys.readouterr().out)
        assert single < doubled <= single + 3 * np.log(2.0) + 1e-6


def test_main_parses_each_argv_alone(tmp_path, monkeypatch, capsys):
    """`main` builds its parser once per process, and each call's options
    come from its own argv: two subcommands back to back, then a usage error."""
    runs = []
    monkeypatch.setattr(cli, "_run", lambda scenario, last_stage, out_dir:
                        runs.append((scenario.flight, last_stage, out_dir)) or {})
    path = scenario("paper_default.json")
    assert main(["fly", "--scenario", path, "--seed-override", "7", "--controller", "apf",
                 "--out-dir", str(tmp_path)]) == 0
    assert main(["pipeline", "--scenario", path, "--stage", "allocate"]) == 0
    assert main(["formation"]) == 1
    flight = parse_scenario(path).flight
    assert [(f.seed, f.controller, stage, out) for f, stage, out in runs] \
        == [(7, "apf", "fly", tmp_path), (flight.seed, flight.controller, "allocate", None)]
    assert capsys.readouterr().err \
        == "swarmform: error: the following arguments are required: --scenario\n"
    assert cli._build_parser() is cli._build_parser()


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["allocate"]) == 1  # missing --scenario

    def test_unknown_subcommand(self):
        assert main(["explode"]) == 1

    def test_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"flight": {"seed": 0}, "what": 1}')
        assert main(["allocate", "--scenario", str(p)]) == 1
        assert "what" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["allocate", "--scenario", "/nonexistent.json"]) == 1

    # a grid outside the vertical FOV leaves no candidates; a 1e10 px focal
    # length, or a 0.1 mm grid, gives candidate FIMs whose rounding exceeds
    # eps, so greedy's first round meets an F + eps*I that is not positive
    # definite, which it used to rank by |det|; at a 3.8e152 px focal length
    # greedy's screen tables overflowed, and a RuntimeWarning came first
    @pytest.mark.parametrize("changes", [
        {"grid.delta_min_deg": 80.0, "grid.delta_max_deg": 100.0},
        {"sensors.fx": 1e10, "sensors.fy": 1e10},
        {"grid.distance_m": 1e-4},
        {"sensors.fx": 3.8e152},
    ], ids=["empty-grid", "sensors.fx-fy-1e10", "grid.distance_m-1e-4", "sensors.fx-3.8e152"])
    def test_numeric_error(self, tmp_path, changes):
        check_contract(mutated(tmp_path, changes), "allocate", numeric_error=True)

    # JSON admits NaN, Infinity and integers no float holds; each used to
    # run on (a NaN SINR floor flips nothing, a NaN eps reports a NaN
    # log-det) or die with an OverflowError traceback (infinite horizon)
    @pytest.mark.parametrize("path,value", [
        ("fov.eta_min_db", float("nan")),
        ("sensors.eps", float("nan")),
        ("radio.noise_dbm", float("nan")),
        ("fov.lambda_per_m", float("nan")),
        ("weights.min_gain", float("nan")),
        ("flight.horizon_s", float("inf")),
        pytest.param("grid.distance_m", 10 ** 400, id="grid.distance_m-10**400"),
        ("target.position", [0.0, -float("inf"), 0.0]),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, path, value):
        out = tmp_path / "out"
        assert main(["pipeline", "--scenario", mutated(tmp_path, {path: value}),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"swarmform: config error: {path}: expected ")
        assert "finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc,path", [
        ({"target": [0.0, float("nan"), 0.0], "poses": []}, "target"),
        ({"poses": [{"position": [10.0, 0.0, 0.0], "sensor": "camera",
                     "yaw_deg": float("inf")}]}, "poses[0].yaw_deg"),
        ({"sensors": {"lidar_sigma": [0.1, float("nan"), 0.015]}, "poses": []},
         "sensors.lidar_sigma"),
    ])
    def test_non_finite_formation_entry_rejected(self, tmp_path, capsys, doc, path):
        p = tmp_path / "formation.json"
        p.write_text(json.dumps(doc))
        assert main(["eval-fim", "--formation", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"swarmform: config error: {path}: expected ")
        assert captured.out == ""

    # every key whose reader carries its own bound, at a value outside it
    @pytest.mark.parametrize("path,value,rule", [
        *[(f"flight.{key}", 0.0, "be positive")
          for key in ("k1", "k2", "kp", "mass_kg", "dt_s", "horizon_s",
                      "init_cube_half_width_m")],
        ("flight.runs", 0, "be >= 1"),
        ("flight.seed", -1, "be >= 0"),
        *[(f"flight.apf.{key}", -1.0, "be positive") for key in ("ka", "kr", "d0_m")],
        ("sensors.eps", 0.0, "be positive"),
        ("fov.hfov_deg", 180.0, "lie in (0, 180)"),
        ("fov.vfov_deg", 0.0, "lie in (0, 180)"),
        ("radio.noise_dbm", 5000.0, "convert to a finite number"),
        ("fov.n_dirs", 10**15, "be <= 1440"),
        ("fov.k_sectors", 10**12, "be <= 1440"),
        ("fov.k_sectors", 10**30, "be <= 1440"),
    ])
    def test_bounded_key_rejected(self, tmp_path, capsys, path, value, rule):
        assert main(["pipeline", "--scenario", mutated(tmp_path, {path: value})]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"swarmform: config error: {path}: must {rule}, got {value}\n"
        assert captured.out == ""

    def test_full_pitch_range_allocates(self, tmp_path):
        # 0-180 degrees at a 3-degree step: the 61st ring, 180 degrees, once
        # landed an ulp past pi and the scenario was refused as a config error
        p = mutated(tmp_path, {"grid.delta_min_deg": 0.0, "grid.delta_max_deg": 180.0,
                               "grid.delta_step_deg": 3.0})
        code, report = run(tmp_path, "allocate", "--scenario", p)
        assert code == 0
        assert report["Allocation"]["UAV count"] >= 1

    def test_grid_beyond_perception_range_is_a_config_error(self, tmp_path, capsys):
        # every UAV 40 m out, past the 30 m range: coverage does not read the
        # range, so this reported a Gamma of 3.14 with exit 0
        p = mutated(tmp_path, {"grid.distance_m": 40.0})
        assert main(["formation", "--scenario", p]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("swarmform: config error: grid.distance_m: must not exceed "
                                "fov.d_max_m (30.0), got 40.0\n")

    def test_overflowing_distance_weight_is_a_config_error(self, tmp_path, capsys):
        # lambda 1e308 overflowed every distance weight to 0, which coverage
        # reads as "not covered": Gamma 0 and 72 uncovered directions before
        # and after the flips, after a RuntimeWarning, with exit 0
        out = tmp_path / "out"
        assert main(["formation", "--scenario", mutated(tmp_path, {"fov.lambda_per_m": 1e308}),
                     "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("swarmform: config error: fov: distance weight times max "
                                "perception range must be finite\n")
        assert captured.out == "" and not out.exists()

    def test_target_too_far_out_for_its_grid_is_a_config_error(self, tmp_path, capsys):
        # at 1e16 m the 10 m grid's UAVs land on a 2 m lattice: their pitches
        # moved by up to 0.1 rad, and a VFOV that missed the 20 deg ring by
        # 0.01 rad still kept 184 candidates instead of 144, with exit 0
        p = mutated(tmp_path, {"target.position": [1e16, -0.7e16, 0.3e16]})
        assert main(["formation", "--scenario", p]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("swarmform: config error: target.position: too far out for "
                                "grid.distance_m (10.0): coordinates up to 1.407e+09 m keep "
                                "the grid's rounding within 1e-6 of its distance, got 1e+16\n")

    # the SINR ratio underflows to 0 against the noise power (-inf dB), or
    # the received powers overflow to inf (inf / inf is NaN): each reached
    # report.json as -Infinity or NaN after a NumPy warning, with exit 0; a
    # path loss d ** -alpha past the float range was a traceback, exit 1
    @pytest.mark.parametrize("sections", [
        {"radio.noise_dbm": 3000, "radio.tx_power_w": 1e-30},
        {"radio.tx_power_w": 1e300, "radio.rho0": 1e10},
        {"radio.alpha": 500, "grid.distance_m": 0.5},
    ])
    def test_non_finite_sinr_is_a_numeric_error(self, tmp_path, sections):
        check_contract(mutated(tmp_path, sections), "formation", numeric_error=True)

    @pytest.mark.parametrize("stage", ["allocate", "fly"])
    def test_unusable_out_dir(self, tmp_path, stage):
        blocker = tmp_path / "file"
        blocker.write_text("")
        env = dict(os.environ, PYTHONPATH=str(Path(swarmform.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "swarmform.cli", "pipeline", "--stage", stage,
             "--scenario", scenario("paper_default.json"), "--out-dir", str(blocker / "sub")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Not a directory" in done.stderr
        assert not (blocker / "sub" / "report.json").exists()

    def test_coincident_apf_members_in_run_2(self, tmp_path, monkeypatch, capsys):
        # the starts are seeded draws, so place run 2's members 0 and 1 together
        real_simulate = cli.simulate

        def coincident_run_2(start, *args):
            p, v = start
            p = p.copy()
            p[2, 1] = p[2, 0]
            return real_simulate((p, v), *args)

        monkeypatch.setattr(cli, "simulate", coincident_run_2)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)   # the streaming writer, where os.fork exists
        p = mutated(tmp_path, {"flight.runs": 3, "flight.horizon_s": 0.5,
                               "flight.controller": "apf"})
        out = tmp_path / "out"
        assert main(["fly", "--scenario", p, "--out-dir", str(out)]) == 2
        assert "numeric error: [stage fly]" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []
        _assert_reaped()

    def test_coincident_start_prints_one_line(self, tmp_path):
        # a start cube far below APF's coincidence distance puts every
        # member on the target: the rollout goes non-finite
        p = mutated(tmp_path, {"flight.horizon_s": 0.5, "flight.controller": "apf",
                               "flight.init_cube_half_width_m": 1e-13})
        check_contract(p, "fly", numeric_error=True)

    # at 1e308 the cube's width overflows NumPy's uniform draw (an
    # OverflowError traceback); at 1e200 squared distances overflow and
    # report.json got Infinity after two NumPy warnings, with exit 0
    @pytest.mark.parametrize("half", [1e308, 1e200])
    def test_huge_start_cube_is_a_numeric_error(self, tmp_path, half):
        p = mutated(tmp_path, {"flight.horizon_s": 0.5, "flight.init_cube_half_width_m": half})
        check_contract(p, "fly", numeric_error=True)

    # horizon_s 0.1 at dt_s 1.0 ran two stages, then failed with "trajectory
    # has no steps"; horizon_s 1e9 ran out of memory with a traceback; the
    # last ratio overflows to inf
    @pytest.mark.parametrize("flight", [{"flight.dt_s": 1.0, "flight.horizon_s": 0.1},
                                        {"flight.horizon_s": 1e9},
                                        {"flight.dt_s": 1e-300, "flight.horizon_s": 1e300}])
    def test_step_count_out_of_bounds_is_a_config_error(self, tmp_path, capsys, flight):
        out = tmp_path / "out"
        assert main(["fly", "--scenario", mutated(tmp_path, flight), "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("swarmform: config error: flight: horizon / dt must "
                                       "round to 1 to 100000 steps")
        assert captured.out == "" and not out.exists()

    # runs 2**70 kept building starts until killed; runs 100,000 of
    # 100,000 steps would need 74.5 GiB for the Lyapunov traces alone
    @pytest.mark.parametrize("flight, got", [({"flight.runs": 2 ** 70}, f"{2 ** 70} x 2000"),
                                             ({"flight.runs": 100_000, "flight.horizon_s": 1000.0},
                                              "100000 x 100000")],
                             ids=["runs-2**70", "runs-100000-steps-100000"])
    def test_runs_times_steps_over_the_cap_is_a_config_error(self, tmp_path, capsys,
                                                             monkeypatch, flight, got):
        monkeypatch.setattr(cli, "_stage_fly", lambda *args: pytest.fail("flight not refused"))
        out = tmp_path / "out"
        assert main(["fly", "--scenario", mutated(tmp_path, flight), "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("swarmform: config error: flight: runs x steps must be at "
                                f"most 1000000, got {got}\n")
        assert captured.out == "" and not out.exists()

    # the runs cap cannot see the swarm size, which multiplies the
    # rollout's per-step arrays; the stage raises as NumPy or Python would
    @pytest.mark.parametrize("text", ["Unable to allocate 74.5 GiB for an array with shape "
                                      "(100000, 100001) and data type float64", ""],
                             ids=["numpy", "bare"])
    def test_out_of_memory_prints_one_line(self, tmp_path, monkeypatch, capsys, text):
        def out_of_memory(*args):
            raise MemoryError(text) if text else MemoryError()

        monkeypatch.setattr(cli, "_stage_fly", out_of_memory)
        out = tmp_path / "out"
        assert main(["fly", "--scenario", scenario("paper_default.json"),
                     "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"swarmform: error: [stage fly] {text or 'MemoryError'}\n"
        assert captured.out == "" and not out.exists()

    # resources.bandwidth_cam -1 made the camera penalty a bonus: exit 0
    # with 9 cameras and 1 LiDAR
    def test_negative_resource_block_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["allocate", "--scenario", mutated(tmp_path, {"resources.bandwidth_cam": -1}),
                     "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("swarmform: config error: resources: resource blocks and "
                                "costs must be non-negative, got bandwidth_cam=-1.0\n")
        assert captured.out == "" and not out.exists()


def _leaves(node, prefix=()):
    """The dotted path of every value in a scenario document that is not an
    object: each list, and each of its items."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        path = (*prefix, str(key))
        if not isinstance(value, dict):
            yield ".".join(path)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path)


# the bundled scenarios share one tree of keys
_LEAVES = sorted(_leaves(json.loads(Path(scenario("paper_default.json")).read_text())))
_VALUES = [0, 5e-324, -5e-324, 1e-300, -1e-300, 1e154, -1e154, 1e300, -1e300, 1e307, -1e307,
           "x", [1.0], *map(Scaled, (-1, 0.5, 2, 10))]


def _bounded_work(path, stage):
    """Whether the scenario at `path` run to `stage` has at most 2,500 grid
    placements and, at fly, 2e4 run-steps; one config refuses runs no stage."""
    try:
        s = parse_scenario(path)
    except ScenarioError:
        return True
    run_steps = s.flight.runs * round(s.flight.horizon_s / s.flight.dt_s)
    return (len(s.grid.betas()) * len(s.grid.deltas()) <= 2_500
            and (stage != "fly" or run_steps <= 20_000))


def check_contract(path, stage, numeric_error=False):
    """The CLI's failure contract for the scenario at `path`, run in process
    to `stage` with every warning an error and its output beside it: exit 0
    writes report.json, and fly_trace.csv at fly, of finite numbers; exit 1
    or 2 prints one stderr line with the documented prefix, `[stage S]` for
    exit 2, and leaves no file under --out-dir. Nothing else is printed,
    nothing escapes `main`, no writer is left; `numeric_error` asks exit 2 at `stage`."""
    out = Path(path).parent / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("error")
        # Python 3.12+ warns of forking while a BLAS thread runs (see cli._trace_stream)
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        code = main(["pipeline", "--scenario", str(path), "--stage", stage,
                     "--out-dir", str(out)])
    _assert_reaped()
    err = stderr.getvalue()
    left = sorted(p.name for p in out.iterdir()) if out.exists() else None
    assert stdout.getvalue() == ""
    if numeric_error:
        assert err.startswith(f"swarmform: numeric error: [stage {stage}] "), err
    if code == 0:
        assert err == ""
        assert left == ["fly_trace.csv", "report.json"][stage != "fly":]
        report = json.loads((out / "report.json").read_text())
        del report["Scenario"]
        json.dumps(report, allow_nan=False)   # raises on NaN or Infinity
        if stage == "fly":
            trace = np.loadtxt(out / "fly_trace.csv", delimiter=",", skiprows=1)
            assert np.isfinite(trace).all()
        return
    assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == 1:
        assert re.match(r"swarmform: (config )?error: ", err), err
    else:
        failed = re.match(r"swarmform: (numeric )?error: \[stage (\w+)\] ", err)
        assert code == 2 and failed, err
        assert cli.STAGES.index(failed[2]) <= cli.STAGES.index(stage), err
    # only the fly stage makes --out-dir, for its trace, and leaves it empty
    assert left is None or (left == [] and "[stage fly]" in err), (left, err)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["paper_default.json", "paper_ground.json", "flight_benchmark.json"]),
       stage=st.sampled_from(cli.STAGES),
       changes=st.dictionaries(st.sampled_from(_LEAVES), st.sampled_from(_VALUES),
                               min_size=1, max_size=2)
       .filter(lambda c: not any(a.startswith(f"{b}.") for a in c for b in c)),
       numeric_error=st.just(False))
# a target track past the float range warned before the error line
@example(name="paper_default.json", stage="fly", changes={"target.velocity.0": 1e307},
         numeric_error=True)
@example(name="paper_default.json", stage="fly", changes={"target.velocity.2": -1e307},
         numeric_error=True)
def test_failure_contract(name, stage, changes, numeric_error):
    """`check_contract` over bundled scenarios with one or two leaves replaced."""
    with tempfile.TemporaryDirectory() as tmp:
        path = mutated(tmp, changes, name)
        assume(_bounded_work(path, stage))
        check_contract(path, stage, numeric_error)


def test_start_up_loads_no_secrets_or_hmac():
    """A fresh process that imports the CLI and parses a scenario loads
    neither `secrets` nor `hmac` (with `hashlib` they cost milliseconds of
    every start-up), unless one that imports NumPy alone does."""
    env = dict(os.environ, PYTHONPATH=str(Path(swarmform.__file__).parents[1]))

    def loaded(code):
        done = subprocess.run(
            [sys.executable, "-c", f"import sys, numpy\n{code}\n"
             "print(*sorted({'secrets', 'hmac'} & set(sys.modules)))"],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        return set(done.stdout.split())

    numpy_alone = loaded("")
    assert loaded("import swarmform.cli\nfrom swarmform.config import parse_scenario\n"
                  f"parse_scenario({scenario('paper_default.json')!r})") <= numpy_alone


class TestAtomicWrites:
    def test_failed_trace_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        real_fdopen = cli.os.fdopen

        class FailingHandle:
            """A handle whose 5th write fails: the trace's header and 3 of
            its 7 blocks of rows are written, the rest is not."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                self.writes += 1
                if self.writes == 5:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

        monkeypatch.setattr(cli.os, "fdopen",
                            lambda *args, **kwargs: FailingHandle(real_fdopen(*args, **kwargs)))
        monkeypatch.setattr(cli, "_cpus", lambda: 1)   # the inline writer
        out = tmp_path / "out"
        assert main(["fly", "--scenario", scenario("paper_default.json"),
                     "--out-dir", str(out)]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # the temp file that replaces each output used to be made by mkstemp,
    # whose mode 0600 the output kept whatever the umask
    @pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
    def test_outputs_take_the_umask_mode(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            assert main(["fly", "--scenario", scenario("paper_default.json"),
                         "--out-dir", str(tmp_path)]) == 0
        finally:
            os.umask(old)
        for name in ("report.json", "fly_trace.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fly_trace.csv", "report.json"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no streaming writer without os.fork")
    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failed_trace_writer_leaves_no_file_or_process(self, tmp_path, monkeypatch, capsys,
                                                           failing):
        # the forked writer fails on the rows handed to it during the
        # flight, or this process on the rows it keeps after the flight
        name = "_format_spooled" if failing == "child" else "_format_rows"

        def failing_format(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(cli, name, failing_format)
        out = tmp_path / "out"
        assert main(["fly", "--scenario", scenario("paper_default.json"),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("swarmform: error: [stage fly] ")
        assert len(err.splitlines()) == 1
        assert ("a trace writer process failed with exit status 1" if failing == "child"
                else "No space left on device") in err
        assert list(out.iterdir()) == []
        _assert_reaped()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no streaming writer without os.fork")
    def test_failing_hook_mid_flight_leaves_no_file_or_process(self, tmp_path, monkeypatch,
                                                               capsys):
        # the hook fails on its third hand-over, inside the rollout, while
        # the writer is formatting the rows handed to it
        tables = cli._tables
        calls = []

        def tables_failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            return tables(*args)

        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_tables", tables_failing)
        out = tmp_path / "out"
        assert main(["fly", "--scenario", scenario("paper_default.json"),
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err \
            == "swarmform: error: [stage fly] [Errno 28] No space left on device\n"
        assert len(calls) == 3
        assert list(out.iterdir()) == []
        _assert_reaped()


def _flown(n, steps, controller="log", runs=1, on_block=None):
    """A seeded flight of `runs` runs of n members for `steps` steps toward
    slots on a 10 m circle; `on_block` is passed to `simulate`."""
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    formation = slotted(np.column_stack((10.0 * np.cos(angles), 10.0 * np.sin(angles),
                                         np.full(n, 3.4))))
    rng = np.random.default_rng(n + steps)
    p0 = formation.positions + rng.uniform(-5.0, 5.0, (runs, n, 3))
    v0 = rng.uniform(-1.0, 1.0, (runs, n, 3))
    return simulate((p0, v0), formation, controller, ControlGains(), np.zeros(3),
                    0.01, steps * 0.01, on_block)


def _streamed(path, n, steps, **kwargs):
    """`_flown`'s flight, its trace streamed to `path` as the CLI streams it."""
    with cli._trace_stream(path, n, 0.01) as on_block:
        return _flown(n, steps, on_block=on_block, **kwargs)


# (members, steps) whose trace ends one row below, at and one row past the
# end of a block of rows, and one row into the fifth block: for the
# writers' blocks of `cli._TRACE_VALUES` values, and for blocks of 4,096
# values as further uneven lengths
_BLOCK_EDGES = [pytest.param(n, rows - 1, id=f"n{n}-rows{rows}")
                for n, rows in sorted({(n, rows)
                                       for values in (4096, cli._TRACE_VALUES)
                                       for n in (2, 6, 48)
                                       for block in [values // (9 * n + 2)]
                                       for rows in (block - 1, block, block + 1, 4 * block + 1)})]
_needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                 reason="no streaming writer without os.fork")


class TestTraceWriter:
    """`cli._write_trace`, the inline writer, and `cli._trace_stream`, the
    streaming one, write the bytes of the row-by-row `csv.writer` oracle."""

    def assert_same_bytes(self, tmp_path, traj, name="trace.csv"):
        if name == "trace.csv":
            cli._write_trace(tmp_path / name, traj)
        write_trace_csv(tmp_path / "oracle.csv", traj)
        assert (tmp_path / name).read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("controller", ["log", "quad", "apf"])
    def test_paper_default_flights(self, tmp_path, monkeypatch, controller):
        path = mutated(tmp_path, {"flight.horizon_s": 1.5})
        flown = []
        real_metrics = cli.metrics
        monkeypatch.setattr(cli, "metrics",
                            lambda traj: (flown.append(traj), real_metrics(traj))[1])
        # the inline writer, then the streaming one where os.fork exists
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / str(cpus)
            assert main(["fly", "--scenario", path, "--controller", controller,
                         "--out-dir", str(out)]) == 0
            write_trace_csv(tmp_path / "oracle.csv", flown[-1])
            assert (out / "fly_trace.csv").read_bytes() \
                == (tmp_path / "oracle.csv").read_bytes(), cpus
        _assert_reaped()

    @pytest.mark.parametrize("n, steps", [pytest.param(6, steps, id=str(steps))
                                          for steps in (1, 63, 64, 65, 128)] + _BLOCK_EDGES)
    def test_block_edges(self, tmp_path, n, steps):
        traj = _flown(n, steps)
        assert len(traj.times) == steps + 1
        self.assert_same_bytes(tmp_path, traj)

    # flights shorter than one rollout block, ending one row before, at and
    # after the first and second block edges, and the bundled horizon
    @_needs_fork
    @pytest.mark.parametrize("n, steps", [pytest.param(6, steps, id=str(steps))
                                          for steps in (1, 63, 64, 65, 127, 128, 129, 2000)]
                             + _BLOCK_EDGES)
    def test_bytes_independent_of_writer_count(self, tmp_path, n, steps):
        traj = _streamed(tmp_path / "streamed.csv", n, steps)
        cli._write_trace(tmp_path / "inline.csv", traj)
        write_trace_csv(tmp_path / "oracle.csv", traj)
        oracle = (tmp_path / "oracle.csv").read_bytes()
        for name in ("streamed.csv", "inline.csv"):
            assert (tmp_path / name).read_bytes() == oracle, name
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["inline.csv", "oracle.csv", "streamed.csv"]
        _assert_reaped()

    @_needs_fork
    @pytest.mark.parametrize("every", [1, 5, 64, 200])
    def test_bytes_independent_of_the_schedule(self, tmp_path, every):
        # the hook called every `every` steps, as a rollout with other
        # blocks would call it: the writer is handed other rows (37-row
        # messages at n = 48), the bytes stay the same
        traj = _flown(48, 200)
        with cli._trace_stream(tmp_path / "streamed.csv", 48, 0.01) as on_block:
            for s in [*range(every, 200, every), 200]:
                on_block(s, traj.positions, traj.velocities, traj.controls, traj.lyapunov)
        self.assert_same_bytes(tmp_path, traj, "streamed.csv")
        _assert_reaped()

    @_needs_fork
    @pytest.mark.parametrize("n, steps", [(6, 2000), (48, 300)])
    def test_lagging_writer_leaves_the_parent_a_tail(self, tmp_path, monkeypatch, n, steps):
        # the writer sleeps before its first rows, so it acknowledges
        # nothing while the flight is flown: it is handed two messages, and
        # after the flight as many rows as makes it half of the rest with
        # them, and this process formats the other half itself
        format_spooled, format_rows = cli._format_spooled, cli._format_rows
        kept = []

        def lagging(spool, out, lo, hi, n):
            if lo == 0:
                time.sleep(0.5)
            format_spooled(spool, out, lo, hi, n)

        def keeping(out, *history_and_rows):
            kept.append(history_and_rows[-2:])
            format_rows(out, *history_and_rows)

        monkeypatch.setattr(cli, "_format_spooled", lagging)
        monkeypatch.setattr(cli, "_format_rows", keeping)
        traj = _streamed(tmp_path / "streamed.csv", n, steps)
        self.assert_same_bytes(tmp_path, traj, "streamed.csv")
        [(lo, hi)] = kept
        held = cli._BACKLOG * cli._chunk(n)
        assert hi == steps + 1
        assert lo == held + (hi - 2 * held) // 2
        assert hi - lo > kernels._BLOCK
        _assert_reaped()

    @_needs_fork
    def test_several_runs_stream_run_0(self, tmp_path):
        traj = _streamed(tmp_path / "streamed.csv", 6, 130, runs=3)
        assert traj.lyapunov.shape == (3, 131)
        self.assert_same_bytes(tmp_path, traj, "streamed.csv")
        _assert_reaped()

    def test_two_members(self, tmp_path):
        self.assert_same_bytes(tmp_path, _flown(2, 70, "apf"))

    def test_extreme_floats(self, tmp_path):
        traj = _flown(3, 66)
        values = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, np.inf, np.nan]
        arrays = {name: getattr(traj, name).copy()
                  for name in ("times", "positions", "velocities", "controls", "lyapunov")}
        for a in arrays.values():
            a.reshape(-1)[:len(values)] = values
        self.assert_same_bytes(tmp_path, replace(traj, **arrays))

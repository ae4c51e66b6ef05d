import csv
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import swarmform
from swarmform import cli
from swarmform.cli import main
from swarmform.flight import SwarmState


def scenario(name):
    return str(resources.files("swarmform") / "scenarios" / name)


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

    def test_numeric_error(self, tmp_path, capsys):
        # a grid entirely outside the vertical FOV leaves no candidates
        doc = {"flight": {"seed": 0},
               "grid": {"delta_min_deg": 80.0, "delta_max_deg": 100.0}}
        p = tmp_path / "degenerate.json"
        p.write_text(json.dumps(doc))
        assert main(["allocate", "--scenario", str(p)]) == 2
        assert "stage allocate" in capsys.readouterr().err

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

        def coincident_run_2(starts, *args):
            starts = list(starts)
            p = starts[2].positions.copy()
            p[1] = p[0]
            starts[2] = SwarmState(p, starts[2].velocities)
            return real_simulate(starts, *args)

        monkeypatch.setattr(cli, "simulate", coincident_run_2)
        doc = json.loads((resources.files("swarmform") / "scenarios"
                          / "paper_default.json").read_text())
        doc["flight"].update(runs=3, horizon_s=0.5, controller="apf")
        p = tmp_path / "apf3.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["fly", "--scenario", str(p), "--out-dir", str(out)]) == 2
        assert "numeric error: [stage fly]" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_coincident_start_prints_one_line(self, tmp_path):
        # a start cube far below APF's coincidence distance puts every
        # member on the target: the rollout goes non-finite and the CLI
        # reports it in one line, with no NumPy warning before it
        doc = json.loads((resources.files("swarmform") / "scenarios"
                          / "paper_default.json").read_text())
        doc["flight"].update(horizon_s=0.5, controller="apf", init_cube_half_width_m=1e-13)
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(swarmform.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "swarmform.cli", "fly", "--scenario", str(p),
             "--out-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("swarmform: numeric error: [stage fly] ")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
        assert not out.exists() or list(out.iterdir()) == []


class TestAtomicWrites:
    def test_failed_trace_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        real_writer = csv.writer

        def failing_writer(fh):
            writer = real_writer(fh)

            class Failing:
                rows = 0

                def writerow(self, row):
                    if self.rows == 10:
                        raise OSError(28, "No space left on device")
                    self.rows += 1
                    return writer.writerow(row)

            return Failing()

        monkeypatch.setattr(cli.csv, "writer", failing_writer)
        out = tmp_path / "out"
        assert main(["fly", "--scenario", scenario("paper_default.json"),
                     "--out-dir", str(out)]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []

import copy
import json
from dataclasses import FrozenInstanceError, fields, is_dataclass
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmform.cli import main
from swarmform.config import (
    ScenarioError,
    TargetSpec,
    parse_formation,
    parse_formation_dict,
    parse_scenario,
    parse_scenario_dict,
)


def scenario_path(name):
    return resources.files("swarmform") / "scenarios" / name


def minimal_doc(**overrides):
    doc = {"flight": {"seed": 0}}
    doc.update(overrides)
    return doc


class TestScenarioParsing:
    def test_bundled_default_matches_documented_parameters(self):
        s = parse_scenario(scenario_path("paper_default.json"))
        assert s.sensors.fx == 381.0
        assert s.sensors.camera_cov == (36.0, 36.0)
        assert s.sensors.lidar_cov == pytest.approx((0.01, 0.0004, 0.000225))
        assert s.fov.gamma == pytest.approx(np.radians(50.0))
        assert s.fov.kappa == pytest.approx(np.radians(40.0))
        assert s.radio.alpha == 2.0
        assert s.radio.noise_power == pytest.approx(1e-14)  # -110 dBm
        assert s.weights.alpha_resource == 0.18
        assert s.weights.alpha_cost == 0.2
        assert s.weights.min_gain == 0.17
        assert s.flight.gains.k1 == 4.0 and s.flight.gains.k2 == 1.5 and s.flight.gains.kp == 10.0
        assert s.grid.distance == 10.0

    def test_bundled_ground_flag(self):
        assert parse_scenario(scenario_path("paper_ground.json")).target.ground

    def test_bundled_benchmark(self):
        s = parse_scenario(scenario_path("flight_benchmark.json"))
        assert s.target.velocity == pytest.approx([0.5, 0.3, 0.0])
        assert s.flight.runs == 20
        assert (s.flight.gains.ka, s.flight.gains.kr, s.flight.gains.d0) == (1.0, 5.0, 2.0)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ScenarioError, match="radio.bogus"):
            parse_scenario_dict(minimal_doc(radio={"bogus": 1}))

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="extra"):
            parse_scenario_dict(minimal_doc(extra={}))

    def test_seed_required(self):
        with pytest.raises(ScenarioError, match="flight.seed"):
            parse_scenario_dict({})

    def test_fov_range_named(self):
        with pytest.raises(ScenarioError, match="fov.hfov_deg"):
            parse_scenario_dict(minimal_doc(fov={"hfov_deg": 200.0}))

    def test_type_errors_named(self):
        with pytest.raises(ScenarioError, match="grid.distance_m"):
            parse_scenario_dict(minimal_doc(grid={"distance_m": "ten"}))
        with pytest.raises(ScenarioError, match="target.position"):
            parse_scenario_dict(minimal_doc(target={"position": [1, 2]}))
        with pytest.raises(ScenarioError, match="fov.n_dirs"):
            parse_scenario_dict(minimal_doc(fov={"n_dirs": 7.5}))
        with pytest.raises(ScenarioError, match="^radio: expected an object, got list$"):
            parse_scenario_dict(minimal_doc(radio=[1.0]))

    def test_invariants_enforced(self):
        with pytest.raises(ScenarioError, match="grid"):
            parse_scenario_dict(minimal_doc(grid={"distance_m": -1.0}))
        with pytest.raises(ScenarioError, match="flight.dt_s"):
            parse_scenario_dict(minimal_doc(flight={"seed": 0, "dt_s": 0.0}))
        for sensors, message in (
                ({"fx": 0}, "focal lengths must be positive"),
                ({"camera_sigma_px": [6, 0]}, "camera noise variances must be positive"),
                ({"lidar_sigma": [0, 0.02, 0.015]}, "lidar noise variances must be positive")):
            with pytest.raises(ScenarioError, match=f"^sensors: {message}$"):
                parse_scenario_dict(minimal_doc(sensors=sensors))

    def test_grid_size_bounded(self):
        # 3.6e8 azimuths per pitch ring: refused from the steps, before the
        # grid's arrays exist
        with pytest.raises(ScenarioError, match=r"^grid: steps give 3\.6e\+08 x 17 placements, "
                                                r"more than 1000000$"):
            parse_scenario_dict(minimal_doc(grid={"beta_step_deg": 1e-6}))

    @pytest.mark.parametrize("reach, refused", [(1e9, False), (2e9, True), (1e16, True)])
    def test_target_reach_bounded_by_grid_distance(self, reach, refused):
        # the default 10 m grid admits coordinates up to 1e-6 * 10 / (64 * 2^-53),
        # about 1.407e9 m, whatever the sign or axis
        doc = minimal_doc(target={"position": [1.0, -reach, 0.5]})
        if refused:
            with pytest.raises(ScenarioError, match=r"^target\.position: too far out for "
                                                    r"grid\.distance_m \(10\.0\)"):
                parse_scenario_dict(doc)
        else:
            assert parse_scenario_dict(doc).target.position[1] == -reach

    def test_overflowing_sigma_named(self):
        # the variance of a finite sigma can overflow, as 10 ** (dBm / 10) can
        with pytest.raises(ScenarioError, match=r"sensors.camera_sigma_px: must convert to a "
                                                r"finite number, got \[1e\+200, 1.0\]"):
            parse_scenario_dict(minimal_doc(sensors={"camera_sigma_px": [1e200, 1.0]}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario(tmp_path / "nope.json")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        with pytest.raises(ScenarioError, match="position 0"):
            parse_scenario(p)
        p.write_text("[]")
        with pytest.raises(ScenarioError, match="top level must be an object$"):
            parse_scenario(p)

    def test_canonical_round_trip(self, tmp_path):
        """The "Scenario" echo that report.json carries parses back to the
        scenario each bundled file gives."""
        for name in ("paper_default.json", "paper_ground.json", "flight_benchmark.json"):
            out = tmp_path / name
            assert main(["allocate", "--scenario", str(scenario_path(name)),
                         "--out-dir", str(out)]) == 0
            echo = json.loads((out / "report.json").read_text())["Scenario"]
            assert same_values(parse_scenario_dict(echo), parse_scenario(scenario_path(name)))


class TestRecordsStayValid:
    """A parsed scenario's records are frozen, and its target vectors are
    read-only copies, so no assignment can undo the checks parsing made."""

    def test_assignments_raise(self):
        s = parse_scenario(scenario_path("paper_default.json"))
        with pytest.raises(FrozenInstanceError):
            s.flight.runs = 2 ** 70
        with pytest.raises(FrozenInstanceError):
            s.flight.horizon_s = -1.0
        with pytest.raises(ValueError, match="read-only"):
            s.target.position[0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            s.target.velocity[2] = 1.0
        with pytest.raises(FrozenInstanceError):
            s.flight = s.flight
        assert s.flight.runs == 1 and s.flight.horizon_s == 20.0
        assert np.isfinite(s.target.position).all()

    def test_target_holds_copies(self):
        position = np.array([1.0, 2.0, 3.0])
        target = TargetSpec(position=position)
        position[0] = np.nan   # the caller's array stays writable, the record unchanged
        assert target.position.tolist() == [1.0, 2.0, 3.0]
        assert target.velocity.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("position", [[0.0, np.nan, 0.0], [0.0, 0.0], [[0.0] * 3]])
    def test_target_refuses_a_bad_vector(self, position):
        with pytest.raises(ValueError, match="target position must be a finite 3-vector"):
            TargetSpec(position=position)


class TestFormationParsing:
    def test_bundled_reference(self):
        f, models = parse_formation(scenario_path("reference_formation.json"))
        assert len(f) == 6
        assert models.eps == 1e-6
        assert np.count_nonzero(f.lidar) == 2

    def test_empty_poses_allowed(self):
        f, _ = parse_formation_dict({"poses": []})
        assert len(f) == 0

    def test_eps_reaches_the_log_det(self, tmp_path, capsys):
        # sensors.eps travels on the models alone, so eval-fim must read it there
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"sensors": {"eps": 0.5}, "poses": []}))
        assert main(["eval-fim", "--formation", str(p)]) == 0
        assert capsys.readouterr().out == f"{3 * np.log(0.5):.6f}\n"

    def test_default_yaw_faces_target(self):
        f, _ = parse_formation_dict(
            {"poses": [{"position": [10.0, 0.0, 0.0], "sensor": "camera"}]}
        )
        assert f.yaws[0] == pytest.approx(np.pi)

    def test_sensor_validated(self):
        with pytest.raises(ScenarioError, match="poses\\[0\\].sensor"):
            parse_formation_dict({"poses": [{"position": [1, 0, 0], "sensor": "radar"}]})

    def test_unknown_pose_key(self):
        with pytest.raises(ScenarioError, match="poses\\[0\\].pitch"):
            parse_formation_dict(
                {"poses": [{"position": [1, 0, 0], "sensor": "lidar", "pitch": 3}]}
            )


def same_values(a, b) -> bool:
    """`==` field by field, recursing into dataclasses and tuples, arrays
    element by element, with types and dtypes equal too; `raw` is skipped."""
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        return all(same_values(getattr(a, f.name), getattr(b, f.name))
                   for f in fields(a) if f.name != "raw")
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_values, a, b))
    return a == b


PAPER_DEFAULT = json.loads(scenario_path("paper_default.json").read_text())


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


# flight.seed is required, and paper_default's horizon_s (20 s) is not the
# default (60 s); every other key spells out its dataclass default
_KEPT = {("flight",), ("flight", "seed"), ("flight", "horizon_s")}
_DROPPABLE = sorted(p for p in _key_paths(PAPER_DEFAULT) if p not in _KEPT)


@settings(max_examples=100, deadline=None)
@given(dropped=st.sets(st.sampled_from(_DROPPABLE)))
def test_any_key_subset_parses_as_the_full_document(dropped):
    doc = copy.deepcopy(PAPER_DEFAULT)
    for *sections, key in dropped:
        node = doc
        for section in sections:
            node = node.get(section, {})
        node.pop(key, None)
    assert same_values(parse_scenario_dict(doc), parse_scenario_dict(PAPER_DEFAULT))

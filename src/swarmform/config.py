"""Strict scenario parsing.

Scenario documents are JSON with degrees and dBm at this boundary only;
everything downstream works in radians and watts. Unknown keys are
rejected and every diagnostic carries the dotted field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alloc import AllocWeights, GridSpec
from .fov import FovSpec
from .geom import Formation, Pose, Sensor, yaw_facing_target
from .radio import RadioParams, ResourceModel, dbm_to_watts
from .sensing import CameraIntrinsics, LidarNoise, SensorModels


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


@dataclass
class TargetSpec:
    position: np.ndarray
    velocity: np.ndarray
    ground: bool = False


@dataclass
class FlightConfig:
    k1: float = 4.0
    k2: float = 1.5
    kp: float = 10.0
    mass_kg: float = 1.0
    dt_s: float = 0.01
    horizon_s: float = 60.0
    controller: str = "log"
    seed: int = 0
    runs: int = 1
    init_cube_half_width_m: float = 15.0
    apf_ka: float = 10.0
    apf_kr: float = 5.0
    apf_d0_m: float = 2.0


@dataclass
class Scenario:
    target: TargetSpec
    grid: GridSpec
    weights: AllocWeights
    sensors: SensorModels
    fov: FovSpec
    radio: RadioParams
    resources: ResourceModel
    flight: FlightConfig
    eps: float = 1e-6
    raw: dict = field(default_factory=dict, repr=False)


def _finite(x) -> bool:
    """True for a finite number; JSON admits NaN, Infinity and integers too
    large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class _Section:
    """One JSON object with path-tagged, type-checked field access."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ScenarioError(f"{path}: expected an object, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def child(self, key: str) -> "_Section":
        self.seen.add(key)
        return _Section(self.data.get(key, {}), self._at(key))

    def _get(self, key, default):
        self.seen.add(key)
        if key not in self.data:
            if default is _REQUIRED:
                raise ScenarioError(f"{self._at(key)}: required field missing")
            return default
        return self.data[key]

    def number(self, key, default=None) -> float:
        v = self._get(key, default)
        if v is default:
            return default
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ScenarioError(f"{self._at(key)}: expected a number, got {v!r}")
        if not _finite(v):
            raise ScenarioError(f"{self._at(key)}: expected a finite number, got {v!r}")
        return float(v)

    def integer(self, key, default=None) -> int:
        v = self._get(key, default)
        if v is default:
            return default
        if isinstance(v, bool) or not isinstance(v, int):
            raise ScenarioError(f"{self._at(key)}: expected an integer, got {v!r}")
        return v

    def boolean(self, key, default=None) -> bool:
        v = self._get(key, default)
        if v is default:
            return default
        if not isinstance(v, bool):
            raise ScenarioError(f"{self._at(key)}: expected a boolean, got {v!r}")
        return v

    def string(self, key, default=None, choices=None) -> str:
        v = self._get(key, default)
        if v is default:
            return default
        if not isinstance(v, str):
            raise ScenarioError(f"{self._at(key)}: expected a string, got {v!r}")
        if choices and v not in choices:
            raise ScenarioError(f"{self._at(key)}: expected one of {sorted(choices)}, got {v!r}")
        return v

    def vector(self, key, length, default=None) -> np.ndarray:
        v = self._get(key, default)
        if v is default:
            return None if default is None else np.asarray(default, dtype=float)
        if (not isinstance(v, list) or len(v) != length
                or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)):
            raise ScenarioError(f"{self._at(key)}: expected a list of {length} numbers, got {v!r}")
        if not all(_finite(x) for x in v):
            raise ScenarioError(
                f"{self._at(key)}: expected a list of {length} finite numbers, got {v!r}")
        return np.asarray(v, dtype=float)

    def reject_unknown(self):
        unknown = set(self.data) - self.seen
        if unknown:
            k = sorted(unknown)[0]
            raise ScenarioError(f"{self._at(k)}: unknown key")


_REQUIRED = object()


def _invariant(build, path: str):
    try:
        return build()
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario_dict(doc: dict, name: str = "") -> Scenario:
    root = _Section(doc, name)
    root.string("description", default="")

    t = root.child("target")
    target = TargetSpec(
        position=t.vector("position", 3, default=[0.0, 0.0, 0.0]),
        velocity=t.vector("velocity", 3, default=[0.0, 0.0, 0.0]),
        ground=t.boolean("ground", default=False),
    )
    t.reject_unknown()

    g = root.child("grid")
    grid = _invariant(lambda: GridSpec(
        distance=g.number("distance_m", default=10.0),
        beta_step=np.radians(g.number("beta_step_deg", default=10.0)),
        delta_min=np.radians(g.number("delta_min_deg", default=10.0)),
        delta_max=np.radians(g.number("delta_max_deg", default=170.0)),
        delta_step=np.radians(g.number("delta_step_deg", default=10.0)),
    ), g.path)
    g.reject_unknown()

    w = root.child("weights")
    weights = _invariant(lambda: AllocWeights(
        alpha_resource=w.number("alpha_resource", default=0.18),
        alpha_cost=w.number("alpha_cost", default=0.2),
        min_gain=w.number("min_gain", default=0.17),
        max_uavs=w.integer("max_uavs", default=10),
    ), w.path)
    w.reject_unknown()

    s = root.child("sensors")
    cam_sigma = s.vector("camera_sigma_px", 2, default=[6.0, 6.0])
    lidar_sigma = s.vector("lidar_sigma", 3, default=[0.1, 0.02, 0.015])
    sensors = _invariant(lambda: SensorModels(
        camera=CameraIntrinsics(
            fx=s.number("fx", default=381.0),
            fy=s.number("fy", default=381.0),
            cx=s.number("cx", default=320.0),
            cy=s.number("cy", default=240.0),
            noise_cov=tuple(float(x) ** 2 for x in cam_sigma),
        ),
        lidar=LidarNoise(noise_cov=tuple(float(x) ** 2 for x in lidar_sigma)),
    ), s.path)
    eps = s.number("eps", default=1e-6)
    if eps <= 0:
        raise ScenarioError(f"{s.path}.eps: must be positive, got {eps}")
    s.reject_unknown()

    f = root.child("fov")
    hfov_deg = f.number("hfov_deg", default=50.0)
    vfov_deg = f.number("vfov_deg", default=40.0)
    if not 0.0 < hfov_deg < 180.0:
        raise ScenarioError(f"{f.path}.hfov_deg: must lie in (0, 180), got {hfov_deg}")
    if not 0.0 < vfov_deg < 180.0:
        raise ScenarioError(f"{f.path}.vfov_deg: must lie in (0, 180), got {vfov_deg}")
    fov = _invariant(lambda: FovSpec(
        gamma=np.radians(hfov_deg),
        kappa=np.radians(vfov_deg),
        d_max=f.number("d_max_m", default=30.0),
        n_dirs=f.integer("n_dirs", default=72),
        lam=f.number("lambda_per_m", default=0.1),
        k_sectors=f.integer("k_sectors", default=8),
        eta_min_db=f.number("eta_min_db", default=10.0),
    ), f.path)
    f.reject_unknown()

    r = root.child("radio")
    radio = _invariant(lambda: RadioParams(
        rho0=r.number("rho0", default=1e-3),
        alpha=r.number("alpha", default=2.0),
        tx_power=r.number("tx_power_w", default=0.1),
        noise_power=dbm_to_watts(r.number("noise_dbm", default=-110.0)),
    ), r.path)
    r.reject_unknown()

    res = root.child("resources")
    resources = _invariant(lambda: ResourceModel(
        bandwidth_cam=res.number("bandwidth_cam", default=1.0),
        duration_cam=res.number("duration_cam", default=1.0),
        bandwidth_lidar=res.number("bandwidth_lidar", default=3.0),
        duration_lidar=res.number("duration_lidar", default=1.0),
        cost_cam=res.number("cost_cam", default=0.1),
        cost_lidar=res.number("cost_lidar", default=1.0),
    ), res.path)
    res.reject_unknown()

    fl = root.child("flight")
    apf = fl.child("apf")
    flight = FlightConfig(
        k1=fl.number("k1", default=4.0),
        k2=fl.number("k2", default=1.5),
        kp=fl.number("kp", default=10.0),
        mass_kg=fl.number("mass_kg", default=1.0),
        dt_s=fl.number("dt_s", default=0.01),
        horizon_s=fl.number("horizon_s", default=60.0),
        controller=fl.string("controller", default="log", choices={"log", "quad", "apf"}),
        seed=fl.integer("seed", default=_REQUIRED),
        runs=fl.integer("runs", default=1),
        init_cube_half_width_m=fl.number("init_cube_half_width_m", default=15.0),
        apf_ka=apf.number("ka", default=10.0),
        apf_kr=apf.number("kr", default=5.0),
        apf_d0_m=apf.number("d0_m", default=2.0),
    )
    apf.reject_unknown()
    fl.reject_unknown()
    for key, val in (("k1", flight.k1), ("k2", flight.k2), ("kp", flight.kp),
                     ("mass_kg", flight.mass_kg), ("dt_s", flight.dt_s),
                     ("horizon_s", flight.horizon_s),
                     ("init_cube_half_width_m", flight.init_cube_half_width_m),
                     ("apf.ka", flight.apf_ka), ("apf.kr", flight.apf_kr),
                     ("apf.d0_m", flight.apf_d0_m)):
        if val <= 0:
            raise ScenarioError(f"{fl.path}.{key}: must be positive, got {val}")
    if flight.runs < 1:
        raise ScenarioError(f"{fl.path}.runs: must be >= 1, got {flight.runs}")

    root.reject_unknown()
    return Scenario(target=target, grid=grid, weights=weights, sensors=sensors,
                    fov=fov, radio=radio, resources=resources, flight=flight,
                    eps=eps, raw=doc)


def _load_json_object(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: malformed JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return doc


def parse_scenario(path: str | Path) -> Scenario:
    return parse_scenario_dict(_load_json_object(path), name="")


def parse_formation_dict(doc: dict, name: str = "") -> tuple[Formation, SensorModels, float]:
    """Parse an explicit pose-list document (the eval-fim input format).

    Each pose needs a position and sensor; yaw_deg defaults to facing the
    target. An empty pose list is allowed (its log-det is 3*ln(eps))."""
    root = _Section(doc, name)
    target = root.vector("target", 3, default=[0.0, 0.0, 0.0])

    s = root.child("sensors")
    cam_sigma = s.vector("camera_sigma_px", 2, default=[6.0, 6.0])
    lidar_sigma = s.vector("lidar_sigma", 3, default=[0.1, 0.02, 0.015])
    sensors = _invariant(lambda: SensorModels(
        camera=CameraIntrinsics(
            fx=s.number("fx", default=381.0),
            fy=s.number("fy", default=381.0),
            cx=s.number("cx", default=320.0),
            cy=s.number("cy", default=240.0),
            noise_cov=tuple(float(x) ** 2 for x in cam_sigma),
        ),
        lidar=LidarNoise(noise_cov=tuple(float(x) ** 2 for x in lidar_sigma)),
    ), s.path)
    eps = s.number("eps", default=1e-6)
    if eps <= 0:
        raise ScenarioError(f"{s.path}.eps: must be positive, got {eps}")
    s.reject_unknown()

    raw_poses = root._get("poses", _REQUIRED)
    if not isinstance(raw_poses, list):
        raise ScenarioError(f"{root._at('poses')}: expected a list, got {type(raw_poses).__name__}")
    poses = []
    for idx, entry in enumerate(raw_poses):
        sec = _Section(entry, root._at(f"poses[{idx}]"))
        position = sec.vector("position", 3, default=_REQUIRED)
        sensor_name = sec.string("sensor", default=_REQUIRED, choices={"camera", "lidar"})
        yaw_deg = sec.number("yaw_deg", default=None)
        sec.reject_unknown()
        pose = _invariant(lambda: Pose(
            position=position,
            yaw=np.radians(yaw_deg) if yaw_deg is not None
            else yaw_facing_target(position, target),
            sensor=Sensor(sensor_name),
        ), sec.path)
        poses.append(pose)
    root.reject_unknown()
    return Formation(poses=poses, target=target), sensors, eps


def parse_formation(path: str | Path) -> tuple[Formation, SensorModels, float]:
    return parse_formation_dict(_load_json_object(path), name="")

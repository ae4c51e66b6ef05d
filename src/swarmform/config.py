"""Strict scenario parsing.

Scenario documents are JSON with degrees and dBm at this boundary only;
everything downstream works in radians and watts. Unknown keys are
rejected and every diagnostic carries the dotted field path.

Each section is a table of (JSON key, field, reader, unit conversion)
rows. A reader type-checks one value and applies the checks that belong
to that key alone; the section's dataclass is then built from the keys
the document sets, so every default is declared once, on the dataclass
that owns it, and its invariants are reported against the section.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alloc import AllocWeights, GridSpec, ResourceModel
from .flight import CONTROLLERS, ControlGains, step_count
from .fov import MAX_DIRS, FovSpec
from .geom import Formation, yaw_facing_target
from .radio import RadioParams, dbm_to_watts
from .sensing import SensorModels


# the float64 unit roundoff, 2^-53
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


@dataclass(frozen=True)
class TargetSpec:
    """The target's position and velocity, finite 3-vectors held as
    read-only copies (as `Formation` holds its arrays), and whether the
    formation is ground-constrained."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ground: bool = False

    def __post_init__(self):
        for name in ("position", "velocity"):
            value = np.array(getattr(self, name), dtype=float)
            if value.shape != (3,) or not np.isfinite(value).all():
                raise ValueError(f"target {name} must be a finite 3-vector, got {value}")
            value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class FlightConfig:
    gains: ControlGains = field(default_factory=ControlGains)
    dt_s: float = 0.01
    horizon_s: float = 60.0
    controller: str = "log"
    seed: int = 0
    runs: int = 1
    init_cube_half_width_m: float = 15.0

    def __post_init__(self):
        step_count(self.dt_s, self.horizon_s, self.runs)


@dataclass(frozen=True)
class Scenario:
    target: TargetSpec
    grid: GridSpec
    weights: AllocWeights
    sensors: SensorModels
    fov: FovSpec
    radio: RadioParams
    resources: ResourceModel
    flight: FlightConfig
    raw: dict = field(default_factory=dict, repr=False)


# Readers: (value, dotted path) -> the value checked, or a ScenarioError
# naming the path.

def _finite(x) -> bool:
    """True for a finite number; JSON admits NaN, Infinity and integers too
    large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {v!r}")
    if not _finite(v):
        raise ScenarioError(f"{path}: expected a finite number, got {v!r}")
    return float(v)


def _typed(ok, expected: str, shown=repr):
    def read(v, path: str):
        if not ok(v):
            raise ScenarioError(f"{path}: expected {expected}, got {shown(v)}")
        return v
    return read


_integer = _typed(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_boolean = _typed(lambda v: isinstance(v, bool), "a boolean")
_string = _typed(lambda v: isinstance(v, str), "a string")
_list = _typed(lambda v: isinstance(v, list), "a list", lambda v: type(v).__name__)


def _choice(*choices: str):
    def read(v, path: str) -> str:
        if _string(v, path) not in choices:
            raise ScenarioError(f"{path}: expected one of {sorted(choices)}, got {v!r}")
        return v
    return read


def _vector(length: int):
    def read(v, path: str) -> np.ndarray:
        if (not isinstance(v, list) or len(v) != length
                or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)):
            raise ScenarioError(f"{path}: expected a list of {length} numbers, got {v!r}")
        if not all(_finite(x) for x in v):
            raise ScenarioError(f"{path}: expected a list of {length} finite numbers, got {v!r}")
        return np.asarray(v, dtype=float)
    return read


def _bounded(read, ok, rule: str):
    """`read`, then the key's own bound: the value must satisfy `ok`."""
    def bounded(v, path: str):
        x = read(v, path)
        if not ok(x):
            raise ScenarioError(f"{path}: must {rule}, got {x}")
        return x
    return bounded


_positive = _bounded(_number, lambda x: x > 0, "be positive")
_fov_angle = _bounded(_number, lambda x: 0.0 < x < 180.0, "lie in (0, 180)")
_count = _bounded(_integer, lambda x: x >= 1, "be >= 1")
_seed = _bounded(_integer, lambda x: x >= 0, "be >= 0")
_dir_count = _bounded(_integer, lambda x: x <= MAX_DIRS, f"be <= {MAX_DIRS}")


def _squares(sigmas: np.ndarray) -> tuple[float, ...]:
    """Noise standard deviations to the variances the models hold."""
    return tuple(float(x) ** 2 for x in sigmas)


def _same(read, *keys: str) -> tuple:
    """Rows whose JSON key is the field name and that need no conversion."""
    return tuple((key, key, read, None) for key in keys)


_TARGET = (*_same(_vector(3), "position", "velocity"), *_same(_boolean, "ground"))
_GRID = (
    ("distance_m", "distance", _number, None),
    ("beta_step_deg", "beta_step", _number, np.radians),
    ("delta_min_deg", "delta_min", _number, np.radians),
    ("delta_max_deg", "delta_max", _number, np.radians),
    ("delta_step_deg", "delta_step", _number, np.radians),
)
_WEIGHTS = (*_same(_number, "alpha_resource", "alpha_cost", "min_gain"),
            *_same(_integer, "max_uavs"))
_SENSORS = (
    *_same(_number, "fx", "fy", "cx", "cy"),
    ("camera_sigma_px", "camera_cov", _vector(2), _squares),
    ("lidar_sigma", "lidar_cov", _vector(3), _squares),
    *_same(_positive, "eps"),
)
_FOV = (
    ("hfov_deg", "gamma", _fov_angle, np.radians),
    ("vfov_deg", "kappa", _fov_angle, np.radians),
    ("d_max_m", "d_max", _number, None),
    ("n_dirs", "n_dirs", _dir_count, None),
    ("lambda_per_m", "lam", _number, None),
    ("k_sectors", "k_sectors", _dir_count, None),
    ("eta_min_db", "eta_min_db", _number, None),
)
_RADIO = (
    *_same(_number, "rho0", "alpha"),
    ("tx_power_w", "tx_power", _number, None),
    ("noise_dbm", "noise_power", _number, dbm_to_watts),
)
_RESOURCES = _same(_number, "bandwidth_cam", "duration_cam", "bandwidth_lidar",
                   "duration_lidar", "cost_cam", "cost_lidar")
_GAINS = (*_same(_positive, "k1", "k2", "kp"), ("mass_kg", "mass", _positive, None))
_APF = (*_same(_positive, "ka", "kr"), ("d0_m", "d0", _positive, None))
_FLIGHT = (
    *_same(_positive, "dt_s", "horizon_s"),
    *_same(_choice(*CONTROLLERS), "controller"),
    *_same(_seed, "seed"),
    *_same(_count, "runs"),
    *_same(_positive, "init_cube_half_width_m"),
)
_FORMATION_TARGET = _same(_vector(3), "target")
_POSES = _same(_list, "poses")
# an explicit null yaw_deg, like an absent one, faces the target
_POSE = (*_same(_vector(3), "position"),
         ("sensor", "lidar", _choice("camera", "lidar"), lambda v: v == "lidar"),
         ("yaw_deg", "yaw", lambda v, path: v if v is None else _number(v, path), None))


class _Section:
    """One JSON object at a dotted path; `seen` collects the keys read."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ScenarioError(f"{path}: expected an object, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def child(self, key: str) -> "_Section":
        self.seen.add(key)
        return _Section(self.data.get(key, {}), self.at(key))

    def require(self, *keys: str) -> None:
        for key in keys:
            if key not in self.data:
                raise ScenarioError(f"{self.at(key)}: required field missing")

    def take(self, rows) -> dict:
        """Keyword arguments from the keys of `rows` that this section sets,
        each read and converted; an absent key keeps its field's default."""
        kwargs = {}
        for key, name, read, convert in rows:
            self.seen.add(key)
            if key in self.data:
                v = read(self.data[key], self.at(key))
                try:
                    kwargs[name] = v if convert is None else convert(v)
                except OverflowError:   # e.g. a huge noise_dbm or sensor sigma
                    raise ScenarioError(f"{self.at(key)}: must convert to a finite number, "
                                        f"got {self.data[key]}") from None
        return kwargs

    def reject_unknown(self) -> None:
        unknown = set(self.data) - self.seen
        if unknown:
            raise ScenarioError(f"{self.at(sorted(unknown)[0])}: unknown key")


def _invariant(build, path: str):
    """build(), with a ValueError from a dataclass invariant reported at `path`."""
    try:
        return build()
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _build(cls, sec: _Section, rows, **parts):
    """`cls` from the keys of `rows` that `sec` sets, plus `parts`."""
    return _invariant(lambda: cls(**sec.take(rows), **parts), sec.path)


def _section(root: _Section, key: str, cls, rows):
    sec = root.child(key)
    out = _build(cls, sec, rows)
    sec.reject_unknown()
    return out


def parse_scenario_dict(doc: dict) -> Scenario:
    root = _Section(doc, "")
    root.take(_same(_string, "description"))
    target = _section(root, "target", TargetSpec, _TARGET)
    grid = _section(root, "grid", GridSpec, _GRID)
    weights = _section(root, "weights", AllocWeights, _WEIGHTS)
    sensors = _section(root, "sensors", SensorModels, _SENSORS)
    fov = _section(root, "fov", FovSpec, _FOV)
    if grid.distance > fov.d_max:   # coverage assumes every UAV sees the target
        raise ScenarioError(f"{root.at('grid.distance_m')}: must not exceed fov.d_max_m "
                            f"({fov.d_max}), got {grid.distance}")
    # candidates are placed at target + distance * offset: past this reach,
    # 64 ulps of the largest target coordinate exceed 1e-6 of the grid
    # distance, and the rounding moves pitches enough to change the pool
    reach = float(np.abs(target.position).max())
    if 64 * _UNIT_ROUNDOFF * reach > 1e-6 * grid.distance:
        raise ScenarioError(f"{root.at('target.position')}: too far out for grid.distance_m "
                            f"({grid.distance}): coordinates up to "
                            f"{1e-6 * grid.distance / (64 * _UNIT_ROUNDOFF):.4g} m keep the "
                            f"grid's rounding within 1e-6 of its distance, got {reach:g}")
    radio = _section(root, "radio", RadioParams, _RADIO)
    resources = _section(root, "resources", ResourceModel, _RESOURCES)
    fl = root.child("flight")
    fl.require("seed")
    apf = fl.child("apf")
    # one record of the flight law from both sections, the flight keys read first
    gains = _invariant(lambda: ControlGains(**fl.take(_GAINS), **apf.take(_APF)), fl.path)
    flight = _build(FlightConfig, fl, _FLIGHT, gains=gains)
    apf.reject_unknown()
    fl.reject_unknown()
    root.reject_unknown()
    return Scenario(target=target, grid=grid, weights=weights, sensors=sensors,
                    fov=fov, radio=radio, resources=resources, flight=flight, raw=doc)


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
    return parse_scenario_dict(_load_json_object(path))


def parse_formation_dict(doc: dict) -> tuple[Formation, SensorModels]:
    """Parse an explicit pose-list document (the eval-fim input format).

    Each pose needs a position and sensor; yaw_deg defaults to facing the
    target. An empty pose list is allowed (its log-det is 3*ln(eps))."""
    root = _Section(doc, "")
    target = root.take(_FORMATION_TARGET).get("target", np.zeros(3))
    sensors = _section(root, "sensors", SensorModels, _SENSORS)
    root.require("poses")
    positions, yaws, lidar = [], [], []
    for idx, entry in enumerate(root.take(_POSES)["poses"]):
        sec = _Section(entry, root.at(f"poses[{idx}]"))
        sec.require("position", "sensor")
        pose = sec.take(_POSE)
        sec.reject_unknown()
        yaw = pose.get("yaw")
        positions.append(pose["position"])
        yaws.append(np.radians(yaw) if yaw is not None else _invariant(
            lambda: yaw_facing_target(pose["position"], target), sec.path))
        lidar.append(pose["lidar"])
    root.reject_unknown()
    return Formation(np.reshape(positions, (-1, 3)), yaws, lidar, target), sensors


def parse_formation(path: str | Path) -> tuple[Formation, SensorModels]:
    return parse_formation_dict(_load_json_object(path))

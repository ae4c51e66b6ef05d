"""Coordinate conventions shared by every other module.

All angles are in radians internally; degrees appear only at the
config/CLI boundary. Yaw is stored in (-pi, pi] (atan2 range), sector
arithmetic works in [0, 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_DEGENERATE_XY = 1e-9


class DegenerateGeometryError(ValueError):
    """Raised when a UAV/target geometry makes a quantity undefined
    (vertical alignment, coincident positions, zero camera depth)."""


class Sensor(Enum):
    CAMERA = "camera"
    LIDAR = "lidar"


def vec3(x, y, z) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def wrap_pi(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = (-angle + np.pi) % (2.0 * np.pi)
    return float(np.pi - a)


def wrap_2pi(angle: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    return float(angle % (2.0 * np.pi))


@dataclass(frozen=True)
class SphericalPlacement:
    """A (distance, azimuth, pitch) placement on the candidate sphere.

    Pitch delta is elevation-like with range [0, pi] and z = d*sin(delta);
    delta > pi/2 flips the horizontal direction (cos(delta) < 0), which is
    the unique convention consistent with placements quoted at pitch 160
    degrees sitting at horizontal bearing beta + 180 degrees.
    """

    d: float
    beta: float
    delta: float

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError(f"placement distance must be > 0, got {self.d}")
        if not (0.0 <= self.delta <= np.pi):
            raise ValueError(f"pitch must lie in [0, pi], got {self.delta}")
        object.__setattr__(self, "beta", wrap_2pi(self.beta))


@dataclass(frozen=True)
class Pose:
    """A UAV's position, yaw and sensor modality. Pitch and roll are zero;
    the heading vector is [cos(yaw), sin(yaw), 0]."""

    position: np.ndarray
    yaw: float
    sensor: Sensor

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError(f"position must be a finite 3-vector, got {self.position}")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "yaw", wrap_pi(float(self.yaw)))


@dataclass
class Formation:
    """An ordered set of poses plus the target estimate."""

    poses: list[Pose] = field(default_factory=list)
    target: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=float)

    def __len__(self) -> int:
        return len(self.poses)

    def positions(self) -> np.ndarray:
        return np.array([p.position for p in self.poses]).reshape(len(self.poses), 3)


def relative_position(uav: np.ndarray, target: np.ndarray) -> np.ndarray:
    return np.asarray(uav, dtype=float) - np.asarray(target, dtype=float)


def spherical_to_cartesian(p: SphericalPlacement, center: np.ndarray) -> np.ndarray:
    cd, sd = np.cos(p.delta), np.sin(p.delta)
    offset = p.d * np.array([cd * np.cos(p.beta), cd * np.sin(p.beta), sd])
    return np.asarray(center, dtype=float) + offset


def yaw_facing_target(uav: np.ndarray, target: np.ndarray) -> float:
    """Yaw that points the sensor boresight at the target, in (-pi, pi]."""
    dx = float(target[0] - uav[0])
    dy = float(target[1] - uav[1])
    if np.hypot(dx, dy) < _DEGENERATE_XY:
        raise DegenerateGeometryError(
            "UAV is vertically aligned with the target; facing yaw undefined"
        )
    return float(np.arctan2(dy, dx))


def sector_index(theta: float, k: int) -> int:
    """Bucket a bearing into one of k equal azimuth sectors over [0, 2*pi)."""
    if k < 1:
        raise ValueError(f"sector count must be >= 1, got {k}")
    idx = int(np.floor(wrap_2pi(theta) / (2.0 * np.pi / k)))
    return min(idx, k - 1)

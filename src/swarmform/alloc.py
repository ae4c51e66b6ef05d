"""Greedy UAV/sensor allocation on a spherical candidate grid.

The objective is the regularized log-determinant of the swarm FIM; it is
monotone and submodular in the candidate set, so greedy selection with a
stopping threshold carries the classic (1 - 1/e) guarantee against the
budget-constrained optimum. Each candidate's marginal gain is discounted
by a penalty combining its communication resource block and hardware
cost; selection stops when the best net utility drops to the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import (
    DegenerateGeometryError,
    Formation,
    Pose,
    Sensor,
    SphericalPlacement,
    spherical_to_cartesian,
    yaw_facing_target,
)
from .radio import ResourceModel, comm_resource, sensor_cost
from .sensing import DEFAULT_EPS, SensorModels, logdet_reg, uav_fim

_SAME_PLACEMENT = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Spherical candidate grid around the target."""

    distance: float = 10.0
    beta_step: float = np.radians(10.0)
    delta_min: float = np.radians(10.0)
    delta_max: float = np.radians(170.0)
    delta_step: float = np.radians(10.0)

    def __post_init__(self):
        if self.distance <= 0:
            raise ValueError("grid distance must be positive")
        if self.beta_step <= 0 or self.delta_step <= 0:
            raise ValueError("grid steps must be positive")
        if not (0.0 <= self.delta_min <= self.delta_max <= np.pi):
            raise ValueError("pitch range must satisfy 0 <= min <= max <= pi")

    def betas(self) -> np.ndarray:
        n = int(round(2.0 * np.pi / self.beta_step))
        return np.arange(n) * self.beta_step

    def deltas(self) -> np.ndarray:
        n = int(np.floor((self.delta_max - self.delta_min) / self.delta_step + 0.5)) + 1
        return self.delta_min + np.arange(n) * self.delta_step


@dataclass(frozen=True)
class AllocWeights:
    """Penalty weights and the greedy stopping threshold."""

    alpha_resource: float = 0.18
    alpha_cost: float = 0.2
    min_gain: float = 0.17
    max_uavs: int = 10

    def __post_init__(self):
        if self.alpha_resource < 0 or self.alpha_cost < 0:
            raise ValueError("penalty weights must be non-negative")
        if self.max_uavs < 1:
            raise ValueError("max_uavs must be >= 1")


@dataclass(frozen=True)
class Candidate:
    pose: Pose
    fim: np.ndarray
    penalty: float


@dataclass
class AllocationResult:
    formation: Formation
    logdet: float
    gains: list[float] = field(default_factory=list)       # marginal log-det gains per round
    utilities: list[float] = field(default_factory=list)   # gains net of penalty


def candidate_penalty(sensor: Sensor, weights: AllocWeights, resources: ResourceModel) -> float:
    return (
        weights.alpha_resource * comm_resource(sensor, resources)
        + weights.alpha_cost * sensor_cost(sensor, resources)
    )


def build_candidates(
    target: np.ndarray,
    grid: GridSpec,
    weights: AllocWeights,
    resources: ResourceModel,
    models: SensorModels,
    max_boresight_pitch: float = np.radians(20.0),
) -> list[Candidate]:
    """Enumerate feasible (placement, sensor) candidates.

    A placement is feasible when the target-facing yaw is defined (no
    vertical alignment) and the line of sight pitches no more than
    ``max_boresight_pitch`` off the horizontal boresight, i.e. the target
    stays inside the sensors' vertical field of view (half of the default
    40-degree VFOV).
    """
    target = np.asarray(target, dtype=float)
    out: list[Candidate] = []
    for delta in grid.deltas():
        for beta in grid.betas():
            placement = SphericalPlacement(d=grid.distance, beta=float(beta), delta=float(delta))
            position = spherical_to_cartesian(placement, target)
            try:
                yaw = yaw_facing_target(position, target)
            except DegenerateGeometryError:
                continue
            rel = position - target
            pitch = abs(np.arctan2(rel[2], np.hypot(rel[0], rel[1])))
            if pitch > max_boresight_pitch + 1e-12:
                continue
            for sensor in (Sensor.CAMERA, Sensor.LIDAR):
                pose = Pose(position=position, yaw=yaw, sensor=sensor)
                out.append(
                    Candidate(
                        pose=pose,
                        fim=uav_fim(pose, target, models),
                        penalty=candidate_penalty(sensor, weights, resources),
                    )
                )
    return out


def greedy_allocate(
    candidates: list[Candidate],
    target: np.ndarray,
    weights: AllocWeights,
    eps: float = DEFAULT_EPS,
) -> AllocationResult:
    """Penalty-discounted greedy selection with threshold stopping.

    Ties break on candidate order (deterministic). Selecting a candidate
    removes every candidate at the same placement: one airframe per
    grid point, regardless of which sensor it carries.
    """
    if not candidates:
        raise ValueError("candidate set is empty")
    pool = list(candidates)
    fims = np.array([c.fim for c in pool])
    penalties = np.array([c.penalty for c in pool])
    positions = np.array([c.pose.position for c in pool])
    active = np.ones(len(pool), dtype=bool)

    total = np.zeros((3, 3))
    current = logdet_reg(total, eps)
    chosen: list[Pose] = []
    gains: list[float] = []
    utilities: list[float] = []

    while len(chosen) < weights.max_uavs and active.any():
        with_each = np.linalg.slogdet(total + fims + eps * np.eye(3))[1]
        util = with_each - current - penalties
        util[~active] = -np.inf
        best = int(np.argmax(util))
        if util[best] <= weights.min_gain:
            break
        chosen.append(pool[best].pose)
        gains.append(float(with_each[best] - current))
        utilities.append(float(util[best]))
        total = total + fims[best]
        current = float(with_each[best])
        active &= np.linalg.norm(positions - positions[best], axis=1) >= _SAME_PLACEMENT

    formation = Formation(poses=chosen, target=np.asarray(target, dtype=float))
    return AllocationResult(formation=formation, logdet=current, gains=gains, utilities=utilities)

"""Greedy UAV/sensor allocation on a spherical candidate grid.

The candidate set is a `Formation`: one row per feasible (placement,
sensor) pair, built from the grid's geometry and the sensors' vertical
FOV, which a placement's line of sight must stay inside; an empty set is
refused as degenerate geometry. The objective is the
regularized log-determinant of the swarm FIM, which is monotone and
submodular in the candidate set. `sensing.logdet_reg` alone scores it,
one call per round over the stack of every candidate's FIM added to the
running total. Each candidate's marginal gain is
discounted by a penalty read from the `ResourceModel` fields its `lidar`
flag picks: its communication resource block (bandwidth * duration) and its
hardware cost. Selection stops when the best net utility drops to the
threshold.

`greedy_allocate` claims no approximation ratio. One airframe per
placement plus `max_uavs` is a matroid constraint, under which greedy on a
monotone submodular function guarantees only 1/2 (Fisher, Nemhauser &
Wolsey 1978), not 1 - 1/e; and the penalised, threshold-stopped objective
is not monotone, so not even that bound applies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .geom import _DEGENERATE_XY, DegenerateGeometryError, Formation
from .sensing import SensorModels, fims, logdet_reg

_SAME_PLACEMENT = 1e-9
MAX_PLACEMENTS = 1_000_000   # grid points; the 0.25-degree grid has 923,040


@dataclass(frozen=True)
class GridSpec:
    """Spherical candidate grid around the target."""

    distance: float = 10.0
    beta_step: float = np.radians(10.0)
    delta_min: float = np.radians(10.0)
    delta_max: float = np.radians(170.0)
    delta_step: float = np.radians(10.0)

    def __post_init__(self):
        if not self.distance > 0:
            raise ValueError("grid distance must be positive")
        if self.beta_step <= 0 or self.delta_step <= 0:
            raise ValueError("grid steps must be positive")
        if not (0.0 <= self.delta_min <= self.delta_max <= np.pi):
            raise ValueError("pitch range must satisfy 0 <= min <= max <= pi")
        if not np.isfinite([self.distance, self.beta_step, self.delta_step]).all():
            raise ValueError("grid distance and steps must be finite")
        # counted before any array is made; deltas() is made even with no azimuth
        azimuths, rings = self._sizes()
        if not max(azimuths, 1.0) * rings <= MAX_PLACEMENTS:
            raise ValueError(f"steps give {azimuths:.4g} x {rings:.4g} placements, "
                             f"more than {MAX_PLACEMENTS}")

    def _sizes(self) -> list[float]:
        """Azimuth and pitch-ring counts, in Python floats: inf for a tiny step, no warning.
        The rings are the steps from delta_min that stay within delta_max,
        up to a rounding slack."""
        beta, delta, span = map(float, (self.beta_step, self.delta_step,
                                        self.delta_max - self.delta_min))
        return [float(np.round(2.0 * np.pi / beta)), float(np.floor(span / delta + 1e-9)) + 1]

    def betas(self) -> np.ndarray:
        return np.arange(int(self._sizes()[0])) * self.beta_step

    def deltas(self) -> np.ndarray:
        """Pitch rings, each capped at delta_max (the slack can pass it by an ulp)."""
        return np.minimum(self.delta_min + np.arange(int(self._sizes()[1])) * self.delta_step,
                          self.delta_max)


@dataclass(frozen=True)
class AllocWeights:
    """Penalty weights and the greedy stopping threshold."""

    alpha_resource: float = 0.18
    alpha_cost: float = 0.2
    min_gain: float = 0.17
    max_uavs: int = 10

    def __post_init__(self):
        if isinstance(self.max_uavs, bool) or not isinstance(self.max_uavs, int):
            raise ValueError(f"max_uavs must be an integer, got {self.max_uavs!r}")
        if self.alpha_resource < 0 or self.alpha_cost < 0:
            raise ValueError("penalty weights must be non-negative")
        if self.max_uavs < 1:
            raise ValueError("max_uavs must be >= 1")
        if not np.isfinite([self.alpha_resource, self.alpha_cost, self.min_gain]).all():
            raise ValueError("penalty weights and min_gain must be finite")


@dataclass(frozen=True)
class ResourceModel:
    """Time-frequency resource blocks (bandwidth * duration) and hardware
    cost per sensor modality, one field per modality; a candidate's
    `lidar` flag picks which. LiDAR strictly exceeds camera on both."""

    bandwidth_cam: float = 1.0
    duration_cam: float = 1.0
    bandwidth_lidar: float = 3.0
    duration_lidar: float = 1.0
    # Costs calibrated so that with the default `AllocWeights` the greedy
    # allocation lands on the published 2-LiDAR / 4-camera, 6-UAV mix.
    cost_cam: float = 0.1
    cost_lidar: float = 1.0

    def __post_init__(self):
        negative = [f"{k}={v}" for k, v in asdict(self).items() if v < 0]
        if negative:   # a negative block or cost would turn its penalty into a bonus
            raise ValueError("resource blocks and costs must be non-negative, got "
                             + ", ".join(negative))
        if self.bandwidth_lidar * self.duration_lidar <= self.bandwidth_cam * self.duration_cam:
            raise ValueError("LiDAR resource block must exceed the camera's")
        if self.cost_lidar <= self.cost_cam:
            raise ValueError("LiDAR hardware cost must exceed the camera's")
        if not np.isfinite([self.bandwidth_cam, self.duration_cam, self.bandwidth_lidar,
                            self.duration_lidar, self.cost_cam, self.cost_lidar]).all():
            raise ValueError("resource blocks and costs must be finite")


@dataclass
class AllocationResult:
    formation: Formation
    logdet: float
    gains: list[float] = field(default_factory=list)       # marginal log-det gains per round
    utilities: list[float] = field(default_factory=list)   # gains net of penalty


def build_candidates(target: np.ndarray, grid: GridSpec, vfov: float) -> Formation:
    """The feasible (placement, sensor) candidates as the rows of a
    `Formation`, in grid order: pitch outer, azimuth inner, camera before
    LiDAR (greedy breaks ties on this order). Each row faces the target.

    A placement is feasible when the target-facing yaw is defined (no
    vertical alignment) and the line of sight pitches no more than
    ``vfov / 2`` off the horizontal boresight, i.e. the target stays
    inside the sensors' vertical field of view ``vfov`` (`FovSpec.kappa`).

    Pitch delta is elevation-like, z = d*sin(delta); delta > pi/2 flips the
    horizontal direction (cos(delta) < 0), the convention under which
    placements quoted at pitch 160 degrees sit at horizontal bearing
    beta + 180 degrees.
    """
    target = np.asarray(target, dtype=float)
    deltas, betas = grid.deltas(), grid.betas() % (2.0 * np.pi)
    cd = np.cos(deltas)[:, None]
    offsets = np.stack(np.broadcast_arrays(cd * np.cos(betas), cd * np.sin(betas),
                                           np.sin(deltas)[:, None]), axis=-1)
    positions = target + grid.distance * offsets.reshape(-1, 3)
    rel = positions - target
    d_xy = np.hypot(rel[:, 0], rel[:, 1])
    keep = ((d_xy >= _DEGENERATE_XY)
            & ~(np.abs(np.arctan2(rel[:, 2], d_xy)) > vfov / 2.0 + 1e-12))
    facing = target - positions[keep]   # not -rel: the sign of a zero picks atan2's branch
    # each kept placement twice: a camera row, then a LiDAR row
    return Formation(np.repeat(positions[keep], 2, axis=0),
                     np.repeat(np.arctan2(facing[:, 1], facing[:, 0]), 2),
                     np.tile([False, True], int(np.count_nonzero(keep))), target)


def greedy_allocate(candidates: Formation, weights: AllocWeights, resources: ResourceModel,
                    models: SensorModels) -> AllocationResult:
    """Penalty-discounted greedy selection with threshold stopping over the
    rows of `candidates`, scored with `models` through `logdet_reg` and the
    models' eps; the result's formation is the rows picked, in the order
    picked. `DegenerateGeometryError` if there is no row; `FloatingPointError`
    if a round's regularized FIMs are not all positive definite.

    Ties break on candidate order (deterministic). Selecting a candidate
    removes every candidate at the same placement: one airframe per
    grid point, regardless of which sensor it carries.
    """
    if not candidates:
        raise DegenerateGeometryError("candidate grid is empty after FOV filtering")
    positions, lidar, rm = candidates.positions, candidates.lidar, resources

    def penalty(bandwidth: float, duration: float, cost: float) -> float:
        return weights.alpha_resource * (bandwidth * duration) + weights.alpha_cost * cost

    penalties = np.where(lidar, penalty(rm.bandwidth_lidar, rm.duration_lidar, rm.cost_lidar),
                         penalty(rm.bandwidth_cam, rm.duration_cam, rm.cost_cam))
    row_fims = fims(candidates, models)
    active = np.ones(len(candidates), dtype=bool)

    total = np.zeros((3, 3))
    current = logdet_reg(total, models.eps)
    chosen: list[int] = []
    gains: list[float] = []
    utilities: list[float] = []

    while len(chosen) < weights.max_uavs and active.any():
        with_each = logdet_reg(total + row_fims, models.eps)
        util = with_each - current - penalties
        util[~active] = -np.inf
        best = int(np.argmax(util))
        if util[best] <= weights.min_gain:
            break
        chosen.append(best)
        gains.append(float(with_each[best] - current))
        utilities.append(float(util[best]))
        total = total + row_fims[best]
        current = float(with_each[best])
        active &= np.linalg.norm(positions - positions[best], axis=1) >= _SAME_PLACEMENT

    formation = Formation(positions[chosen], candidates.yaws[chosen], lidar[chosen],
                          candidates.target)
    return AllocationResult(formation=formation, logdet=current, gains=gains, utilities=utilities)

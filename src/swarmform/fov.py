"""FOV coverage quantification and flip-based formation reconfiguration.

Each UAV's field of view is a rectangular pyramidal frustum (max range,
horizontal FOV gamma, vertical FOV kappa). Coverage is scored over N
horizontal probe directions around the target; the scalar metric Gamma
multiplies total coverage intensity by coverage integrity (the fraction
of directions seen by at least one UAV).

Reconfiguration flips UAVs through the target point — a move that leaves
every per-UAV FIM exactly unchanged — to spread the formation across
azimuth sectors, improving coverage while respecting a minimum-SINR
constraint on the links to the fusion receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .geom import _DEGENERATE_XY, Formation, Pose, relative_position, sector_index, wrap_pi
from .radio import RadioParams, link_stats

_ANGLE_TOL = 1e-9          # boundary-inclusive angular tests
EXHAUSTIVE_LIMIT = 4096    # max flip patterns searched exactly


@dataclass(frozen=True)
class FovSpec:
    gamma: float = np.radians(50.0)     # horizontal FOV
    kappa: float = np.radians(40.0)     # vertical FOV
    d_max: float = 30.0                 # max perception range, m
    n_dirs: int = 72                    # probe directions (5 deg resolution)
    lam: float = 0.1                    # distance weight, 1/m
    k_sectors: int = 8
    eta_min_db: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.gamma < np.pi and 0.0 < self.kappa < np.pi):
            raise ValueError("FOV angles must lie in (0, pi)")
        if self.n_dirs < 4:
            raise ValueError("need at least 4 probe directions")
        if self.k_sectors < 1:
            raise ValueError("sector count must be >= 1")
        if self.lam < 0:
            raise ValueError("distance weight must be non-negative")
        if self.d_max <= 0:
            raise ValueError("max perception range must be positive")


@dataclass
class CoverageReport:
    gamma_metric: float
    xi: float
    uncovered: int
    per_direction: list[float] = field(default_factory=list)


def coverage(formation: Formation, spec: FovSpec) -> CoverageReport:
    """Intensity per probe direction, integrity xi, and the Gamma metric.
    Members straight above or below the target cover no direction."""
    if len(formation) == 0:
        raise ValueError("coverage needs a nonempty formation")
    rel = formation.positions() - formation.target
    d_xy = np.hypot(rel[:, 0], rel[:, 1])
    weights = 1.0 / (1.0 + spec.lam * d_xy)
    bearings = np.arctan2(rel[:, 1], rel[:, 0])
    phi = 2.0 * np.pi * np.arange(spec.n_dirs) / spec.n_dirs
    offset = wrap_pi(bearings[:, None] - phi)   # per (member, direction)
    covers = (np.abs(offset) <= spec.gamma / 2.0 + _ANGLE_TOL) & (d_xy >= _DEGENERATE_XY)[:, None]
    # summed member by member, in member order, as a scalar loop adds them
    per_direction = np.where(covers, weights[:, None], 0.0).sum(axis=0)
    uncovered = int(np.count_nonzero(per_direction == 0.0))
    xi = 1.0 - uncovered / spec.n_dirs
    return CoverageReport(
        gamma_metric=xi * float(np.sum(per_direction)),
        xi=xi,
        uncovered=uncovered,
        per_direction=per_direction.tolist(),
    )


def flip(pose: Pose, target: np.ndarray) -> Pose:
    """Reflect a pose through the target point, re-aiming the sensor.

    The full 3-D point reflection with yaw + pi keeps that UAV's FIM
    contribution exactly unchanged (both measurement Jacobians only
    change sign row-wise), which is what makes flips free moves for the
    coverage optimization.
    """
    target = np.asarray(target, dtype=float)
    return Pose(
        position=2.0 * target - pose.position,
        yaw=wrap_pi(pose.yaw + np.pi),
        sensor=pose.sensor,
    )


def _apply_pattern(formation: Formation, members: tuple[int, ...]) -> Formation:
    poses = list(formation.poses)
    for i in members:
        poses[i] = flip(poses[i], formation.target)
    return Formation(poses=poses, target=formation.target)


def flip_candidates(formation: Formation, spec: FovSpec) -> list[int]:
    """Members eligible to flip: those sharing an azimuth sector with at
    least one other member (flipping a lone occupant cannot spread the
    formation; it just moves the crowding elsewhere)."""
    counts = [0] * spec.k_sectors
    sectors = []
    for pose in formation.poses:
        rel = relative_position(pose.position, formation.target)
        s = sector_index(float(np.arctan2(rel[1], rel[0])), spec.k_sectors)
        sectors.append(s)
        counts[s] += 1
    return [i for i, s in enumerate(sectors) if counts[s] >= 2]


def optimize_formation(
    formation: Formation,
    spec: FovSpec,
    radio: RadioParams,
    receiver: int = 0,
) -> Formation:
    """Maximize Gamma over flips of sector-crowded members, subject to the
    minimum link SINR staying at or above eta_min.

    If the input formation already violates eta_min, the constraint
    relaxes to "no worse than the input's minimum SINR", so coverage can
    still be optimized without degrading an already-stressed network.
    When the gated pattern space is small the search is exhaustive
    (hence exactly optimal over this move set); otherwise steepest-ascent
    sweeps of single flips run to a fixed point. Ties keep the earlier
    (lexicographically smaller) pattern, so the result is deterministic.
    """
    if len(formation) < 2:
        return formation
    gated = flip_candidates(formation, spec)
    if not gated:
        return formation

    base_min = link_stats(formation, receiver, radio)["min_db"]
    floor = min(spec.eta_min_db, base_min)

    def feasible(f: Formation) -> bool:
        return link_stats(f, receiver, radio)["min_db"] >= floor - _ANGLE_TOL

    best = formation
    best_gamma = coverage(formation, spec).gamma_metric

    if 2 ** len(gated) <= EXHAUSTIVE_LIMIT:
        for size in range(1, len(gated) + 1):
            for subset in combinations(gated, size):
                cand = _apply_pattern(formation, subset)
                if not feasible(cand):
                    continue
                g = coverage(cand, spec).gamma_metric
                if g > best_gamma + _ANGLE_TOL:
                    best, best_gamma = cand, g
        return best

    improved = True
    while improved:
        improved = False
        step_best = None
        step_gamma = best_gamma
        for i in gated:
            cand = _apply_pattern(best, (i,))
            if not feasible(cand):
                continue
            g = coverage(cand, spec).gamma_metric
            if g > step_gamma + _ANGLE_TOL:
                step_best, step_gamma = cand, g
        if step_best is not None:
            best, best_gamma = step_best, step_gamma
            improved = True
    return best


def ground_constrain(formation: Formation, target: np.ndarray) -> Formation:
    """Reflect any member below the target's horizontal plane back above
    it (z-mirror about the plane; x, y, yaw untouched)."""
    target = np.asarray(target, dtype=float)
    poses = []
    for pose in formation.poses:
        dz = pose.position[2] - target[2]
        if dz < 0.0:
            p = pose.position.copy()
            p[2] = target[2] - dz
            pose = Pose(position=p, yaw=pose.yaw, sensor=pose.sensor)
        poses.append(pose)
    return Formation(poses=poses, target=target)

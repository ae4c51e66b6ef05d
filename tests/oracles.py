"""Scalar reference implementations that only tests use.

Each spells out a quantity the library computes as array expressions, or
searches exhaustively where the library searches greedily, so tests can
compare against it:

- `Sensor`, `Pose`, `formation_of`, `poses_of`, `flip_pose`, `pose_fim`:
  one member as a record with its modality as an enum, the `Formation`
  whose rows are a list of them and back, and one member's flip and FIM;
- `SphericalPlacement`, `spherical_to_cartesian`, `cartesian_to_spherical`:
  one grid placement and its conversions;
- `camera_project`, `camera_jacobian`, `lidar_measure`, `lidar_jacobian`:
  the measurement models and their Jacobians, one pose at a time;
- `scalar_fim`, `total_fim_loops`, `build_candidates_loops`: one UAV's
  FIM from those Jacobians, the swarm total added member by member, and
  the candidate set built placement by placement, with each row's FIM and
  allocation penalty;
- `target_visible`, `direction_covered`, `coverage_loops`: the FOV
  frustum test and the coverage metric, direction by direction and
  member by member;
- `sinr`, `sinr_db`: the SINR of one link from the oracle's own scalar
  path-loss power, each interferer's power added one by one;
- `wrap_2pi`, `relative_position`, `sector_index`, `flip_candidates_loops`:
  the flip gating, one bearing and one member at a time;
- `optimize_formation_loops`: the flip search building one formation per
  pattern, ground-constrained if asked, and calling `coverage` and
  `link_stats` on it;
- `exhaustive_flip_best`: the best Gamma over every sector-gated flip
  pattern meeting the SINR floor;
- `subset_logdet`, `exhaustive_best`, `greedy_unpenalized`: the
  allocation objective over a list of FIMs and its exhaustive and
  penalty-free greedy optima;
- `greedy_allocate_all_rows`: `alloc.greedy_allocate` scoring every
  candidate with `logdet_reg` in every round, with no screen;
- `mix_ceiling`: the closed-form log-det ceiling of a sensor mix drawn
  from a candidate pool;
- `SwarmState`, `stacked`, `control`, `lyapunov_value`: one swarm's
  state, a list of them as `flight.simulate`'s (R, n, 3) start, and the
  flight law bound as `simulate` binds it, evaluated at one state;
- `squared_norm`, `pair_sum`: a 3-vector's squared norm and the sum
  over a member's pairs, each in the order the kernels fix;
- `law`, `rollout_per_step`: the force law and the Lyapunov candidate
  from one evaluation, and the rollout that records V, the velocity
  errors, the path lengths and run 0's history step by step;
- `step`: one semi-implicit Euler step of a swarm under given forces;
- `write_trace_csv`: the flight trace CSV written row by row with
  `csv.writer`.
"""

import csv
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from swarmform import fov, kernels
from swarmform.alloc import _SAME_PLACEMENT, AllocationResult
from swarmform.flight import ControlGains
from swarmform.fov import (
    _ANGLE_TOL,
    _DEGENERATE_XY,
    CoverageReport,
    FovSpec,
    coverage,
    flip_candidates,
    ground_constrain,
)
from swarmform.geom import (
    DegenerateGeometryError,
    Formation,
    wrap_pi,
    yaw_facing_target,
)
from swarmform.radio import RadioParams, link_stats, to_db
from swarmform.sensing import DEFAULT_EPS, fims, logdet_reg

_DEGENERATE = 1e-9


class Sensor(Enum):
    CAMERA = "camera"
    LIDAR = "lidar"


@dataclass(frozen=True)
class Pose:
    """One UAV: position, yaw and sensor modality. The yaw is wrapped to
    (-pi, pi], as `Formation` stores its yaws."""

    position: np.ndarray
    yaw: float
    sensor: Sensor

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "yaw", wrap_pi(float(self.yaw)))


def formation_of(poses, target) -> Formation:
    """The `Formation` whose rows are `poses`, in order."""
    return Formation(positions=np.reshape([p.position for p in poses], (-1, 3)),
                     yaws=[p.yaw for p in poses],
                     lidar=[p.sensor is Sensor.LIDAR for p in poses], target=target)


def poses_of(formation: Formation) -> list[Pose]:
    """The rows of `formation`, one `Pose` each."""
    return [Pose(position, yaw, Sensor.LIDAR if lidar else Sensor.CAMERA)
            for position, yaw, lidar in zip(formation.positions, formation.yaws,
                                            formation.lidar)]


def flip_pose(pose: Pose, target) -> Pose:
    """`fov.flip` of one member: the pose reflected through the target
    point, its sensor re-aimed."""
    target = np.asarray(target, dtype=float)
    return Pose(
        position=2.0 * target - pose.position,
        yaw=wrap_pi(pose.yaw + np.pi),
        sensor=pose.sensor,
    )


def pose_fim(pose: Pose, target, models) -> np.ndarray:
    """3x3 information matrix a single UAV contributes, from `sensing.fims`."""
    return fims(formation_of([pose], target), models)[0]


def wrap_2pi(angle: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    return float(angle % (2.0 * np.pi))


def relative_position(uav: np.ndarray, target: np.ndarray) -> np.ndarray:
    return np.asarray(uav, dtype=float) - np.asarray(target, dtype=float)


def sector_index(theta: float, k: int) -> int:
    """Bucket a bearing into one of k equal azimuth sectors over [0, 2*pi)."""
    if k < 1:
        raise ValueError(f"sector count must be >= 1, got {k}")
    idx = int(np.floor(wrap_2pi(theta) / (2.0 * np.pi / k)))
    return min(idx, k - 1)


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


def spherical_to_cartesian(p: SphericalPlacement, center) -> np.ndarray:
    cd, sd = np.cos(p.delta), np.sin(p.delta)
    offset = p.d * np.array([cd * np.cos(p.beta), cd * np.sin(p.beta), sd])
    return np.asarray(center, dtype=float) + offset


def cartesian_to_spherical(point, center) -> SphericalPlacement:
    """Inverse of spherical_to_cartesian. Unique only for delta in (0, pi/2);
    outside that band the (beta, delta) chart is non-unique."""
    rel = relative_position(point, center)
    d = float(np.linalg.norm(rel))
    if d < _DEGENERATE_XY:
        raise DegenerateGeometryError("point coincides with center")
    delta = float(np.arcsin(np.clip(rel[2] / d, -1.0, 1.0)))
    beta = float(np.arctan2(rel[1], rel[0]))
    return SphericalPlacement(d=d, beta=wrap_2pi(beta), delta=delta)


def _camera_depth(pose, target) -> float:
    dx, dy, _ = pose.position - np.asarray(target, dtype=float)
    z = np.cos(pose.yaw) * dx + np.sin(pose.yaw) * dy
    if abs(z) < _DEGENERATE:
        raise DegenerateGeometryError("target lies in the camera's focal plane")
    return float(z)


def camera_project(pose, target, models) -> tuple[float, float]:
    """Noiseless pixel coordinates (u, v) of the target."""
    if pose.sensor is not Sensor.CAMERA:
        raise ValueError("camera_project requires a camera pose")
    dx, dy, dz = pose.position - np.asarray(target, dtype=float)
    c, s = np.cos(pose.yaw), np.sin(pose.yaw)
    z = _camera_depth(pose, target)
    u = -models.fx * (c * dy - s * dx) / z + models.cx
    v = -models.fy * dz / z + models.cy
    return float(u), float(v)


def camera_jacobian(pose, target, models) -> np.ndarray:
    """2x3 Jacobian of (u, v) with respect to the target position."""
    dx, dy, dz = pose.position - np.asarray(target, dtype=float)
    c, s = np.cos(pose.yaw), np.sin(pose.yaw)
    z = _camera_depth(pose, target)
    z2 = z * z
    return np.array([
        [-models.fx * dy / z2, models.fx * dx / z2, 0.0],
        [-models.fy * c * dz / z2, -models.fy * s * dz / z2, models.fy / z],
    ])


def lidar_measure(pose, target) -> tuple[float, float, float]:
    """Noiseless (range, azimuth, pitch) of the UAV relative to the target.

    Azimuth uses the full-quadrant atan2 form.
    """
    rel = pose.position - np.asarray(target, dtype=float)
    d = float(np.linalg.norm(rel))
    if d < _DEGENERATE:
        raise DegenerateGeometryError("UAV coincides with the target")
    beta = float(np.arctan2(rel[1], rel[0]))
    delta = float(np.arctan2(rel[2], np.hypot(rel[0], rel[1])))
    return d, beta, delta


def lidar_jacobian(pose, target) -> np.ndarray:
    """3x3 Jacobian of (range, azimuth, pitch) with respect to the target."""
    dx, dy, dz = pose.position - np.asarray(target, dtype=float)
    d_xy = float(np.hypot(dx, dy))
    if d_xy < _DEGENERATE:
        raise DegenerateGeometryError("vertical alignment: azimuth undefined")
    d, beta, _ = lidar_measure(pose, target)
    d2 = d * d
    sb, cb = np.sin(beta), np.cos(beta)
    return np.array([
        [-dx / d, -dy / d, -dz / d],
        [sb / d_xy, -cb / d_xy, 0.0],
        [dz * cb / d2, dz * sb / d2, -d_xy / d2],
    ])


def scalar_fim(pose, target, models) -> np.ndarray:
    """One UAV's FIM, (J^T Q^-1) J, from the per-pose Jacobian."""
    if pose.sensor is Sensor.CAMERA:
        jac = camera_jacobian(pose, target, models)
        inv_var = 1.0 / np.asarray(models.camera_cov)
    else:
        jac = lidar_jacobian(pose, target)
        inv_var = 1.0 / np.asarray(models.lidar_cov)
    return (jac.T * inv_var) @ jac


def total_fim_loops(formation, models) -> np.ndarray:
    """Sum of per-UAV FIMs, added one by one in member order."""
    out = np.zeros((3, 3))
    for pose in poses_of(formation):
        out += scalar_fim(pose, formation.target, models)
    return out


def build_candidates_loops(target, grid, weights, resources, models, max_boresight_pitch):
    """`alloc.build_candidates` placement by placement: one
    `SphericalPlacement`, `Pose` and `scalar_fim` per candidate. Returns
    the rows as a `Formation`, their FIMs (N, 3, 3) and their allocation
    penalties (N,), each read from the `ResourceModel` fields of the row's
    sensor."""
    target = np.asarray(target, dtype=float)
    costs = {Sensor.CAMERA: (resources.bandwidth_cam, resources.duration_cam,
                             resources.cost_cam),
             Sensor.LIDAR: (resources.bandwidth_lidar, resources.duration_lidar,
                            resources.cost_lidar)}
    poses, row_fims, penalties = [], [], []
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
                bandwidth, duration, cost = costs[sensor]
                poses.append(pose)
                row_fims.append(scalar_fim(pose, target, models))
                penalties.append(weights.alpha_resource * (bandwidth * duration)
                                 + weights.alpha_cost * cost)
    return (formation_of(poses, target), np.array(row_fims, dtype=float).reshape(-1, 3, 3),
            np.array(penalties, dtype=float))


def target_visible(pose, target, spec) -> bool:
    """True iff the target sits inside the pose's FOV frustum."""
    rel = np.asarray(target, dtype=float) - pose.position
    d = float(np.linalg.norm(rel))
    if d > spec.d_max + _ANGLE_TOL:
        return False
    d_xy = float(np.hypot(rel[0], rel[1]))
    if d_xy < _DEGENERATE_XY:
        return False  # straight above/below: horizontal bearing undefined
    bearing_err = abs(wrap_pi(np.arctan2(rel[1], rel[0]) - pose.yaw))
    if bearing_err > spec.gamma / 2.0 + _ANGLE_TOL:
        return False
    elevation = abs(np.arctan2(rel[2], d_xy))
    return elevation <= spec.kappa / 2.0 + _ANGLE_TOL


def direction_covered(k, pose, target, spec) -> bool:
    """True iff probe direction k falls within gamma/2 of the UAV's
    horizontal bearing from the target."""
    if not 0 <= k < spec.n_dirs:
        raise ValueError(f"direction index {k} outside [0, {spec.n_dirs})")
    rel = relative_position(pose.position, target)
    if np.hypot(rel[0], rel[1]) < _DEGENERATE_XY:
        return False
    phi = 2.0 * np.pi * k / spec.n_dirs
    offset = abs(wrap_pi(np.arctan2(rel[1], rel[0]) - phi))
    return offset <= spec.gamma / 2.0 + _ANGLE_TOL


def coverage_loops(formation, spec) -> tuple[CoverageReport, list[float]]:
    """`fov.coverage` as a double loop over directions and members, and
    the intensity in each probe direction."""
    weights = []
    bearings = []
    for pose in poses_of(formation):
        rel = relative_position(pose.position, formation.target)
        d_xy = float(np.hypot(rel[0], rel[1]))
        if d_xy < _DEGENERATE_XY or float(np.hypot(d_xy, rel[2])) > spec.d_max + _ANGLE_TOL:
            continue
        weights.append(1.0 / (1.0 + spec.lam * d_xy))
        bearings.append(np.arctan2(rel[1], rel[0]))
    per_direction = []
    uncovered = 0
    for k in range(spec.n_dirs):
        phi = 2.0 * np.pi * k / spec.n_dirs
        phi_k = 0.0
        for w, b in zip(weights, bearings):
            if abs(wrap_pi(b - phi)) <= spec.gamma / 2.0 + _ANGLE_TOL:
                phi_k += w
        per_direction.append(phi_k)
        if phi_k == 0.0:
            uncovered += 1
    xi = 1.0 - uncovered / spec.n_dirs
    report = CoverageReport(gamma_metric=xi * float(np.sum(per_direction)), xi=xi,
                            uncovered=uncovered)
    return report, per_direction


def _power(tx, rx, rp) -> float:
    """tx_power * rho0 * d^-alpha with the distance d and the power as
    Python floats, written here rather than taken from `radio`, so a
    library change to how the power is computed shows in `sinr`."""
    d = float(np.linalg.norm(tx - rx))
    if d < _DEGENERATE:
        raise DegenerateGeometryError("coincident transmitter and receiver")
    return rp.tx_power * rp.rho0 * d ** (-rp.alpha)


def sinr(i, j, formation, rp) -> float:
    """SINR of the link i -> j; every member other than i and j interferes."""
    if i == j:
        raise ValueError("transmitter and receiver must differ")
    pts = formation.positions
    signal = _power(pts[i], pts[j], rp)
    interference = sum(
        _power(pts[k], pts[j], rp)
        for k in range(len(pts))
        if k not in (i, j)
    )
    return signal / (interference + rp.noise_power)


def sinr_db(i, j, formation, rp) -> float:
    return to_db(sinr(i, j, formation, rp))


def flip_candidates_loops(formation: Formation, spec: FovSpec) -> list[int]:
    """`fov.flip_candidates` one member at a time: the members whose
    azimuth sector holds at least one other member."""
    counts = [0] * spec.k_sectors
    sectors = []
    for pose in poses_of(formation):
        rel = relative_position(pose.position, formation.target)
        s = sector_index(float(np.arctan2(rel[1], rel[0])), spec.k_sectors)
        sectors.append(s)
        counts[s] += 1
    return [i for i, s in enumerate(sectors) if counts[s] >= 2]


def _apply_pattern(formation: Formation, members: tuple[int, ...]) -> Formation:
    """`formation` with each of `members` reflected through the target and
    turned by pi, row by row, as `flip_pose` does."""
    positions, yaws = formation.positions.copy(), formation.yaws.copy()
    for i in members:
        positions[i] = 2.0 * formation.target - positions[i]
        yaws[i] = wrap_pi(yaws[i] + np.pi)
    return Formation(positions, yaws, formation.lidar, formation.target)


def optimize_formation_loops(formation: Formation, spec: FovSpec,
                             radio: RadioParams, ground: bool = False) -> Formation:
    """`fov.optimize_formation` pattern by pattern: one `Formation` of new
    poses per flip pattern, scored by `coverage` and `link_stats`. With
    `ground`, the input and every candidate are ground-constrained first.
    It reads `fov.EXHAUSTIVE_LIMIT` when called, so a test can force either
    branch."""
    mirror = ground_constrain if ground else (lambda f: f)
    formation = mirror(formation)
    if len(formation) < 2:
        return formation
    gated = flip_candidates_loops(formation, spec)
    if not gated:
        return formation

    base_min = link_stats(formation, radio)["min_db"]
    floor = min(spec.eta_min_db, base_min)

    def feasible(f: Formation) -> bool:
        return link_stats(f, radio)["min_db"] >= floor - _ANGLE_TOL

    best = formation
    best_gamma = coverage(formation, spec).gamma_metric

    if 2 ** len(gated) <= fov.EXHAUSTIVE_LIMIT:
        for size in range(1, len(gated) + 1):
            for subset in combinations(gated, size):
                cand = mirror(_apply_pattern(formation, subset))
                if not feasible(cand):
                    continue
                g = coverage(cand, spec).gamma_metric
                if g > best_gamma + _ANGLE_TOL:
                    best, best_gamma = cand, g
        return best

    # steepest ascent over the current pattern's single flips, each
    # pattern applied to the input
    pattern: set[int] = set()
    improved = True
    while improved:
        improved = False
        step_best = None
        step_gamma = best_gamma
        for i in gated:
            cand_pattern = pattern ^ {i}
            cand = mirror(_apply_pattern(formation, tuple(sorted(cand_pattern))))
            if not feasible(cand):
                continue
            g = coverage(cand, spec).gamma_metric
            if g > step_gamma + _ANGLE_TOL:
                step_best, step_gamma, step_pattern = cand, g, cand_pattern
        if step_best is not None:
            best, best_gamma, pattern = step_best, step_gamma, step_pattern
            improved = True
    return best


def exhaustive_flip_best(formation, spec, radio) -> float:
    """Best Gamma over every pattern of sector-gated flips meeting the
    same SINR floor as `fov.optimize_formation`. Exponential; small swarms."""
    gated = np.flatnonzero(flip_candidates(formation, spec))
    base_min = link_stats(formation, radio)["min_db"]
    floor = min(spec.eta_min_db, base_min)
    best = coverage(formation, spec).gamma_metric
    for size in range(1, len(gated) + 1):
        for subset in combinations(gated, size):
            poses = [flip_pose(p, formation.target) if i in subset else p
                     for i, p in enumerate(poses_of(formation))]
            cand = formation_of(poses, formation.target)
            if link_stats(cand, radio)["min_db"] < floor - _ANGLE_TOL:
                continue
            best = max(best, coverage(cand, spec).gamma_metric)
    return best


def subset_logdet(fims, eps=DEFAULT_EPS) -> float:
    """Objective value of a subset of candidate FIMs (empty subset included)."""
    total = np.zeros((3, 3))
    for fim in fims:
        total = total + fim
    return logdet_reg(total, eps)


def exhaustive_best(fims, k, eps=DEFAULT_EPS):
    """Best objective over all subsets of size <= k, as (indices, value)."""
    best_idx = ()
    best_val = logdet_reg(np.zeros((3, 3)), eps)
    for size in range(1, min(k, len(fims)) + 1):
        for idx in combinations(range(len(fims)), size):
            val = subset_logdet([fims[i] for i in idx], eps)
            if val > best_val:
                best_idx, best_val = idx, val
    return best_idx, best_val


def greedy_unpenalized(fims, k, eps=DEFAULT_EPS):
    """Cardinality-constrained greedy without penalties (bound-check form),
    as (picked indices, value)."""
    fims = np.array(fims)
    active = np.ones(len(fims), dtype=bool)
    total = np.zeros((3, 3))
    current = logdet_reg(total, eps)
    picked = []
    for _ in range(min(k, len(fims))):
        vals = np.linalg.slogdet(total + fims + eps * np.eye(3))[1]
        vals[~active] = -np.inf
        best = int(np.argmax(vals))
        if vals[best] <= current:
            break
        picked.append(best)
        total = total + fims[best]
        current = float(vals[best])
        active[best] = False
    return picked, current


def greedy_allocate_all_rows(candidates, weights, resources, models):
    """`alloc.greedy_allocate` as it was before its screen: each round
    scores every candidate, active or not, with one `logdet_reg` call."""
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


def mix_ceiling(candidates, models, lidars, cameras) -> float:
    """3 log((a T_L + b T_C + 3 eps) / 3), with a = `lidars`, b = `cameras`
    and T the largest FIM trace of each modality among `candidates`: no
    formation of that mix drawn from the pool has a larger log det(F +
    eps I). By AM-GM on the eigenvalues of the 3 x 3 matrix F + eps I,
    log det <= 3 log(tr / 3), with equality only where it is isotropic,
    and the trace is additive over members."""
    traces = np.trace(fims(candidates, models), axis1=1, axis2=2)
    t_lidar = traces[candidates.lidar].max(initial=0.0)
    t_camera = traces[~candidates.lidar].max(initial=0.0)
    return float(3.0 * np.log((lidars * t_lidar + cameras * t_camera + 3.0 * models.eps) / 3.0))


@dataclass
class SwarmState:
    """One swarm's positions and velocities, each (n, 3), at `time`."""

    positions: np.ndarray      # (n, 3) m
    velocities: np.ndarray     # (n, 3) m/s
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape or self.positions.shape[1] != 3:
            raise ValueError("positions and velocities must both be (n, 3)")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise ValueError("swarm state must be finite")

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def stacked(states) -> tuple[np.ndarray, np.ndarray]:
    """`flight.simulate`'s start: the (R, n, 3) positions and velocities
    of `states`, one run each."""
    return np.stack([s.positions for s in states]), np.stack([s.velocities for s in states])


def squared_norm(a):
    """|a|^2 over a last axis of 3, in the kernels' order (x^2 + z^2) + y^2."""
    return (a[..., 0] * a[..., 0] + a[..., 2] * a[..., 2]) + a[..., 1] * a[..., 1]


def pair_sum(w, a):
    """sum_j w[r, i, j] * a[r, i, j] (R, n, 3) of w (R, n, n) and a
    (R, n, n, 3), in the kernels' order: one term after another from
    j = 0. A w of None weighs every term 1."""
    terms = a if w is None else w[..., None] * a
    total = terms[:, :, 0]
    for j in range(1, terms.shape[2]):
        total = total + terms[:, :, j]
    return total


def law(ctrl, slots, gains, vt):
    """The force law and the Lyapunov candidate from one evaluation per
    state, the form `rollout_per_step` steps with; `control` and
    `lyapunov_value` read it too.

    The flight law of one swarm whose target moves at vt: a function
    (p, v, tgt) -> (u, V) of a batch of states, p and v (R, n, 3), giving
    the control input u (R, n, 3) of controller `ctrl` and the logarithmic
    Lyapunov candidate V (R,). Both come from one evaluation because they
    share the pairwise offsets. `gains` gives mass, k1, k2 and kp, and
    ka, kr and d0 for APF. Damping is -k2 * (v - vt), and the kinetic
    term of V is mass * sum_i |v_i - vt|^2 / 2. Squared norms and the sums
    over j take the kernels' orders (`squared_norm`, `pair_sum`).

    APF forces of members that coincide with another member are +inf on x.
    """
    mass, k1, k2, kp = gains.mass, gains.k1, gains.k2, gains.kp
    ka, kr, d0 = gains.ka, gains.kr, gains.d0
    n = len(slots)
    slot_diff = slots[:, None, :] - slots[None, :, :]
    # edges i < j as flat indices; np.take keeps each run's row contiguous,
    # so its sum below reduces in the same pairwise order as for one run
    edges = np.flatnonzero(np.triu(np.ones((n, n)), 1))
    diag = np.arange(n)

    def evaluate(p, v, tgt):
        # d[r, i, j] = p[r, i] - p[r, j], as one contiguous subtraction of
        # (R, n, 3n) rows: each p_i repeated n times against the whole swarm
        runs = len(p)
        d = (np.repeat(p, n, axis=1).reshape(runs, n, 3 * n)
             - p.reshape(runs, 1, 3 * n)).reshape(runs, n, n, 3)
        e = d - slot_diff
        sq = squared_norm(e)
        dv = v - vt
        err_l = p[:, 0] - (tgt + slots[0])
        lyap = (0.5 * k1 * np.log1p(np.take(sq.reshape(runs, -1), edges, axis=1)).sum(axis=1)
                + 0.5 * (mass * dv * dv).sum(axis=(1, 2))
                # a row-by-column matmul per run: the same dot product as err_l @ err_l
                + 0.5 * kp * np.matmul(err_l[:, None, :], err_l[:, :, None])[:, 0, 0])
        if ctrl == "apf":
            u = -ka * (p - (tgt + slots)) - k2 * dv
            dn = np.sqrt(squared_norm(d))
            dn[:, diag, diag] = np.inf
            coincident = dn < kernels._TINY
            active = (dn < d0) & ~coincident
            coef = np.zeros_like(dn)
            coef[active] = kr * (1.0 / dn[active] - 1.0 / d0) / dn[active] ** 3
            u += pair_sum(coef, d)
            if coincident.any():
                u[coincident.any(axis=2), 0] = np.inf
        else:
            # a member's own term weighs e_ii = +0.0, so it adds nothing
            w = 1.0 / (1.0 + sq) if ctrl == "log" else None
            u = -k1 * pair_sum(w, e) - k2 * dv
            u[:, 0] -= kp * err_l
        return u, lyap

    return evaluate


def rollout_per_step(ctrl, slots, gains, vt, p0, v0, tgt0, dt, steps):
    """`kernels.rollout` as a loop that records every output at every
    step, with the arguments and the return of `kernels.rollout`; the
    block-reduced rollout must equal it bit for bit.

    Fly R runs of `law(ctrl, slots, gains, vt)` with every member's
    mass `gains.mass`, for `steps` steps of `dt` from (p0, v0), both
    (R, n, 3), the target moving from tgt0 at vt.

    Returns, as a tuple of arrays:
    - P, V (steps+1, n, 3) and U (steps, n, 3): positions, velocities and
      controls of run 0;
    - lyap (R, steps+1): the Lyapunov trace of every run;
    - path (R, n): each member's path length, the per-step distances
      summed in step order;
    - vel_err (R, steps+1, n): each member's |v - vt| at every step;
    - p_final (R, n, 3): the final positions.

    A non-finite force in any run leaves that run's state non-finite for
    the rest of the rollout, so it shows in p_final.
    """
    evaluate = law(ctrl, slots, gains, vt)
    mass = gains.mass
    runs, n = p0.shape[:2]
    P = np.empty((steps + 1, n, 3))
    V = np.empty((steps + 1, n, 3))
    U = np.empty((steps, n, 3))
    lyap = np.empty((runs, steps + 1))
    path = np.zeros((runs, n))
    vel_err = np.empty((runs, steps + 1, n))

    p = p0.copy()
    v = v0.copy()
    tgt = tgt0.copy()
    P[0] = p[0]
    V[0] = v[0]
    # a non-finite run turns inf into NaN (inf - inf); that is reported by
    # the caller from p_final, not warned about step by step
    with np.errstate(invalid="ignore", over="ignore"):
        u, lyap[:, 0] = evaluate(p, v, tgt)
        vel_err[:, 0] = np.linalg.norm(v - vt, axis=2)
        for s in range(steps):
            U[s] = u[0]
            v = v + u / mass * dt
            p_next = p + v * dt
            path += np.linalg.norm(p_next - p, axis=2)
            p = p_next
            tgt = tgt + vt * dt
            P[s + 1] = p[0]
            V[s + 1] = v[0]
            vel_err[:, s + 1] = np.linalg.norm(v - vt, axis=2)
            # the forces of the next step and V at this state
            u, lyap[:, s + 1] = evaluate(p, v, tgt)
    return P, V, U, lyap, path, vel_err, p


def _law_at(state: SwarmState, formation: Formation, velocity: np.ndarray, controller: str,
            gains: ControlGains):
    """(control input (n, 3), Lyapunov candidate) of `law` bound as
    `flight.simulate` binds it toward `formation`, whose target moves at
    `velocity`, on the complete graph led by member 0, evaluated at
    `state` as a batch of one."""
    velocity = np.asarray(velocity, dtype=float)
    evaluate = law(controller, formation.positions - formation.target, gains, velocity)
    u, lyap = evaluate(state.positions[None], state.velocities[None],
                       formation.target + state.time * velocity)
    return u[0], float(lyap[0])


def control(state: SwarmState, formation: Formation, velocity: np.ndarray, controller: str,
            gains: ControlGains) -> np.ndarray:
    """Control input of `controller` at `state`, as `simulate` applies it.

    log: saturating per-edge force k1*e/(1+|e|^2); quad: linear per-edge
    force k1*e; both pull the leader toward its slot with kp. apf: every
    member attracted to its own slot with gains.ka, plus pairwise repulsion
    within gains.d0. All three damp the velocity error against the target,
    -gains.k2 * (v - velocity).
    """
    u, _ = _law_at(state, formation, velocity, controller, gains)
    if not np.isfinite(u).all():
        raise FloatingPointError("non-finite control force, e.g. from coincident UAVs under APF")
    return u


def lyapunov_value(state: SwarmState, formation: Formation, velocity: np.ndarray,
                   gains: ControlGains) -> float:
    """Lyapunov candidate of the logarithmic controller at `state`."""
    return _law_at(state, formation, velocity, "log", gains)[1]


def step(state: SwarmState, forces: np.ndarray, mass: float, dt: float) -> SwarmState:
    """Semi-implicit Euler for members of one mass: velocity first, then
    position with the new velocity."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    forces = np.asarray(forces, dtype=float)
    if not np.isfinite(forces).all():
        raise FloatingPointError("non-finite control force")
    v = state.velocities + forces / mass * dt
    p = state.positions + v * dt
    return SwarmState(positions=p, velocities=v, time=state.time + dt)


def write_trace_csv(path, traj) -> None:
    """Run 0's time series, one `csv.writer` row per step: t, each member's
    position and velocity, each member's control (0.0 after the last step)
    and V."""
    n = traj.positions.shape[1]
    header = ["t"]
    for i in range(n):
        header += [f"{axis}{i}" for axis in ("px", "py", "pz", "vx", "vy", "vz")]
    for i in range(n):
        header += [f"{axis}{i}" for axis in ("ux", "uy", "uz")]
    header.append("V")
    times = traj.times.tolist()
    lyap = traj.lyapunov[0].tolist()
    idle = [0.0] * (3 * n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # writes each float as its repr
        writer.writerow(header)
        for t, time in enumerate(times):
            state = np.concatenate((traj.positions[t], traj.velocities[t]), axis=1)
            u = traj.controls[t].ravel().tolist() if t < len(traj.controls) else idle
            writer.writerow([time, *state.ravel().tolist(), *u, lyap[t]])

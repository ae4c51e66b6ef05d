"""Greedy UAV/sensor allocation on a spherical candidate grid.

The candidate set is a `Formation`: one row per feasible (placement,
sensor) pair, built from the grid's geometry and the sensors' vertical
FOV, which a placement's line of sight must stay inside; an empty set is
refused as degenerate geometry. The objective is the
regularized log-determinant of the swarm FIM, which is monotone and
submodular in the candidate set. `sensing.logdet_reg` alone scores it
exactly. Each round first screens every candidate: a closed-form 3x3
determinant of the running total plus the candidate's FIM, with a stated
rounding-error radius, bounds the utility `logdet_reg` would give it, and
only the candidates whose bound still reaches the round's best are scored
exactly (`greedy_allocate` derives the radius). Each candidate's marginal
gain is discounted by a penalty read from the `ResourceModel` fields its `lidar`
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
# a pitch ring is dropped whole only when it misses the vertical FOV by this
# much more than the rounding of its placements can move their pitch
_RING_MARGIN = 1e-6

# The greedy screen (see `greedy_allocate`): the unit roundoff, the rounding
# constant K, the largest relative determinant error a row may carry and
# still be ruled out, and the floor under mu^3 that keeps the error of
# underflow negligible.
_U = np.finfo(float).eps / 2.0
_K = 128.0
_SURE = 1e-3
_CUBE_MIN = np.finfo(float).tiny / _U


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
    # A pitch ring that misses the FOV by more than `_RING_MARGIN` is never
    # built. Its line of sight pitches by min(delta, pi - delta); rounding
    # the placements (target + distance * offset - target) moves the pitch
    # the test below measures by under 64 u (1 + |target|max / distance),
    # which exceeds pi wherever that bound could fail, so the test keeps the
    # same placements as on the whole grid.
    with np.errstate(over="ignore"):
        margin = _RING_MARGIN + 64.0 * _U * (1.0 + np.abs(target).max() / grid.distance)
    deltas = deltas[~(np.minimum(deltas, np.pi - deltas) > vfov / 2.0 + 1e-12 + margin)]
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


def _cofactors(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The cofactor matrix of a 3x3 matrix, or of each one of a (3, 3, N)
    stack: entry (r, c) is m[r+1, c+1] m[r+2, c+2] - m[r+1, c+2] m[r+2, c+1],
    indices mod 3, written into `out` if given."""
    out = np.empty(m.shape) if out is None else out
    for r in range(3):
        r1, r2 = (r + 1) % 3, (r + 2) % 3
        for c in range(3):
            c1, c2 = (c + 1) % 3, (c + 2) % 3
            out[r, c] = m[r1, c1] * m[r2, c2] - m[r1, c2] * m[r2, c1]
    return out


def _screen_tables(row_fims: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The screen's per-candidate constants, made once per call from the
    (N, 3, 3) FIMs: the FIMs as an (N, 9) view, each row F_i flattened
    row-major; a (10, N) table whose column i holds cof F_i, flattened
    alike, then det F_i; and the largest row sum of any |F_i|. As in
    `_screen`, an overflow and its NaNs only leave a row unbounded."""
    n = len(row_fims)
    f = row_fims.reshape(n, 9).T.reshape(3, 3, n)   # a view: f[r, c] is every F's (r, c)
    table = np.empty((10, n))
    with np.errstate(over="ignore", invalid="ignore"):
        cof = _cofactors(f, out=table[:9].reshape(3, 3, n))
        table[9] = f[0, 0] * cof[0, 0] + f[0, 1] * cof[0, 1] + f[0, 2] * cof[0, 2]
        f_rows = max(float((np.abs(f[r, 0]) + np.abs(f[r, 1]) + np.abs(f[r, 2])).max())
                     for r in range(3))
    return row_fims.reshape(n, 9), table, f_rows


def _screen(tables: tuple[np.ndarray, np.ndarray, float], a: np.ndarray, current: float,
            penalties: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lower, upper) on every candidate's exact net utility this
    round, logdet_reg(total + F_i, eps) - current - penalty_i, where `a`
    is total + eps*I and `tables` come from `_screen_tables`; a row the
    screen cannot bound gets (-inf, inf). `greedy_allocate` derives them."""
    f9, table, f_rows = tables
    # overflow, a non-positive det and their NaNs only mark rows as unbounded
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cof = _cofactors(a)
        det = f9 @ cof.ravel()
        det += np.append(a.ravel(), 1.0) @ table
        det += a[0] @ cof[0]
        mu = f_rows + np.abs(a).sum(axis=1).max()
        t = (_K * _U * max(mu * mu * mu, _CUBE_MIN)) / det
        unsure = ~((t > 0.0) & (t < _SURE))
        t += 64.0 * _U * (1024.0 + abs(current) + penalties.max())   # now the radius
        est = np.log(det)
        est -= current
        est -= penalties
        lower, upper = est - t, np.add(est, t, out=est)
        lower[unsure], upper[unsure] = -np.inf, np.inf
        return lower, upper


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

    Each round picks what scoring every row with `logdet_reg` would pick,
    bit for bit, but scores only the rows that can still win. With
    A = total + eps*I, a screen takes every row's determinant D from the
    3x3 identity det(A + F) = det A + <cof A, F> + <A, cof F> + det F: two
    matrix-vector products a round, as cof F and det F are tabled once.
    Let mu be the round's largest row sum of |A| plus the largest row sum
    of any candidate's |F|, one number a round (the candidates' part is
    tabled once), and u the unit roundoff. Each row sum of |A| + |F| for
    the row at hand is at most mu, and every bound below uses mu only as
    such an upper bound, so each holds for every row. D and the
    determinant of slogdet's LU factors differ by under
    66 u mu^3 < K u mu^3 / 1.9, K = 128:

    - Each product the identity sums is one of the 48 monomials of the
      permanent of |A| + |F|, which is at most the product of its row sums,
      so at most mu^3. Forming A, the cofactors' 2x2 determinants, the
      9- and 10-term products and the additions round each monomial at
      most 25 times: D is within 26 u mu^3 of det(A + F).
    - slogdet factors fl(fl(total + F) + eps*I), whose entries lie within
      2u of those of A + F: 6 u mu^3. Partial pivoting keeps every
      multiplier at most 1, so U's rows sum to at most mu, 2 mu and 4 mu
      (growth 4), and the backward error |dM| <= 3u |L||U| (Higham 2002,
      Thm 9.3) adds at most 3u (mu, 3 mu, 7 mu) to the factored matrix's
      row sums; the product of row sums, which bounds the determinant's
      change, moves by at most 11 * 3u mu^3.

    So where t = K u max(mu^3, tiny/u) / D is positive and below 1e-3, the
    row is sure: det(A + F) and the factors' determinant are positive, so
    `logdet_reg` accepts the row, and its log-det lies within t of log D.
    (The max keeps the absolute error of underflow, a few subnormal
    units, far below u * tiny/u.) A sure row has a normal D, so |log D| <
    710, and |log mu| < 237. The logs slogdet sums (one per pivot, each
    pivot at most 4 mu, their product D), the screen's own log, the
    subtractions that form both utilities and the bounds' additions then
    round by less than 64 u (1024 + |current| + the largest penalty), the
    radius's second term.

    The round's floor is the largest lower bound over sure active rows.
    `logdet_reg` scores every row that is not sure, active or not, so a
    round refuses exactly the matrices that scoring every row would, and
    every active row whose upper bound reaches the floor, the floor's own
    row among them. A ruled-out row's exact utility is below the floor,
    so below a scored row's: `np.argmax` over the scored rows, in
    candidate order, picks the same row with the same gain and utility.
    """
    if not candidates:
        raise DegenerateGeometryError("candidate grid is empty after FOV filtering")
    positions, lidar, rm = candidates.positions, candidates.lidar, resources

    def penalty(bandwidth: float, duration: float, cost: float) -> float:
        return weights.alpha_resource * (bandwidth * duration) + weights.alpha_cost * cost

    penalties = np.where(lidar, penalty(rm.bandwidth_lidar, rm.duration_lidar, rm.cost_lidar),
                         penalty(rm.bandwidth_cam, rm.duration_cam, rm.cost_cam))
    row_fims = fims(candidates, models)
    tables = _screen_tables(row_fims)
    active = np.ones(len(candidates), dtype=bool)

    total = np.zeros((3, 3))
    current = logdet_reg(total, models.eps)
    chosen: list[int] = []
    gains: list[float] = []
    utilities: list[float] = []

    while len(chosen) < weights.max_uavs and active.any():
        lower, upper = _screen(tables, total + models.eps * np.eye(3), current, penalties)
        floor = np.max(lower, where=active, initial=-np.inf)
        rows = np.flatnonzero((upper == np.inf) | (active & (upper >= floor)))
        with_each = logdet_reg(total + row_fims[rows], models.eps)
        util = with_each - current - penalties[rows]
        util[~active[rows]] = -np.inf
        k = int(np.argmax(util))
        if util[k] <= weights.min_gain:
            break
        best = int(rows[k])
        chosen.append(best)
        gains.append(float(with_each[k] - current))
        utilities.append(float(util[k]))
        total = total + row_fims[best]
        current = float(with_each[k])
        # a row the norm test removes lies within _SAME_PLACEMENT of best along
        # x too (|dx| <= |d|; twice that for rounding), so only those are tested
        near = np.flatnonzero(np.abs(positions[:, 0] - positions[best, 0])
                              < 2.0 * _SAME_PLACEMENT)
        active[near] &= (np.linalg.norm(positions[near] - positions[best], axis=1)
                         >= _SAME_PLACEMENT)

    formation = Formation(positions[chosen], candidates.yaws[chosen], lidar[chosen],
                          candidates.target)
    return AllocationResult(formation=formation, logdet=current, gains=gains, utilities=utilities)

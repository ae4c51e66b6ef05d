"""FOV coverage quantification and flip-based formation reconfiguration.

Each UAV's field of view is a rectangular pyramidal frustum (max range,
horizontal FOV gamma, vertical FOV kappa). Coverage is scored over N
horizontal probe directions around the target; the scalar metric Gamma
multiplies total coverage intensity by coverage integrity (the fraction
of directions seen by at least one UAV).

Reconfiguration flips UAVs through the target point — a move that leaves
every per-UAV FIM exactly unchanged — to spread the formation across
azimuth sectors, improving coverage while respecting a minimum-SINR
constraint on the links into the fusion receiver, member 0. A flip
pattern puts each member in one of two poses, so the search scores a
whole matrix of patterns from each member's two cover rows and link powers.
Under the ground constraint the search mirrors those poses above the
target plane itself, so the floor holds for the poses it returns; the
mirror keeps Gamma but not the FIM's log-det.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import _DEGENERATE_XY, Formation, wrap_pi
from .radio import RadioParams, link_stats, received_powers, sinr_db

_ANGLE_TOL = 1e-9          # boundary-inclusive angular tests
EXHAUSTIVE_LIMIT = 4096    # max flip patterns searched exactly
MAX_DIRS = 1440            # probe directions; a (4,096 patterns x 1,440) float64 table is 45 MiB


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
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (self.n_dirs, self.k_sectors)):
            raise ValueError("n_dirs and k_sectors must be integers, "
                             f"got {self.n_dirs!r} and {self.k_sectors!r}")
        if not 4 <= self.n_dirs <= MAX_DIRS:
            raise ValueError(f"need 4 to {MAX_DIRS} probe directions, got {self.n_dirs}")
        if not 1 <= self.k_sectors <= MAX_DIRS:
            raise ValueError(f"sector count must lie in 1 to {MAX_DIRS}, got {self.k_sectors}")
        if self.lam < 0:
            raise ValueError("distance weight must be non-negative")
        if self.d_max <= 0:
            raise ValueError("max perception range must be positive")
        if not np.isfinite([self.d_max, self.lam, self.eta_min_db]).all():
            raise ValueError("FOV range, distance weight and SINR floor must be finite")
        if not np.isfinite(float(self.lam) * float(self.d_max)):   # so no weight in range is 0
            raise ValueError("distance weight times max perception range must be finite")


@dataclass
class CoverageReport:
    gamma_metric: float
    xi: float
    uncovered: int


def _cover_rows(rel: np.ndarray, spec: FovSpec) -> np.ndarray:
    """Each member's weighted cover row, (..., n_dirs) from offsets rel
    (..., 3) to the target: its distance weight in every probe direction
    it covers, else 0. Members straight above or below the target, and
    members farther from it than the frustum's range d_max, cover nothing."""
    d_xy = np.hypot(rel[..., 0], rel[..., 1])
    seen = (d_xy >= _DEGENERATE_XY) & (np.hypot(d_xy, rel[..., 2]) <= spec.d_max + _ANGLE_TOL)
    # within range lam * d_xy <= lam * d_max, which FovSpec holds finite
    weights = 1.0 / (1.0 + spec.lam * np.where(seen, d_xy, 0.0))
    bearings = np.arctan2(rel[..., 1], rel[..., 0])
    phi = 2.0 * np.pi * np.arange(spec.n_dirs) / spec.n_dirs
    offset = wrap_pi(bearings[..., None] - phi)   # per (member, direction)
    covers = np.abs(offset) <= spec.gamma / 2.0 + _ANGLE_TOL
    return np.where(covers & seen[..., None], weights[..., None], 0.0)


def _gamma(per_direction: np.ndarray, n_dirs: int):
    """(uncovered, xi, Gamma) of intensities per direction along the last axis."""
    uncovered = np.count_nonzero(per_direction == 0.0, axis=-1)
    xi = 1.0 - uncovered / n_dirs
    return uncovered, xi, xi * per_direction.sum(axis=-1)


def coverage(formation: Formation, spec: FovSpec) -> CoverageReport:
    """Intensity per probe direction, integrity xi, and the Gamma metric."""
    if len(formation) == 0:
        raise ValueError("coverage needs a nonempty formation")
    # summed member by member, in member order, as a scalar loop adds them
    per_direction = _cover_rows(formation.positions - formation.target, spec).sum(axis=0)
    uncovered, xi, gamma = _gamma(per_direction, spec.n_dirs)
    return CoverageReport(gamma_metric=float(gamma), xi=float(xi), uncovered=int(uncovered))


def flip(formation: Formation, flips=True) -> Formation:
    """Reflect the members that the (n,) mask `flips` selects (all, by
    default) through the target point, re-aiming their sensors.

    The full 3-D point reflection with yaw + pi keeps each flipped UAV's
    FIM contribution exactly unchanged (both measurement Jacobians only
    change sign row-wise), which is what makes flips free moves for the
    coverage optimization.
    """
    p, t = formation.positions, formation.target
    mask = np.broadcast_to(np.asarray(flips, dtype=bool), formation.yaws.shape)
    return Formation(positions=np.where(mask[:, None], 2.0 * t - p, p),
                     yaws=np.where(mask, wrap_pi(formation.yaws + np.pi), formation.yaws),
                     lidar=formation.lidar, target=t)


def flip_candidates(formation: Formation, spec: FovSpec) -> np.ndarray:
    """(n,) mask of the members eligible to flip: those sharing an azimuth
    sector with at least one other member (flipping a lone occupant cannot
    spread the formation; it just moves the crowding elsewhere). Sectors
    split bearings in [0, 2*pi) into k_sectors equal arcs."""
    rel = formation.positions - formation.target
    bearings = np.arctan2(rel[:, 1], rel[:, 0]) % (2.0 * np.pi)
    sectors = np.minimum(np.floor(bearings / (2.0 * np.pi / spec.k_sectors)).astype(int),
                         spec.k_sectors - 1)
    return np.bincount(sectors)[sectors] >= 2


def _patterns(g: int) -> np.ndarray:
    """Every nonempty 0/1 pattern over g members, one per row, by size, then
    lexicographically with 1 before 0: `sorted(product((1, 0), repeat=g),
    key=sum)[1:]`. Read as a binary number whose most significant bit is
    the first member, `product` lists the patterns by descending value,
    which a stable sort by size keeps."""
    bits = np.arange(2 ** g - 1, 0, -1)[:, None] >> np.arange(g - 1, -1, -1) & 1
    return bits[np.argsort(bits.sum(axis=1), kind="stable")]


def optimize_formation(formation: Formation, spec: FovSpec, radio: RadioParams,
                       ground: bool = False) -> Formation:
    """Maximize Gamma over flips of sector-crowded members, subject to the
    minimum link SINR staying at or above eta_min.

    With `ground`, the search starts from `ground_constrain(formation)` and
    mirrors every flipped member back above the target plane too, so the
    floor is checked on the poses it returns. Gamma reads only bearings and
    horizontal ranges, so the mirror keeps it, but not the FIM's log-det
    (on the bundled `paper_ground` scenario it falls from 16.482 to 16.414).

    If the input formation already violates eta_min, the constraint
    relaxes to "no worse than the input's minimum SINR", so coverage can
    still be optimized without degrading an already-stressed network. With
    three or more members a floor of 0 dB or more always relaxes (see `radio`).

    The search state is a 0/1 flip pattern over the input's members, and a
    table holds each member's pose in either state (a member that may not
    flip has its own pose in both). One sweep loop scores `best ^ moves`
    from the table's cover rows and link powers, keeping, in row order,
    each feasible row that beats the best Gamma by more than _ANGLE_TOL,
    until a sweep keeps nothing. The moves are every nonempty gated
    pattern, by size, then lexicographically, scored in one sweep (exact
    over this move set) when there are at most EXHAUSTIVE_LIMIT; otherwise
    the single flips (steepest ascent). The chosen pattern's rows come back.
    """
    mirror = ground_constrain if ground else (lambda f: f)
    formation = mirror(formation)
    gate = flip_candidates(formation, spec)   # none for fewer than two members
    if not gate.any():
        return formation

    floor = min(spec.eta_min_db, link_stats(formation, radio)["min_db"])
    best_gamma = coverage(formation, spec).gamma_metric
    states = (formation, mirror(flip(formation, gate)))    # a member not gated keeps its pose
    pos, yaws = np.stack([f.positions for f in states]), np.stack([f.yaws for f in states])
    rows = _cover_rows(pos - formation.target, spec)        # (state, member, direction)
    # power[h, s, i - 1]: member i in state s at the hub, member 0, in state h
    power = received_powers(pos[None, :, 1:], pos[:, None, None, 0], radio)

    members = np.arange(len(formation))
    single = np.eye(len(formation), dtype=np.intp)[gate]   # row j flips the j-th gated member
    exhaustive = 2 ** len(single) <= EXHAUSTIVE_LIMIT
    moves = _patterns(len(single)) @ single if exhaustive else single
    best = np.zeros(len(formation), dtype=np.intp)
    while True:
        flips = best ^ moves
        # members added one by one, in member order, as in `coverage` and `link_stats`
        gammas = _gamma(sum(rows[flips[:, i], i] for i in members), spec.n_dirs)[2]
        min_db = sinr_db(power[flips[:, [0]], flips[:, 1:], members[:-1]], radio).min(axis=1)
        kept = None
        beat = np.flatnonzero((min_db >= floor - _ANGLE_TOL) & (gammas > best_gamma + _ANGLE_TOL))
        while len(beat):   # keep the first; a later row must beat the kept one in turn
            kept, best_gamma = beat[0], gammas[beat[0]]
            beat = beat[gammas[beat] > best_gamma + _ANGLE_TOL]
        if kept is not None:
            best = flips[kept]
        if kept is None or exhaustive:
            break
    return Formation(pos[best, members], yaws[best, members], formation.lidar, formation.target)


def ground_constrain(formation: Formation) -> Formation:
    """Reflect any member below the horizontal plane of `formation.target`
    back above it (z-mirror about the plane; x, y, yaw untouched)."""
    p, z = formation.positions, formation.target[2]
    dz = p[:, 2] - z
    lifted = np.column_stack([p[:, :2], np.where(dz < 0.0, z - dz, p[:, 2])])
    return Formation(lifted, formation.yaws, formation.lidar, formation.target)

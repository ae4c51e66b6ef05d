"""Scalar reference implementations that only tests use.

Each spells out a quantity the library computes as array expressions, or
searches exhaustively where the library searches greedily, so tests can
compare against it:

- `target_visible`, `direction_covered`, `coverage_loops`: the FOV
  frustum test and the coverage metric, direction by direction and
  member by member;
- `sinr`, `sinr_db`: the SINR of one link, each interferer's power added
  one by one;
- `exhaustive_flip_best`: the best Gamma over every sector-gated flip
  pattern meeting the SINR floor;
- `subset_logdet`, `exhaustive_best`, `greedy_unpenalized`: the
  allocation objective and its exhaustive and penalty-free greedy
  optima;
- `cartesian_to_spherical`: the inverse of `geom.spherical_to_cartesian`.
"""

from itertools import combinations

import numpy as np

from swarmform.fov import (
    _ANGLE_TOL,
    _DEGENERATE_XY,
    CoverageReport,
    coverage,
    flip,
    flip_candidates,
)
from swarmform.geom import (
    DegenerateGeometryError,
    Formation,
    SphericalPlacement,
    relative_position,
    wrap_2pi,
    wrap_pi,
)
from swarmform.radio import link_stats, received_power, to_db
from swarmform.sensing import DEFAULT_EPS, logdet_reg


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


def coverage_loops(formation, spec) -> CoverageReport:
    """`fov.coverage` as a double loop over directions and members."""
    weights = []
    bearings = []
    for pose in formation.poses:
        rel = relative_position(pose.position, formation.target)
        d_xy = float(np.hypot(rel[0], rel[1]))
        if d_xy < _DEGENERATE_XY:
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
    return CoverageReport(
        gamma_metric=xi * float(np.sum(per_direction)),
        xi=xi,
        uncovered=uncovered,
        per_direction=per_direction,
    )


def sinr(i, j, formation, rp) -> float:
    """SINR of the link i -> j; every member other than i and j interferes."""
    if i == j:
        raise ValueError("transmitter and receiver must differ")
    pts = formation.positions()
    signal = received_power(pts[i], pts[j], rp)
    interference = sum(
        received_power(pts[k], pts[j], rp)
        for k in range(len(pts))
        if k not in (i, j)
    )
    return signal / (interference + rp.noise_power)


def sinr_db(i, j, formation, rp) -> float:
    return to_db(sinr(i, j, formation, rp))


def exhaustive_flip_best(formation, spec, radio, receiver=0) -> float:
    """Best Gamma over every pattern of sector-gated flips meeting the
    same SINR floor as `fov.optimize_formation`. Exponential; small swarms."""
    gated = flip_candidates(formation, spec)
    base_min = link_stats(formation, receiver, radio)["min_db"]
    floor = min(spec.eta_min_db, base_min)
    best = coverage(formation, spec).gamma_metric
    for size in range(1, len(gated) + 1):
        for subset in combinations(gated, size):
            poses = [flip(p, formation.target) if i in subset else p
                     for i, p in enumerate(formation.poses)]
            cand = Formation(poses=poses, target=formation.target)
            if link_stats(cand, receiver, radio)["min_db"] < floor - _ANGLE_TOL:
                continue
            best = max(best, coverage(cand, spec).gamma_metric)
    return best


def subset_logdet(candidates, eps=DEFAULT_EPS) -> float:
    """Objective value of a candidate subset (empty subset included)."""
    total = np.zeros((3, 3))
    for c in candidates:
        total = total + c.fim
    return logdet_reg(total, eps)


def exhaustive_best(candidates, k, eps=DEFAULT_EPS):
    """Best objective over all subsets of size <= k, as (indices, value)."""
    best_idx = ()
    best_val = logdet_reg(np.zeros((3, 3)), eps)
    for size in range(1, min(k, len(candidates)) + 1):
        for idx in combinations(range(len(candidates)), size):
            val = subset_logdet([candidates[i] for i in idx], eps)
            if val > best_val:
                best_idx, best_val = idx, val
    return best_idx, best_val


def greedy_unpenalized(candidates, k, eps=DEFAULT_EPS):
    """Cardinality-constrained greedy without penalties (bound-check form),
    as (picked indices, value)."""
    fims = np.array([c.fim for c in candidates])
    active = np.ones(len(candidates), dtype=bool)
    total = np.zeros((3, 3))
    current = logdet_reg(total, eps)
    picked = []
    for _ in range(min(k, len(candidates))):
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

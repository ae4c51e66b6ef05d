"""Measurement models, Jacobians and Fisher information for camera and
LiDAR UAVs, plus the swarm-total FIM and its regularized log-determinant.

The camera projects the target into pixel coordinates through a yaw-only
rotation; the LiDAR measures (range, azimuth, pitch). Both Jacobians are
taken with respect to the target position, so each UAV's information
matrix is O^T Q^-1 O with the sensor's measurement covariance Q. `fims`
writes both Jacobians once, over the rows of a `Formation`: a formation's
members or the allocation candidates, whose `lidar` mask picks each row's
model. A pose so far out that its squared range or camera depth
overflows, or whose information matrix overflows, is refused with
`FloatingPointError`, not given a Jacobian that silently lost those terms
or an infinite matrix. `SensorModels` is one flat record of every
parameter the `sensors` section sets: the camera intrinsics, each
sensor's noise-covariance diagonal and the log-det regularizer eps,
which `logdet_reg` takes from the caller; it refuses values that are not
finite and diagonals of the wrong length. `logdet_reg` is the one
objective: it scores one FIM or a stack of them, greedy allocation ranks
every round through it, and it refuses any F + eps*I that is not
positive definite with a finite log-det. The per-pose measurement
functions the Jacobians differentiate, and the per-pose FIM, live in
`tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import DegenerateGeometryError, Formation

_DEGENERATE = 1e-9

DEFAULT_EPS = 1e-6

# Defaults reproduce the published simulation setup: focal lengths 381 px
# and measurement sigmas (6, 6) px / (0.1 m, 0.02 rad, 0.015 rad). The
# covariance diagonals below are those sigmas squared; treating them as
# variances directly misses the published six-UAV log-det by ~3.4.
DEFAULT_CAMERA_SIGMAS = (6.0, 6.0)
DEFAULT_LIDAR_SIGMAS = (0.1, 0.02, 0.015)


@dataclass(frozen=True)
class SensorModels:
    fx: float = 381.0
    fy: float = 381.0
    cx: float = 320.0
    cy: float = 240.0
    #: diagonal of the 2x2 pixel-noise covariance, px^2
    camera_cov: tuple[float, float] = tuple(s * s for s in DEFAULT_CAMERA_SIGMAS)
    #: diagonal of the 3x3 LiDAR covariance: range m^2, azimuth rad^2, pitch rad^2
    lidar_cov: tuple[float, float, float] = tuple(s * s for s in DEFAULT_LIDAR_SIGMAS)
    #: the log-det regularizer: `logdet_reg`'s eps wherever these models are scored
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if len(self.camera_cov) != 2 or len(self.lidar_cov) != 3:
            raise ValueError("camera_cov takes 2 variances and lidar_cov 3")
        if not (self.fx > 0 and self.fy > 0):   # NaN is not positive either
            raise ValueError("focal lengths must be positive")
        if not all(v > 0 for v in self.camera_cov):
            raise ValueError("camera noise variances must be positive")
        if not all(v > 0 for v in self.lidar_cov):
            raise ValueError("lidar noise variances must be positive")
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy, *self.camera_cov,
                            *self.lidar_cov, self.eps]).all():
            raise ValueError("sensor models must be finite")
        if not self.eps > 0:
            raise ValueError("eps must be positive")


def fims(rows: Formation, models: SensorModels) -> np.ndarray:
    """(N, 3, 3) information matrices that the N rows of `rows` (the
    members of a formation or the allocation candidates) give about its
    target. Each is (J^T Q^-1) J, one batched product per modality.

    Raises `DegenerateGeometryError` for the first row, in row order,
    whose camera has the target in its focal plane or whose LiDAR is
    vertically aligned with it; then `FloatingPointError` when a squared
    LiDAR range or camera depth is not finite (a pose so far out that the
    Jacobian would lose its range or depth terms), or when any row's
    matrix is not finite (e.g. a camera whose target lies far off its
    boresight, where the Jacobian's squares overflow).
    """
    lidar = rows.lidar
    cam = ~lidar
    # overflow is refused below, after the degenerate rows
    with np.errstate(over="ignore", invalid="ignore"):
        rel = rows.positions - rows.target
        dx, dy, dz = rel[cam].T
        yaws = rows.yaws[cam]
        c, s = np.cos(yaws), np.sin(yaws)
        z = c * dx + s * dy                      # camera depth
        z2 = z * z
        lrel = rel[lidar]
        # the range as the dot product a scalar norm takes (a norm along
        # axis 1 rounds differently)
        d = np.sqrt((lrel[:, None, :] @ lrel[:, :, None])[:, 0, 0])
        d2 = d * d
        lx, ly, lz = lrel.T
        d_xy = np.hypot(lx, ly)
        bad = np.empty(len(rows), dtype=bool)
        bad[cam] = np.abs(z) < _DEGENERATE
        bad[lidar] = d_xy < _DEGENERATE
        if bad.any():
            raise DegenerateGeometryError(
                "vertical alignment: azimuth undefined" if lidar[np.argmax(bad)]
                else "target lies in the camera's focal plane")
        if not (np.isfinite(z2).all() and np.isfinite(d2).all()):
            raise FloatingPointError("a squared LiDAR range or camera depth overflows: "
                                     "a pose is too far from the target")

        fx, fy = models.fx, models.fy
        cam_jac = np.zeros((len(z), 2, 3))
        cam_jac[:, 0, 0] = -fx * dy / z2
        cam_jac[:, 0, 1] = fx * dx / z2
        cam_jac[:, 1, 0] = -fy * c * dz / z2
        cam_jac[:, 1, 1] = -fy * s * dz / z2
        cam_jac[:, 1, 2] = fy / z
        beta = np.arctan2(ly, lx)
        sb, cb = np.sin(beta), np.cos(beta)
        lidar_jac = np.zeros((len(d), 3, 3))
        lidar_jac[:, 0, 0] = -lx / d
        lidar_jac[:, 0, 1] = -ly / d
        lidar_jac[:, 0, 2] = -lz / d
        lidar_jac[:, 1, 0] = sb / d_xy
        lidar_jac[:, 1, 1] = -cb / d_xy
        lidar_jac[:, 2, 0] = lz * cb / d2
        lidar_jac[:, 2, 1] = lz * sb / d2
        lidar_jac[:, 2, 2] = -d_xy / d2

        out = np.empty((len(rows), 3, 3))
        for mask, jac, cov in ((cam, cam_jac, models.camera_cov),
                               (lidar, lidar_jac, models.lidar_cov)):
            out[mask] = (jac.transpose(0, 2, 1) * (1.0 / np.asarray(cov))) @ jac
    if not np.isfinite(out).all():
        raise FloatingPointError("an information matrix overflows: a pose lies too far "
                                 "off its sensor's boresight")
    return out


def total_fim(formation: Formation, models: SensorModels) -> np.ndarray:
    """Sum of per-UAV FIMs, in member order (deterministic reduction);
    `FloatingPointError` if the sum of finite FIMs overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = fims(formation, models).sum(axis=0, initial=0.0)
    if not np.isfinite(total).all():
        raise FloatingPointError("the members' information matrices sum past the "
                                 "float range")
    return total


def logdet_reg(fim: np.ndarray, eps: float) -> np.ndarray:
    """log det(F + eps*I) of one (3, 3) FIM, or of each FIM of a
    (..., 3, 3) stack, from one batched LU factorization (slogdet): a
    float64 for one matrix and an array of shape (...) for a stack, each
    value bit for bit the one its matrix gives alone. This is the allocation objective's only
    implementation: greedy ranks each round's candidates through it, and
    the CLI reports a formation's log-det with it.

    The regularizer keeps single-sensor subsets finite: a lone camera
    contributes a rank-2 FIM whose raw determinant is zero. Raises
    `FloatingPointError` unless every F + eps*I is positive definite with
    a finite log-det, so a NaN or infinite F is refused too, as is one
    whose rounding exceeds eps (e.g. a very large F).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    with np.errstate(invalid="ignore"):   # a NaN matrix is refused below, without a warning
        sign, val = np.linalg.slogdet(fim + eps * np.eye(3))
    # slogdet gives a NaN matrix sign +1 and a NaN log-det
    if not np.all((sign > 0) & np.isfinite(val)):
        raise FloatingPointError(f"regularized FIM is not positive definite at eps = {eps}")
    return val

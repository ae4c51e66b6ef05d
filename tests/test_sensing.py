import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pose, vec3
from oracles import (
    Pose,
    Sensor,
    camera_jacobian,
    camera_project,
    formation_of,
    lidar_jacobian,
    lidar_measure,
    pose_fim,
    poses_of,
    scalar_fim,
    total_fim_loops,
)
from swarmform.geom import DegenerateGeometryError, Formation
from swarmform.sensing import SensorModels, fims, logdet_reg, total_fim


def fd_jacobian(fn, target, h=1e-6):
    """Central finite differences of fn(target) with respect to target."""
    base = np.asarray(fn(target), dtype=float)
    out = np.empty((base.size, 3))
    for a in range(3):
        dt = np.zeros(3)
        dt[a] = h
        hi = np.asarray(fn(target + dt), dtype=float)
        lo = np.asarray(fn(target - dt), dtype=float)
        out[:, a] = (hi - lo) / (2 * h)
    return out


class TestCamera:
    def test_on_boresight_projects_to_center(self, models):
        pose = Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA)
        u, v = camera_project(pose, np.zeros(3), models)
        assert u == pytest.approx(models.cx)
        assert v == pytest.approx(models.cy)

    def test_jacobian_matches_finite_differences(self, models):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pose = random_pose(rng, Sensor.CAMERA)
            jac = camera_jacobian(pose, np.zeros(3), models)
            num = fd_jacobian(lambda t: camera_project(pose, t, models), np.zeros(3))
            assert np.allclose(jac, num, rtol=1e-5, atol=1e-6)

    def test_focal_plane_degenerate(self, models):
        pose = Pose(vec3(0, 10, 0), 0.0, Sensor.CAMERA)  # target sideways
        with pytest.raises(DegenerateGeometryError):
            camera_project(pose, np.zeros(3), models)

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            SensorModels(fx=-1.0)
        with pytest.raises(ValueError):
            SensorModels(camera_cov=(0.0, 1.0))

    @pytest.mark.parametrize("field, value, message", [
        ("fx", np.nan, "focal lengths must be positive"),
        ("fy", np.inf, "sensor models must be finite"),
        ("cx", np.nan, "sensor models must be finite"),
        ("cy", -np.inf, "sensor models must be finite"),
        ("camera_cov", (36.0, np.nan), "camera noise variances must be positive"),
        ("camera_cov", (36.0, np.inf), "sensor models must be finite"),
        ("lidar_cov", (np.inf, 1.0, 1.0), "sensor models must be finite"),
        ("eps", np.nan, "sensor models must be finite"),
        ("camera_cov", (36.0,), "camera_cov takes 2 variances and lidar_cov 3"),
        ("lidar_cov", (1.0, 1.0, 1.0, 1.0), "camera_cov takes 2 variances and lidar_cov 3"),
    ])
    def test_non_finite_and_wrong_length_refused(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SensorModels(**{field: value})


class TestLidar:
    def test_measure_matches_placement_geometry(self):
        pose = Pose(vec3(-6.040228, 7.198463, 3.420201), 0.0, Sensor.LIDAR)
        d, beta, delta = lidar_measure(pose, np.zeros(3))
        assert d == pytest.approx(10.0, abs=1e-5)
        assert np.degrees(beta) == pytest.approx(130.0, abs=1e-3)
        assert np.degrees(delta) == pytest.approx(20.0, abs=1e-3)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pose = random_pose(rng, Sensor.LIDAR)
            jac = lidar_jacobian(pose, np.zeros(3))
            num = fd_jacobian(lambda t: lidar_measure(pose, t), np.zeros(3))
            assert np.allclose(jac, num, rtol=1e-5, atol=1e-6)

    def test_vertical_degenerate(self):
        pose = Pose(vec3(0, 0, 10), 0.0, Sensor.LIDAR)
        with pytest.raises(DegenerateGeometryError):
            lidar_jacobian(pose, np.zeros(3))


class TestFim:
    def test_psd_and_symmetry(self, models):
        rng = np.random.default_rng(3)
        for _ in range(20):
            fim = pose_fim(random_pose(rng), np.zeros(3), models)
            assert np.allclose(fim, fim.T)
            assert np.linalg.eigvalsh(fim).min() >= -1e-9

    def test_camera_fim_rank_two(self, models):
        rng = np.random.default_rng(4)
        fim = pose_fim(random_pose(rng, Sensor.CAMERA), np.zeros(3), models)
        eig = np.sort(np.linalg.eigvalsh(fim))
        assert eig[0] == pytest.approx(0.0, abs=1e-6)
        assert eig[1] > 1e-4

    def test_total_is_sum(self, reference_formation, models):
        total = total_fim(reference_formation, models)
        parts = sum(pose_fim(p, reference_formation.target, models)
                    for p in poses_of(reference_formation))
        assert np.allclose(total, parts)

    def test_logdet_reg_empty(self, models):
        assert logdet_reg(np.zeros((3, 3)), models.eps) == pytest.approx(3 * np.log(1e-6))

    def test_logdet_reg_validation(self, models, reference_formation):
        with pytest.raises(ValueError):
            logdet_reg(np.eye(3), eps=0.0)
        with pytest.raises(FloatingPointError):
            logdet_reg(-np.eye(3), models.eps)
        # a stack scores each matrix bit for bit as it scores alone, and
        # one matrix that is not positive definite refuses the whole stack
        stack = np.cumsum(fims(reference_formation, models), axis=0)
        values = logdet_reg(stack, models.eps)
        assert values.shape == (len(stack),)
        assert values.tolist() == [logdet_reg(f, models.eps) for f in stack]
        for bad in (-np.eye(3), np.full((3, 3), np.nan)):
            with pytest.raises(FloatingPointError, match="eps = 1e-06"):
                logdet_reg(np.concatenate([stack, bad[None]]), models.eps)

    def test_reference_formation_logdet(self, reference_formation, models):
        # the six-UAV reference value the noise-covariance convention
        # (sigmas squared) is calibrated against
        val = logdet_reg(total_fim(reference_formation, models), models.eps)
        assert val == pytest.approx(16.4820, abs=1e-3)

    def test_far_lidar_keeps_its_range_row(self, models):
        # at 1e150 m the squared range, 1e300, is still finite
        f = Formation(np.array([[1e150, 0.0, 0.0]]), [np.pi], [True], np.zeros(3))
        assert fims(f, models)[0, 0, 0] == pytest.approx(1.0 / models.lidar_cov[0])

    @pytest.mark.parametrize("lidar", [True, False])
    def test_overflowing_square_refused(self, models, lidar):
        # at 1e160 m the squared range (or depth) overflowed, and the LiDAR's
        # range row silently became 0 instead of a unit vector
        f = Formation(np.array([[1e160, 0.0, 0.0]]), [np.pi], [lidar], np.zeros(3))
        with pytest.raises(FloatingPointError, match="too far from the target"):
            fims(f, models)

    def test_noise_defaults_are_squared_sigmas(self, models):
        assert models.camera_cov == pytest.approx((36.0, 36.0))
        assert models.lidar_cov == pytest.approx((0.01, 0.0004, 0.000225))


_offset = st.tuples(*[st.floats(-30.0, 30.0)] * 3)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_offset, st.floats(-10.0, 10.0), st.booleans()),
                     min_size=1, max_size=8),
       target=st.tuples(*[st.floats(-50.0, 50.0)] * 3))
def test_fims_equal_scalar_oracle(rows, target):
    """Stacked FIMs equal the per-pose (J^T Q^-1) J bit for bit, for both
    modalities, at yaws that need not face the target; a degenerate pose
    raises the oracle's error for the first such row."""
    models = SensorModels()
    target = np.array(target)
    poses = [Pose(target + offset, yaw, Sensor.LIDAR if lidar else Sensor.CAMERA)
             for offset, yaw, lidar in rows]
    formation = formation_of(poses, target)
    try:
        expected = np.array([scalar_fim(p, target, models) for p in poses])
    except DegenerateGeometryError as exc:
        with pytest.raises(DegenerateGeometryError, match=re.escape(str(exc))):
            fims(formation, models)
        return
    assert np.array_equal(fims(formation, models), expected)
    assert np.array_equal(total_fim(formation, models), total_fim_loops(formation, models))

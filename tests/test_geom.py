import numpy as np
import pytest

from oracles import cartesian_to_spherical
from swarmform.geom import (
    DegenerateGeometryError,
    Pose,
    Sensor,
    SphericalPlacement,
    sector_index,
    spherical_to_cartesian,
    vec3,
    wrap_2pi,
    wrap_pi,
    yaw_facing_target,
)


class TestAngleWrapping:
    def test_wrap_pi_range(self):
        for a in np.linspace(-20.0, 20.0, 401):
            w = wrap_pi(a)
            assert -np.pi < w <= np.pi
            assert np.isclose(np.sin(w), np.sin(a)) and np.isclose(np.cos(w), np.cos(a))

    def test_wrap_pi_boundary(self):
        assert wrap_pi(np.pi) == pytest.approx(np.pi)
        assert wrap_pi(-np.pi) == pytest.approx(np.pi)
        assert wrap_pi(3 * np.pi) == pytest.approx(np.pi)

    def test_wrap_2pi(self):
        assert wrap_2pi(-0.1) == pytest.approx(2 * np.pi - 0.1)
        assert wrap_2pi(2 * np.pi) == 0.0


class TestSpherical:
    def test_low_pitch_placement(self):
        # pitch below 90 deg: horizontal direction along the azimuth
        p = spherical_to_cartesian(
            SphericalPlacement(10.0, np.radians(130.0), np.radians(20.0)), np.zeros(3)
        )
        assert p == pytest.approx([-6.040228, 7.198463, 3.420201], abs=1e-5)

    def test_high_pitch_placement_flips_horizontal(self):
        # pitch above 90 deg: same height, horizontal direction reversed
        p = spherical_to_cartesian(
            SphericalPlacement(10.0, np.radians(40.0), np.radians(160.0)), np.zeros(3)
        )
        assert p == pytest.approx([-7.198463, -6.040228, 3.420201], abs=1e-5)

    def test_round_trip_low_pitch(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sp = SphericalPlacement(
                rng.uniform(1, 30), rng.uniform(0, 2 * np.pi), rng.uniform(0.05, np.pi / 2 - 0.05)
            )
            p = spherical_to_cartesian(sp, vec3(1, 2, 3))
            back = cartesian_to_spherical(p, vec3(1, 2, 3))
            assert back.d == pytest.approx(sp.d)
            assert back.beta == pytest.approx(sp.beta)
            assert back.delta == pytest.approx(sp.delta)

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            SphericalPlacement(-1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            SphericalPlacement(1.0, 0.0, 3.5)

    def test_center_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            cartesian_to_spherical(np.zeros(3), np.zeros(3))


class TestYawAndSectors:
    def test_yaw_faces_target(self):
        yaw = yaw_facing_target(vec3(10, 0, 5), np.zeros(3))
        assert yaw == pytest.approx(np.pi)
        yaw = yaw_facing_target(vec3(-3, -3, 0), np.zeros(3))
        assert yaw == pytest.approx(np.pi / 4)

    def test_yaw_vertical_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            yaw_facing_target(vec3(0, 0, 10), np.zeros(3))

    def test_sector_index(self):
        assert sector_index(0.0, 8) == 0
        assert sector_index(np.radians(44.0), 8) == 0
        assert sector_index(np.radians(45.0), 8) == 1
        assert sector_index(np.radians(359.0), 8) == 7
        assert sector_index(-0.01, 8) == 7

    def test_sector_count_validation(self):
        with pytest.raises(ValueError):
            sector_index(0.0, 0)


class TestPose:
    def test_yaw_normalized(self):
        pose = Pose(vec3(1, 0, 0), 3 * np.pi, Sensor.CAMERA)
        assert pose.yaw == pytest.approx(np.pi)

    def test_position_validation(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, np.nan, 0.0]), 0.0, Sensor.LIDAR)
        with pytest.raises(ValueError):
            Pose(np.zeros(2), 0.0, Sensor.LIDAR)

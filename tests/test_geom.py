import numpy as np
import pytest

from conftest import vec3
from oracles import (
    SphericalPlacement,
    cartesian_to_spherical,
    sector_index,
    spherical_to_cartesian,
    wrap_2pi,
)
from swarmform.geom import DegenerateGeometryError, Formation, wrap_pi, yaw_facing_target


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

    def test_wrap_pi_just_above_pi(self):
        # (pi - a) % 2 pi rounds up to 2 pi here; the result must still be
        # pi, never -pi, and wrapping it again must not move it
        a = np.nextafter(np.pi, 4.0)
        assert wrap_pi(a) == np.pi and isinstance(wrap_pi(float(a)), float)
        w = wrap_pi(np.array([a, 0.5, -a]))
        assert w[0] == np.pi and w[1] == 0.5
        assert (wrap_pi(w) == w).all()

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


class TestFormation:
    def test_yaw_normalized(self):
        f = Formation([vec3(1, 0, 0)], [3 * np.pi], [False], np.zeros(3))
        assert f.yaws[0] == pytest.approx(np.pi)

    def test_position_validation(self):
        with pytest.raises(ValueError):
            Formation([[1.0, np.nan, 0.0]], [0.0], [True], np.zeros(3))
        with pytest.raises(ValueError):
            Formation([np.zeros(2)], [0.0], [True], np.zeros(3))

    @pytest.mark.parametrize("target", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [1.0, 2.0],
                                        np.zeros((1, 3))])
    def test_target_validation(self, target):
        with pytest.raises(ValueError, match="target must be a finite 3-vector"):
            Formation([vec3(1, 0, 0)], [0.0], [True], target)

    def test_arrays_are_read_only_copies(self):
        # a NaN written into a checked formation's positions would pass
        # no check again, and coverage would silently drop that member
        positions, yaws = np.array([vec3(1, 0, 0), vec3(0, 1, 0)]), np.zeros(2)
        lidar, target = np.array([True, False]), np.zeros(3)
        f = Formation(positions, yaws, lidar, target)
        with pytest.raises(ValueError, match="read-only"):
            f.positions[1, 0] = np.nan
        for name in ("yaws", "lidar", "target"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(f, name)[0] = 0
        # the caller's arrays stay writable and apart from the record
        positions[1, 0] = np.nan
        lidar[0], target[0] = False, 5.0
        assert f.positions[1, 0] == 0.0 and f.lidar[0] and f.target[0] == 0.0

    def test_unequal_lengths_rejected(self):
        positions = [vec3(1, 0, 0), vec3(0, 1, 0)]
        with pytest.raises(ValueError):
            Formation(positions, [0.0], [True, False], np.zeros(3))
        with pytest.raises(ValueError):
            Formation(positions, [0.0, 1.0], [True], np.zeros(3))

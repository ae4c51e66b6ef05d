import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_reference_formation, random_pose
from oracles import coverage_loops, direction_covered, exhaustive_flip_best, target_visible
from swarmform.fov import (
    FovSpec,
    coverage,
    flip,
    flip_candidates,
    ground_constrain,
    optimize_formation,
)
from swarmform.geom import Formation, Pose, Sensor, vec3, wrap_pi
from swarmform.radio import RadioParams, link_stats
from swarmform.sensing import SensorModels, logdet_reg, total_fim, uav_fim


@pytest.fixture
def spec():
    return FovSpec()


@pytest.fixture
def radio():
    return RadioParams()


class TestVisibility:
    def test_facing_in_range(self, spec):
        pose = Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA)
        assert target_visible(pose, np.zeros(3), spec)

    def test_out_of_range(self, spec):
        pose = Pose(vec3(spec.d_max + 1, 0, 0), np.pi, Sensor.CAMERA)
        assert not target_visible(pose, np.zeros(3), spec)

    def test_behind(self, spec):
        pose = Pose(vec3(10, 0, 0), 0.0, Sensor.CAMERA)
        assert not target_visible(pose, np.zeros(3), spec)

    def test_vertical_boundary_inclusive(self, spec, reference_formation):
        # reference members sit at elevation 20 deg = exactly half the VFOV
        for pose in reference_formation.poses:
            assert target_visible(pose, reference_formation.target, spec)

    def test_just_outside_vertical(self, spec):
        z = 10.0 * np.tan(spec.kappa / 2 + 0.01)
        pose = Pose(vec3(10, 0, z), np.pi, Sensor.CAMERA)
        assert not target_visible(pose, np.zeros(3), spec)


class TestDirections:
    def test_exact_bearing(self, spec):
        pose = Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA)
        assert direction_covered(0, pose, np.zeros(3), spec)

    def test_offset_past_half_fov(self, spec):
        b = np.radians(26.0)
        pose = Pose(10 * vec3(np.cos(b), np.sin(b), 0), wrap_pi(b + np.pi), Sensor.CAMERA)
        assert not direction_covered(0, pose, np.zeros(3), spec)

    def test_single_uav_covers_eleven(self, spec):
        pose = Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA)
        count = sum(direction_covered(k, pose, np.zeros(3), spec)
                    for k in range(spec.n_dirs))
        assert count == 11  # offsets 0, +/-5, ..., +/-25 deg inclusive

    def test_index_validated(self, spec):
        pose = Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA)
        with pytest.raises(ValueError):
            direction_covered(spec.n_dirs, pose, np.zeros(3), spec)


class TestCoverage:
    def test_single_uav_unweighted(self):
        spec = FovSpec(lam=0.0)
        f = Formation([Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA)], np.zeros(3))
        rep = coverage(f, spec)
        assert sum(rep.per_direction) == pytest.approx(11.0)
        assert rep.xi == pytest.approx(11 / 72)
        assert rep.gamma_metric == pytest.approx(121 / 72)

    def test_matches_brute_force(self, spec, reference_formation):
        rep = coverage(reference_formation, spec)
        total = 0.0
        uncovered = 0
        for k in range(spec.n_dirs):
            phi = 0.0
            for pose in reference_formation.poses:
                if direction_covered(k, pose, reference_formation.target, spec):
                    rel = pose.position - reference_formation.target
                    phi += 1.0 / (1.0 + spec.lam * np.hypot(rel[0], rel[1]))
            total += phi
            uncovered += phi == 0.0
        assert rep.gamma_metric == pytest.approx((1 - uncovered / spec.n_dirs) * total)
        assert rep.uncovered == uncovered

    def test_rotation_invariance(self, spec, reference_formation):
        base = coverage(reference_formation, spec).gamma_metric
        a = 2 * np.pi / spec.n_dirs
        rot = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])
        rotated = Formation(
            [Pose(rot @ p.position, p.yaw + a, p.sensor) for p in reference_formation.poses],
            reference_formation.target,
        )
        assert coverage(rotated, spec).gamma_metric == pytest.approx(base)

    def test_empty_rejected(self, spec):
        with pytest.raises(ValueError):
            coverage(Formation([], np.zeros(3)), spec)

    def test_member_above_target_covers_nothing(self, spec):
        f = Formation([Pose(vec3(1, 2, 10), 0.0, Sensor.CAMERA)], vec3(1, 2, 0))
        rep = coverage(f, spec)
        assert rep.uncovered == spec.n_dirs
        assert rep.gamma_metric == 0.0


# a member's horizontal offset from the target: polar (range, bearing),
# with range 0 for a member straight above or below, and bearings on the
# 5-degree probe grid as well as between its points
_member = st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-6, 40.0)),
    st.one_of(st.integers(0, 71).map(lambda k: np.radians(5.0 * k)),
              st.floats(-np.pi, np.pi)),
    st.floats(-20.0, 20.0),
)


@settings(max_examples=200, deadline=None)
@given(members=st.lists(_member, min_size=1, max_size=16),
       target=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
       n_dirs=st.sampled_from([4, 36, 72, 360]),
       gamma_deg=st.sampled_from([10.0, 50.0, 90.0, 179.0]),
       lam=st.sampled_from([0.0, 0.1, 0.37]))
def test_coverage_equals_scalar_loops(members, target, n_dirs, gamma_deg, lam):
    """Gamma, xi, uncovered and every direction's intensity equal the
    scalar double loop bit for bit."""
    target = np.array(target)
    poses = [Pose(target + [r * np.cos(b), r * np.sin(b), z], 0.0, Sensor.CAMERA)
             for r, b, z in members]
    f = Formation(poses, target)
    spec = FovSpec(gamma=np.radians(gamma_deg), n_dirs=n_dirs, lam=lam)
    got, want = coverage(f, spec), coverage_loops(f, spec)
    assert got.gamma_metric == want.gamma_metric
    assert got.xi == want.xi
    assert got.uncovered == want.uncovered
    assert got.per_direction == want.per_direction


class TestFlip:
    def test_point_reflection(self):
        pose = Pose(vec3(-7.2, -6.0, 3.4), np.radians(40.0), Sensor.CAMERA)
        flipped = flip(pose, np.zeros(3))
        assert flipped.position == pytest.approx([7.2, 6.0, -3.4])
        assert abs(wrap_pi(flipped.yaw - pose.yaw)) == pytest.approx(np.pi)

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pose = random_pose(rng)
            back = flip(flip(pose, vec3(1, 2, 3)), vec3(1, 2, 3))
            assert back.position == pytest.approx(pose.position)
            assert wrap_pi(back.yaw - pose.yaw) == pytest.approx(0.0, abs=1e-12)

    def test_preserves_range(self):
        rng = np.random.default_rng(6)
        target = vec3(3, -1, 2)
        for _ in range(20):
            pose = random_pose(rng, target=target)
            d0 = np.linalg.norm(pose.position - target)
            d1 = np.linalg.norm(flip(pose, target).position - target)
            assert d1 == pytest.approx(d0)

    def test_fim_invariant(self, models):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pose = random_pose(rng)
            f0 = uav_fim(pose, np.zeros(3), models)
            f1 = uav_fim(flip(pose, np.zeros(3)), np.zeros(3), models)
            assert np.max(np.abs(f1 - f0)) < 1e-9


class TestOptimize:
    def test_improves_reference_formation(self, spec, radio, models, reference_formation):
        before_cov = coverage(reference_formation, spec).gamma_metric
        before_sinr = link_stats(reference_formation, 0, radio)["min_db"]
        before_ld = logdet_reg(total_fim(reference_formation, models))
        opt = optimize_formation(reference_formation, spec, radio)
        assert coverage(opt, spec).gamma_metric > before_cov
        assert link_stats(opt, 0, radio)["min_db"] > before_sinr
        assert logdet_reg(total_fim(opt, models)) == pytest.approx(before_ld, abs=1e-6)

    def test_fixed_point(self, spec, radio, reference_formation):
        opt = optimize_formation(reference_formation, spec, radio)
        again = optimize_formation(opt, spec, radio)
        assert np.allclose(again.positions(), opt.positions())

    def test_matches_exhaustive_oracle(self, spec, radio, reference_formation):
        opt = optimize_formation(reference_formation, spec, radio)
        assert coverage(opt, spec).gamma_metric == pytest.approx(
            exhaustive_flip_best(reference_formation, spec, radio)
        )

    def test_three_uav_toy_oracle(self, spec, radio):
        # all three in one sector: every flip pattern is reachable
        poses = [
            Pose(vec3(10, 0.5, 1.0), np.pi, Sensor.CAMERA),
            Pose(vec3(9.8, 1.5, -1.0), np.pi, Sensor.LIDAR),
            Pose(vec3(10.2, 2.5, 0.5), np.pi, Sensor.CAMERA),
        ]
        f = Formation(poses, np.zeros(3))
        assert len(flip_candidates(f, spec)) == 3
        opt = optimize_formation(f, spec, radio)
        assert coverage(opt, spec).gamma_metric == pytest.approx(
            exhaustive_flip_best(f, spec, radio)
        )

    def test_lone_occupants_not_gated(self, spec, radio):
        poses = [
            Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA),
            Pose(vec3(-10, 0, 0), 0.0, Sensor.CAMERA),
        ]
        f = Formation(poses, np.zeros(3))
        assert flip_candidates(f, spec) == []
        opt = optimize_formation(f, spec, radio)
        assert np.allclose(opt.positions(), f.positions())


class TestGroundConstraint:
    def test_reflects_below_plane(self):
        f = Formation([Pose(vec3(1, 2, -3.4), 0.5, Sensor.LIDAR)], np.zeros(3))
        g = ground_constrain(f, np.zeros(3))
        assert g.poses[0].position == pytest.approx([1, 2, 3.4])
        assert g.poses[0].yaw == pytest.approx(0.5)

    def test_identity_on_feasible(self, reference_formation):
        g = ground_constrain(reference_formation, reference_formation.target)
        assert np.allclose(g.positions(), reference_formation.positions())

    def test_logdet_degrades_slightly(self, spec, radio, models, reference_formation):
        opt = optimize_formation(reference_formation, spec, radio)
        g = ground_constrain(opt, reference_formation.target)
        assert min(p.position[2] for p in g.poses) >= 0.0
        ld_air = logdet_reg(total_fim(opt, models))
        ld_ground = logdet_reg(total_fim(g, models))
        assert ld_ground == pytest.approx(16.4142, abs=1e-3)
        assert abs(ld_air - ld_ground) < 0.5

import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_reference_formation, random_pose, vec3
from oracles import (
    Pose,
    Sensor,
    coverage_loops,
    direction_covered,
    exhaustive_flip_best,
    flip_candidates_loops,
    formation_of,
    optimize_formation_loops,
    poses_of,
    target_visible,
)
from swarmform import fov
from swarmform.fov import (
    FovSpec,
    coverage,
    flip,
    flip_candidates,
    ground_constrain,
    optimize_formation,
)
from swarmform.geom import (
    DegenerateGeometryError,
    Formation,
    wrap_pi,
    yaw_facing_target,
)
from swarmform.radio import RadioParams, link_stats
from swarmform.sensing import fims, logdet_reg, total_fim


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
        for pose in poses_of(reference_formation):
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
        f = formation_of([Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA)], np.zeros(3))
        rep = coverage(f, spec)
        assert fov._cover_rows(f.positions - f.target, spec).sum() == pytest.approx(11.0)
        assert rep.xi == pytest.approx(11 / 72)
        assert rep.gamma_metric == pytest.approx(121 / 72)

    def test_matches_brute_force(self, spec, reference_formation):
        rep = coverage(reference_formation, spec)
        total = 0.0
        uncovered = 0
        for k in range(spec.n_dirs):
            phi = 0.0
            for pose in poses_of(reference_formation):
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
        rotated = formation_of(
            [Pose(rot @ p.position, p.yaw + a, p.sensor) for p in poses_of(reference_formation)],
            reference_formation.target,
        )
        assert coverage(rotated, spec).gamma_metric == pytest.approx(base)

    def test_empty_rejected(self, spec):
        with pytest.raises(ValueError):
            coverage(formation_of([], np.zeros(3)), spec)

    @pytest.mark.parametrize("field", ["n_dirs", "k_sectors"])
    def test_counts_bounded_by_max_dirs(self, field):
        # the bound holds for library callers too, not only in config, so a
        # huge count fails here, not in `coverage` with a MemoryError
        assert getattr(FovSpec(**{field: fov.MAX_DIRS}), field) == fov.MAX_DIRS
        for count in (fov.MAX_DIRS + 1, 10**15):
            with pytest.raises(ValueError, match=str(fov.MAX_DIRS)):
                FovSpec(**{field: count})

    def test_member_above_target_covers_nothing(self, spec):
        f = formation_of([Pose(vec3(1, 2, 10), 0.0, Sensor.CAMERA)], vec3(1, 2, 0))
        rep = coverage(f, spec)
        assert rep.uncovered == spec.n_dirs
        assert rep.gamma_metric == 0.0

    @pytest.mark.parametrize("lam", [1e300, 1e290])
    def test_members_beyond_range_cover_nothing(self, lam):
        # 1e9 m out, far past d_max: no weight is formed for them, so no
        # overflow warns and no weight underflows to a tiny cover
        spec = FovSpec(lam=lam)
        f = formation_of([Pose(vec3(1e9, 0, 0), np.pi, Sensor.CAMERA),
                          Pose(vec3(0, -1e9, 5), np.pi / 2, Sensor.LIDAR)], np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = coverage(f, spec)
        assert (rep.uncovered, rep.xi, rep.gamma_metric) == (72, 0.0, 0.0)
        assert coverage_loops(f, spec)[0] == rep

    @pytest.mark.parametrize("offset", [(30, 0, 0), (0, -28.8, 8.4), (-24, 18, 0)])
    def test_member_at_max_range_covers(self, spec, offset):
        # at d_max = 30 m (3-D) a member covers, as the oracle's frustum
        # sees the target; 1e-6 m farther out it covers nothing
        rel = vec3(*offset)
        for scale, covers in ((1.0, True), (1.0 + 1e-6 / 30.0, False)):
            pose = Pose(scale * rel, yaw_facing_target(scale * rel, np.zeros(3)), Sensor.CAMERA)
            f = formation_of([pose], np.zeros(3))
            assert bool(target_visible(pose, np.zeros(3), spec)) is covers
            assert (coverage(f, spec).uncovered < spec.n_dirs) is covers
            assert coverage(f, spec) == coverage_loops(f, spec)[0]


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
    f = formation_of(poses, target)
    spec = FovSpec(gamma=np.radians(gamma_deg), n_dirs=n_dirs, lam=lam)
    got, (want, per_direction) = coverage(f, spec), coverage_loops(f, spec)
    assert got.gamma_metric == want.gamma_metric
    assert got.xi == want.xi
    assert got.uncovered == want.uncovered
    # summed member by member, in member order, as `coverage` sums them
    assert fov._cover_rows(f.positions - f.target, spec).sum(axis=0).tolist() == per_direction


class TestFlip:
    def test_point_reflection(self):
        f = formation_of([Pose(vec3(-7.2, -6.0, 3.4), np.radians(40.0), Sensor.CAMERA)],
                         np.zeros(3))
        flipped = flip(f)
        assert flipped.positions[0] == pytest.approx([7.2, 6.0, -3.4])
        assert abs(wrap_pi(flipped.yaws[0] - f.yaws[0])) == pytest.approx(np.pi)

    def test_involution(self):
        rng = np.random.default_rng(5)
        f = formation_of([random_pose(rng) for _ in range(20)], vec3(1, 2, 3))
        back = flip(flip(f))
        assert back.positions == pytest.approx(f.positions)
        assert wrap_pi(back.yaws - f.yaws) == pytest.approx(np.zeros(20), abs=1e-12)

    def test_preserves_range(self):
        rng = np.random.default_rng(6)
        target = vec3(3, -1, 2)
        f = formation_of([random_pose(rng, target=target) for _ in range(20)], target)
        d0 = np.linalg.norm(f.positions - target, axis=1)
        d1 = np.linalg.norm(flip(f).positions - target, axis=1)
        assert d1 == pytest.approx(d0)

    def test_fim_invariant(self, models):
        rng = np.random.default_rng(7)
        f = formation_of([random_pose(rng) for _ in range(50)], np.zeros(3))
        assert np.abs(fims(flip(f), models) - fims(f, models)).max() < 1e-9


@settings(max_examples=200, deadline=None)
@given(members=st.lists(st.tuples(st.tuples(*[st.floats(-30.0, 30.0)] * 3),
                                  st.floats(-10.0, 10.0), st.booleans(), st.booleans()),
                        min_size=1, max_size=12),
       target=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_flip_reflects_masked_rows(members, target):
    """`flip(f, mask)` gives 2t - p and wrap_pi(yaw + pi) on the masked
    rows, bit for bit, and leaves the other rows' bytes as they were;
    flipping the same rows twice brings the positions back."""
    target = np.array(target)
    f = formation_of([Pose(target + p, yaw, Sensor.LIDAR if lidar else Sensor.CAMERA)
                      for p, yaw, lidar, _ in members], target)
    mask = np.array([m[3] for m in members])
    got = flip(f, mask)
    for i, flipped in enumerate(mask):
        want_p = 2.0 * target - f.positions[i] if flipped else f.positions[i]
        assert got.positions[i].tobytes() == want_p.tobytes()
        assert got.yaws[i] == (wrap_pi(f.yaws[i] + np.pi) if flipped else f.yaws[i])
    assert got.lidar.tobytes() == f.lidar.tobytes()
    assert got.target.tobytes() == f.target.tobytes()
    assert flip(got, mask).positions == pytest.approx(f.positions, abs=1e-9)


class TestOptimize:
    def test_improves_reference_formation(self, spec, radio, models, reference_formation):
        before_cov = coverage(reference_formation, spec).gamma_metric
        before_sinr = link_stats(reference_formation, radio)["min_db"]
        before_ld = logdet_reg(total_fim(reference_formation, models), models.eps)
        opt = optimize_formation(reference_formation, spec, radio)
        assert coverage(opt, spec).gamma_metric > before_cov
        assert link_stats(opt, radio)["min_db"] > before_sinr
        after_ld = logdet_reg(total_fim(opt, models), models.eps)
        assert after_ld == pytest.approx(before_ld, abs=1e-6)

    def test_fixed_point(self, spec, radio, reference_formation):
        opt = optimize_formation(reference_formation, spec, radio)
        again = optimize_formation(opt, spec, radio)
        assert np.allclose(again.positions, opt.positions)

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
        f = formation_of(poses, np.zeros(3))
        assert np.count_nonzero(flip_candidates(f, spec)) == 3
        opt = optimize_formation(f, spec, radio)
        assert coverage(opt, spec).gamma_metric == pytest.approx(
            exhaustive_flip_best(f, spec, radio)
        )

    def test_lone_occupants_not_gated(self, spec, radio):
        poses = [
            Pose(vec3(10, 0, 0), np.pi, Sensor.CAMERA),
            Pose(vec3(-10, 0, 0), 0.0, Sensor.CAMERA),
        ]
        f = formation_of(poses, np.zeros(3))
        assert not flip_candidates(f, spec).any()
        opt = optimize_formation(f, spec, radio)
        assert np.allclose(opt.positions, f.positions)


def _same_poses(got: Formation, want: Formation) -> bool:
    return all(a.position.tobytes() == b.position.tobytes() and a.yaw == b.yaw
               for a, b in zip(poses_of(got), poses_of(want), strict=True))


def _assert_grounded_over_floor(got: Formation, start: Formation, spec, radio):
    """Every member of `got` lies on or above the target plane, and its
    minimum SINR meets the floor the search applies to `start`."""
    floor = min(spec.eta_min_db, link_stats(ground_constrain(start), radio)["min_db"])
    assert (got.positions[:, 2] >= got.target[2]).all()
    assert link_stats(got, radio)["min_db"] >= floor - fov._ANGLE_TOL


def test_ground_search_checks_the_floor_on_mirrored_poses(radio):
    """Two LiDARs and a camera 10 m from the target, each facing it. Flipping
    member 1 puts it below the plane; mirrored back up, it sits 2.6 m above
    the plane on the hub's side, and the minimum SINR would fall from
    -0.27 dB to -15.04 dB, under the -10 dB floor. The search must score the
    mirrored poses and so keep member 1 where it is."""
    az, pitch = np.radians([321.3, 160.6, 153.7]), np.radians([17.6, 15.1, 27.9])
    p = 10.0 * np.column_stack([np.cos(pitch) * np.cos(az), np.cos(pitch) * np.sin(az),
                                np.sin(pitch)])
    f = formation_of([Pose(q, yaw_facing_target(q, np.zeros(3)), s)
                      for q, s in zip(p, [Sensor.LIDAR, Sensor.LIDAR, Sensor.CAMERA])],
                     np.zeros(3))
    spec = FovSpec(eta_min_db=-10.0)
    _assert_grounded_over_floor(optimize_formation(f, spec, radio, ground=True), f, spec, radio)


# a member's offset from the target: (range, bearing, height), with range 0
# straight above or below, and a yaw that need not face the target
_pose = st.tuples(st.one_of(st.just(0.0), st.floats(0.5, 30.0)),
                  st.floats(-np.pi, np.pi), st.floats(-15.0, 15.0), st.floats(-np.pi, np.pi))


@settings(max_examples=200, deadline=None)
@given(members=st.lists(_pose, min_size=2, max_size=13, unique_by=lambda m: m[:3]),
       target=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
       eta_min_db=st.one_of(st.just(-100.0), st.just(10.0), st.floats(-30.0, 5.0)),
       k_sectors=st.sampled_from([1, 3, 8]),
       steepest=st.booleans(), ground=st.booleans(), data=st.data())
def test_search_equals_pattern_by_pattern(members, target, eta_min_db, k_sectors, steepest,
                                          ground, data):
    """Both branches of the flip search return the formation the
    pattern-by-pattern search returns, bit for bit, or raise as it does.
    With `ground`, that formation lies on or above the target plane and
    meets the SINR floor."""
    target = np.array(target)
    # the member drawn to be the fusion receiver moves to row 0
    receiver = data.draw(st.integers(0, len(members) - 1), label="receiver")
    members = [members[receiver], *members[:receiver], *members[receiver + 1:]]
    f = formation_of([Pose(target + [r * np.cos(b), r * np.sin(b), z], yaw, Sensor.CAMERA)
                      for r, b, z, yaw in members], target)
    spec, radio = FovSpec(eta_min_db=eta_min_db, k_sectors=k_sectors), RadioParams()
    with pytest.MonkeyPatch.context() as mp:
        if steepest:
            mp.setattr(fov, "EXHAUSTIVE_LIMIT", 0)
        try:
            want = optimize_formation_loops(f, spec, radio, ground)
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                optimize_formation(f, spec, radio, ground)
            return
        got = optimize_formation(f, spec, radio, ground)
        assert _same_poses(got, want)
    if ground:
        _assert_grounded_over_floor(got, f, spec, radio)


def test_steepest_ascent_flips_a_member_twice(monkeypatch):
    """Steepest ascent flips member 2, then 1 and 3, then 2 again. The
    search state is a flip pattern over the input, so member 2 ends at the
    input's position and yaw bytes, not at 2t - (2t - p) with its yaw
    wrapped twice, and the result equals the pattern-by-pattern search."""
    target = vec3(-2.4, -4.1, -3.7)
    positions = [vec3(-3.1, 3.8, -6.0), vec3(-16.3, -4.6, -11.9), vec3(-5.4, -2.8, -2.9),
                 vec3(-9.8, 5.0, -3.0), vec3(-13.8, -2.6, -15.5)]
    f = formation_of([Pose(p, yaw_facing_target(p, target), Sensor.CAMERA) for p in positions],
                     target)
    spec, radio = FovSpec(eta_min_db=-100.0, k_sectors=3), RadioParams()
    monkeypatch.setattr(fov, "EXHAUSTIVE_LIMIT", 0)
    got = optimize_formation(f, spec, radio)
    assert _same_poses(got, optimize_formation_loops(f, spec, radio))
    twice, start = poses_of(got)[2], poses_of(f)[2]
    assert not np.allclose(got.positions[[1, 3]], f.positions[[1, 3]])
    assert twice.position.tobytes() == start.position.tobytes()
    assert twice.yaw == start.yaw


@pytest.mark.parametrize("g", range(1, 13))
def test_moves_by_size_then_lexicographically(g):
    """The exhaustive search's moves over g gated members, g up to
    log2(EXHAUSTIVE_LIMIT): every nonempty pattern, in the order that
    sorting `product` by size lists them."""
    want = sorted(product((1, 0), repeat=g), key=sum)[1:]
    assert fov._patterns(g).tolist() == [list(p) for p in want]


def test_exhaustive_search_keeps_rows_in_turn(radio):
    """Four cameras facing the target, all gated. Scored in move order,
    rows 0, 2 and 5 each beat the best Gamma in turn; rows 6, 7 and 8 come
    later and beat row 5 by 2 ulps, within _ANGLE_TOL. The search keeps
    row 5's pattern, as the pattern-by-pattern search does."""
    positions = [vec3(-5, -12, -1), vec3(-12, -12, 0), vec3(-9, 9, 0), vec3(-11, 6, 3)]
    f = formation_of([Pose(p, yaw_facing_target(p, np.zeros(3)), Sensor.CAMERA)
                      for p in positions], np.zeros(3))
    spec, moves = FovSpec(eta_min_db=-100.0), fov._patterns(4)
    assert flip_candidates(f, spec).all()
    gammas = [coverage(flip(f, move), spec).gamma_metric for move in moves]
    best, kept = coverage(f, spec).gamma_metric, []
    for r, gamma in enumerate(gammas):
        if gamma > best + fov._ANGLE_TOL:
            best, kept = gamma, [*kept, r]
    assert kept == [0, 2, 5]
    assert [r for r, gamma in enumerate(gammas) if gamma > best] == [6, 7, 8]
    got = optimize_formation(f, spec, radio)
    assert _same_poses(got, optimize_formation_loops(f, spec, radio))
    assert _same_poses(got, flip(f, moves[5]))


# a member at a bearing on a sector boundary for k = 1, 2, 3, 4, 8 or 12
# (axis points give bearings of exactly 0, -0.0, pi/2, pi and -pi), or anywhere
_boundary_xy = st.sampled_from([(5.0, 0.0), (5.0, -0.0), (0.0, 5.0), (-5.0, 0.0),
                                (-5.0, -0.0), (0.0, -5.0), (5.0, 5.0), (-5.0, -5.0)])
_on_sector_edge = st.builds(lambda j, k, r: (r * np.cos(2 * np.pi * j / k),
                                             r * np.sin(2 * np.pi * j / k)),
                            st.integers(0, 11), st.sampled_from([1, 2, 3, 4, 8, 12]),
                            st.floats(0.5, 30.0))
_xy = st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))


@settings(max_examples=300, deadline=None)
@given(members=st.lists(st.one_of(_boundary_xy, _on_sector_edge, _xy), min_size=1, max_size=16),
       target=st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-10.0, 10.0)] * 3)),
       k_sectors=st.sampled_from([1, 2, 3, 4, 8, 12]))
def test_flip_candidates_equal_scalar_gating(members, target, k_sectors):
    target = np.array(target)
    offsets = np.array([[x, y, 1.0] for x, y in members])
    # a zero target is not added, so that an offset's y of -0.0 survives (-0.0 + 0.0 is 0.0)
    positions = target + offsets if target.any() else offsets
    f = formation_of([Pose(p, 0.0, Sensor.CAMERA) for p in positions], target)
    spec = FovSpec(k_sectors=k_sectors)
    assert np.flatnonzero(flip_candidates(f, spec)).tolist() == flip_candidates_loops(f, spec)


def test_pair_no_pattern_forms_is_not_scored(spec, radio):
    """Member 1 alone in its sector, opposite the hub (member 0) through the
    target: flipped, it would sit on the hub. No pattern flips it, so the
    search must not evaluate that pair, as the pattern-by-pattern one does not."""
    poses = [Pose(vec3(10, 0, 2), np.pi, Sensor.CAMERA),
             Pose(vec3(-10, 0, -2), 0.0, Sensor.CAMERA),
             Pose(vec3(1, 10, 1), -np.pi / 2, Sensor.LIDAR),
             Pose(vec3(2, 9, -1), -np.pi / 2, Sensor.CAMERA)]
    f = formation_of(poses, np.zeros(3))
    assert np.flatnonzero(flip_candidates(f, spec)).tolist() == [2, 3]
    for limit in (fov.EXHAUSTIVE_LIMIT, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fov, "EXHAUSTIVE_LIMIT", limit)
            assert _same_poses(optimize_formation(f, spec, radio),
                               optimize_formation_loops(f, spec, radio))


def test_steepest_ascent_gap_to_exhaustive(monkeypatch, spec, radio):
    """How much Gamma steepest ascent leaves below the exhaustive optimum
    on seeded formations with 12-14 gated members. Printed, not asserted:
    the measurement to make before raising EXHAUSTIVE_LIMIT."""
    print()
    for seed in (2, 5, 8, 13, 17):
        rng = np.random.default_rng(seed)
        f = formation_of([random_pose(rng) for _ in range(14)], np.zeros(3))
        gated = np.count_nonzero(flip_candidates(f, spec))
        assert 12 <= gated <= 14
        gammas = {}
        for name, limit in (("exhaustive", 2 ** gated), ("steepest", 0)):
            monkeypatch.setattr(fov, "EXHAUSTIVE_LIMIT", limit)
            gammas[name] = coverage(optimize_formation(f, spec, radio), spec).gamma_metric
        base = coverage(f, spec).gamma_metric
        print(f"[flip gap] seed {seed}: {gated} of 14 gated, Gamma {base:.3f} -> "
              f"exhaustive {gammas['exhaustive']:.3f}, steepest {gammas['steepest']:.3f} "
              f"(gap {gammas['exhaustive'] - gammas['steepest']:.3f})")


class TestGroundConstraint:
    def test_reflects_below_plane(self):
        f = formation_of([Pose(vec3(1, 2, -3.4), 0.5, Sensor.LIDAR)], np.zeros(3))
        g = ground_constrain(f)
        assert g.positions[0] == pytest.approx([1, 2, 3.4])
        assert g.yaws[0] == pytest.approx(0.5)

    def test_identity_on_feasible(self, reference_formation):
        g = ground_constrain(reference_formation)
        assert np.allclose(g.positions, reference_formation.positions)

    def test_logdet_degrades_slightly(self, spec, radio, models, reference_formation):
        opt = optimize_formation(reference_formation, spec, radio)
        g = ground_constrain(opt)
        assert g.positions[:, 2].min() >= 0.0
        ld_air = logdet_reg(total_fim(opt, models), models.eps)
        ld_ground = logdet_reg(total_fim(g, models), models.eps)
        assert ld_ground == pytest.approx(16.4142, abs=1e-3)
        assert abs(ld_air - ld_ground) < 0.5

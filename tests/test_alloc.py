import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_pose
from oracles import (
    build_candidates_loops,
    exhaustive_best,
    greedy_unpenalized,
    pose_fim,
    subset_logdet,
)
from swarmform.alloc import (
    MAX_PLACEMENTS,
    AllocWeights,
    GridSpec,
    ResourceModel,
    build_candidates,
    greedy_allocate,
)
from swarmform.fov import FovSpec
from swarmform.sensing import SensorModels, fims, logdet_reg

VFOV = FovSpec().kappa   # the sensors' vertical FOV: candidates pitch by at most half of it


@pytest.fixture
def grid():
    return GridSpec()


@pytest.fixture
def weights():
    return AllocWeights()


@pytest.fixture
def candidates(grid):
    return build_candidates(np.zeros(3), grid, VFOV)


def allocate(candidates, weights, models=SensorModels()):
    return greedy_allocate(candidates, weights, ResourceModel(), models)


def random_fims(rng, n, models):
    return [pose_fim(random_pose(rng), np.zeros(3), models) for _ in range(n)]


class TestGrid:
    def test_candidate_count(self, candidates):
        # 36 azimuths x 4 pitch rings inside the vertical FOV x 2 sensors
        assert len(candidates) == 288

    def test_vertical_fov_filter(self, candidates):
        for rel in candidates.positions:
            pitch = np.degrees(np.arctan2(abs(rel[2]), np.hypot(rel[0], rel[1])))
            assert pitch <= 20.0 + 1e-9

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(distance=0.0)
        with pytest.raises(ValueError):
            GridSpec(delta_min=2.0, delta_max=1.0)

    def test_placement_count_bounded(self):
        # counted from the steps, so none of these makes an array: 3.6e8
        # azimuths, 2.8e6 pitch rings with no azimuth at all, and a step
        # so small that 2 pi / step is inf
        for kwargs in ({"beta_step": np.radians(1e-6)},
                       {"beta_step": 13.0, "delta_step": 1e-6},
                       {"beta_step": np.radians(1e-320)}):
            with pytest.raises(ValueError, match="placements, more than 1000000"):
                GridSpec(**kwargs)
        # the bound leaves room above a 1-degree grid over every pitch
        whole = GridSpec(beta_step=np.radians(1.0), delta_min=0.0, delta_max=np.pi,
                         delta_step=np.radians(1.0))
        assert len(whole.betas()) * len(whole.deltas()) == 65160 <= MAX_PLACEMENTS


class TestResources:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceModel(bandwidth_lidar=0.5)
        with pytest.raises(ValueError):
            ResourceModel(cost_lidar=0.05)
        # a negative block or cost would turn its penalty into a bonus; zero is allowed
        for name in ("bandwidth_cam", "duration_cam", "bandwidth_lidar", "duration_lidar",
                     "cost_cam", "cost_lidar"):
            with pytest.raises(ValueError, match=f"must be non-negative, got {name}=-1.0"):
                ResourceModel(**{name: -1.0})
        ResourceModel(bandwidth_cam=0.0, duration_cam=0.0, cost_cam=0.0)


class TestGreedyStructure:
    def test_selects_six_with_two_lidar(self, candidates, weights):
        result = allocate(candidates, weights)
        assert len(result.formation) == 6
        assert np.count_nonzero(result.formation.lidar) == 2
        assert result.logdet == pytest.approx(16.4820, abs=1e-3)

    def test_gains_non_increasing(self, candidates, weights):
        result = allocate(candidates, weights)
        gains = np.array(result.gains)
        assert np.all(np.diff(gains) <= 1e-9)

    def test_no_colocated_members(self, candidates, weights):
        result = allocate(candidates, weights)
        pts = result.formation.positions
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.linalg.norm(pts[i] - pts[j]) > 1e-6

    def test_empty_pool_rejected(self, weights):
        with pytest.raises(ValueError):
            allocate([], weights)

    def test_max_uavs_cap(self, candidates):
        capped = AllocWeights(min_gain=-100.0, max_uavs=3)
        result = allocate(candidates, capped)
        assert len(result.formation) == 3


class TestObjective:
    def test_monotone(self, models):
        rng = np.random.default_rng(11)
        cands = random_fims(rng, 8, models)
        for k in range(1, 8):
            assert subset_logdet(cands[:k + 1]) >= subset_logdet(cands[:k]) - 1e-12

    def test_submodular_sampled(self, models):
        rng = np.random.default_rng(12)
        cands = random_fims(rng, 10, models)
        for _ in range(50):
            idx = rng.permutation(9)
            small = [cands[i] for i in idx[:3]]
            big = small + [cands[i] for i in idx[3:6]]
            extra = cands[9]
            gain_small = subset_logdet(small + [extra]) - subset_logdet(small)
            gain_big = subset_logdet(big + [extra]) - subset_logdet(big)
            assert gain_small >= gain_big - 1e-9


class TestOracle:
    def test_exhaustive_matches_brute_force(self, models):
        rng = np.random.default_rng(13)
        cands = random_fims(rng, 6, models)
        idx, val = exhaustive_best(cands, 2)
        assert len(idx) <= 2
        assert val == pytest.approx(
            max(subset_logdet([cands[i] for i in s])
                for s in [(i,) for i in range(6)]
                + [(i, j) for i in range(6) for j in range(i + 1, 6)])
        )

    def test_greedy_bound_small_instances(self, models):
        rng = np.random.default_rng(14)
        f0 = logdet_reg(np.zeros((3, 3)), models.eps)
        for _ in range(10):
            cands = random_fims(rng, rng.integers(5, 10), models)
            k = int(rng.integers(2, 4))
            _, opt = exhaustive_best(cands, k)
            _, greedy_val = greedy_unpenalized(cands, k)
            assert greedy_val - f0 >= (1 - 1 / np.e) * (opt - f0) - 1e-9


def assert_same_candidates(target, grid, models):
    """The built rows and their FIMs equal the oracle's with `==`; each
    greedy member is the oracle's row at its placement and sensor (same
    position bytes, same yaw), and its round's net utility is its gain
    less the oracle's penalty for that row. Returns the candidates and
    the greedy result."""
    built = build_candidates(target, grid, VFOV)
    rows, row_fims, penalties = build_candidates_loops(target, grid, AllocWeights(),
                                                       ResourceModel(), models, VFOV / 2.0)
    assert len(built) == len(rows)
    for name in ("positions", "yaws", "lidar", "target"):
        assert np.array_equal(getattr(built, name), getattr(rows, name)), name
    assert np.array_equal(fims(built, models), row_fims)
    result = allocate(built, AllocWeights(), models)
    index = {(p.tobytes(), lidar): i for i, (p, lidar) in enumerate(zip(rows.positions,
                                                                         rows.lidar))}
    f = result.formation
    for position, yaw, lidar, gain, utility in zip(f.positions, f.yaws, f.lidar,
                                                   result.gains, result.utilities):
        i = index[position.tobytes(), lidar]
        assert yaw == rows.yaws[i]
        assert utility == gain - penalties[i]
    return built, result


def degree_grid(step):
    return GridSpec(beta_step=np.radians(step), delta_step=np.radians(step))


class TestArrayCandidates:
    """`build_candidates` equals the placement-by-placement oracle with
    `==` on every field, so greedy sees the same rows in the same order."""

    @settings(max_examples=10, deadline=None)
    @example(step=10.0, target=(0.0, 0.0, 0.0))
    @example(step=5.0, target=(0.0, 0.0, 0.0))
    @given(step=st.sampled_from([10.0, 5.0]),
           target=st.tuples(*[st.floats(-50.0, 50.0)] * 3))
    def test_equal_to_loops(self, step, target):
        assert_same_candidates(np.array(target), degree_grid(step), SensorModels())

    @pytest.mark.parametrize("target", [(0.0, 0.0, 0.0), (37.3, -48.1, 12.9)])
    def test_equal_to_loops_one_degree(self, target, models):
        built, result = assert_same_candidates(np.array(target), degree_grid(1.0), models)
        assert len(built) == 15840
        assert len(result.formation) == 6

    def test_last_ring_stays_below_delta_max(self):
        # 10-170 degrees at a 15-degree step: the rings run 10, 25, ..., 160;
        # rounding the ring count up once made a 175-degree ring
        deltas = GridSpec(delta_step=np.radians(15.0)).deltas()
        assert len(deltas) == 11
        assert np.degrees(deltas[-1]) == pytest.approx(160.0)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(0.0, 180.0), span=st.floats(0.0, 180.0), step=st.floats(0.5, 200.0))
    def test_rings_never_pass_delta_max(self, lo, span, step):
        grid = GridSpec(delta_min=np.radians(lo), delta_max=np.radians(min(lo + span, 180.0)),
                        delta_step=np.radians(step))
        deltas = grid.deltas()
        assert deltas[0] == grid.delta_min
        assert (deltas <= grid.delta_max).all()
        # and no ring that fits is dropped
        assert grid.delta_max - deltas[-1] < grid.delta_step


@settings(max_examples=40, deadline=None)
@given(target=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
       step=st.sampled_from([10.0, 15.0, 20.0, 30.0]), distance=st.floats(2.0, 40.0),
       alpha_resource=st.floats(0.0, 1.0), alpha_cost=st.floats(0.0, 1.0),
       min_gain=st.floats(-1.0, 0.5), max_uavs=st.integers(1, 12))
def test_greedy_gains_non_negative_utilities_non_increasing(
        target, step, distance, alpha_resource, alpha_cost, min_gain, max_uavs):
    """The log-det is monotone, so no marginal gain is negative; it is
    submodular and each row's penalty is fixed, so the best net utility
    never rises from one round to the next."""
    grid = GridSpec(distance=distance, beta_step=np.radians(step),
                    delta_step=np.radians(step))
    weights = AllocWeights(alpha_resource, alpha_cost, min_gain, max_uavs)
    result = allocate(build_candidates(np.array(target), grid, VFOV), weights)
    assert min(result.gains, default=0.0) >= 0.0
    assert np.all(np.diff(result.utilities) <= 1e-9)

import numpy as np
import pytest

from conftest import random_pose
from oracles import exhaustive_best, greedy_unpenalized, subset_logdet
from swarmform.alloc import (
    AllocWeights,
    Candidate,
    GridSpec,
    build_candidates,
    greedy_allocate,
)
from swarmform.geom import Sensor
from swarmform.radio import ResourceModel
from swarmform.sensing import SensorModels, logdet_reg, uav_fim


@pytest.fixture
def grid():
    return GridSpec()


@pytest.fixture
def weights():
    return AllocWeights()


@pytest.fixture
def candidates(grid, weights, models):
    return build_candidates(np.zeros(3), grid, weights, ResourceModel(), models)


def random_candidates(rng, n, models):
    out = []
    for _ in range(n):
        pose = random_pose(rng)
        out.append(Candidate(pose=pose,
                             fim=uav_fim(pose, np.zeros(3), models), penalty=0.0))
    return out


class TestGrid:
    def test_candidate_count(self, candidates):
        # 36 azimuths x 4 pitch rings inside the vertical FOV x 2 sensors
        assert len(candidates) == 288

    def test_vertical_fov_filter(self, candidates):
        for c in candidates:
            rel = c.pose.position
            pitch = np.degrees(np.arctan2(abs(rel[2]), np.hypot(rel[0], rel[1])))
            assert pitch <= 20.0 + 1e-9

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(distance=0.0)
        with pytest.raises(ValueError):
            GridSpec(delta_min=2.0, delta_max=1.0)


class TestGreedyStructure:
    def test_selects_six_with_two_lidar(self, candidates, weights):
        result = greedy_allocate(candidates, np.zeros(3), weights)
        assert len(result.formation) == 6
        mix = sum(1 for p in result.formation.poses if p.sensor is Sensor.LIDAR)
        assert mix == 2
        assert result.logdet == pytest.approx(16.4820, abs=1e-3)

    def test_gains_non_increasing(self, candidates, weights):
        result = greedy_allocate(candidates, np.zeros(3), weights)
        gains = np.array(result.gains)
        assert np.all(np.diff(gains) <= 1e-9)

    def test_no_colocated_members(self, candidates, weights):
        result = greedy_allocate(candidates, np.zeros(3), weights)
        pts = result.formation.positions()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.linalg.norm(pts[i] - pts[j]) > 1e-6

    def test_empty_pool_rejected(self, weights):
        with pytest.raises(ValueError):
            greedy_allocate([], np.zeros(3), weights)

    def test_max_uavs_cap(self, candidates):
        capped = AllocWeights(min_gain=-100.0, max_uavs=3)
        result = greedy_allocate(candidates, np.zeros(3), capped)
        assert len(result.formation) == 3


class TestObjective:
    def test_monotone(self, models):
        rng = np.random.default_rng(11)
        cands = random_candidates(rng, 8, models)
        for k in range(1, 8):
            assert subset_logdet(cands[:k + 1]) >= subset_logdet(cands[:k]) - 1e-12

    def test_submodular_sampled(self, models):
        rng = np.random.default_rng(12)
        cands = random_candidates(rng, 10, models)
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
        cands = random_candidates(rng, 6, models)
        idx, val = exhaustive_best(cands, 2)
        assert len(idx) <= 2
        assert val == pytest.approx(
            max(subset_logdet([cands[i] for i in s])
                for s in [(i,) for i in range(6)]
                + [(i, j) for i in range(6) for j in range(i + 1, 6)])
        )

    def test_greedy_bound_small_instances(self, models):
        rng = np.random.default_rng(14)
        f0 = logdet_reg(np.zeros((3, 3)))
        for _ in range(10):
            cands = random_candidates(rng, rng.integers(5, 10), models)
            k = int(rng.integers(2, 4))
            _, opt = exhaustive_best(cands, k)
            _, greedy_val = greedy_unpenalized(cands, k)
            assert greedy_val - f0 >= (1 - 1 / np.e) * (opt - f0) - 1e-9

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_pose
from oracles import (
    build_candidates_loops,
    exhaustive_best,
    greedy_allocate_all_rows,
    greedy_unpenalized,
    mix_ceiling,
    pose_fim,
    subset_logdet,
)
from swarmform import alloc
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


def assert_same_candidates(target, grid, models, vfov=VFOV):
    """The built rows and their FIMs equal the oracle's with `==`; each
    greedy member is the oracle's row at its placement and sensor (same
    position bytes, same yaw), and its round's net utility is its gain
    less the oracle's penalty for that row. Returns the candidates and
    the greedy result."""
    built = build_candidates(target, grid, vfov)
    rows, row_fims, penalties = build_candidates_loops(target, grid, AllocWeights(),
                                                       ResourceModel(), models, vfov / 2.0)
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

    @settings(max_examples=10, deadline=None)
    @example(step=10.0, target=(1e3, -1e3, 1e3))
    @example(step=5.0, target=(-999.9, 1e3, -1e3))
    @given(step=st.sampled_from([10.0, 5.0]),
           target=st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    def test_equal_to_loops_far_target(self, step, target):
        # a translated target rounds every placement, and the ring filter's
        # margin must cover it
        assert_same_candidates(np.array(target), degree_grid(step), SensorModels())

    @pytest.mark.parametrize("target", [(0.0, 0.0, 0.0), (731.2, -988.5, 402.7)])
    @pytest.mark.parametrize("ring", [0, 1, 3, 7, 12, 15])
    def test_equal_to_loops_fov_edge_on_a_ring(self, ring, target):
        # half the FOV equals a ring's pitch bit for bit, so the ring's
        # placements sit on the per-point test's edge, and the ring filter
        # must leave them to it
        grid = degree_grid(10.0)
        delta = grid.deltas()[ring]
        pitch = min(delta, np.pi - delta)
        built, _ = assert_same_candidates(np.array(target), grid, SensorModels(),
                                          vfov=2.0 * pitch)
        assert len(built) > 0

    @pytest.mark.parametrize("scale", [3e15, 1e16])
    def test_equal_to_loops_where_rounding_moves_the_pitch(self, scale):
        # 10 m from a target this far out, rounding the placements moves
        # their pitch by up to about 0.1 rad, so rings that miss the FOV
        # by 1e-3 rad keep placements, and the ring filter must build them
        target = scale * np.array([1.0, -0.7, 0.3])
        grid = degree_grid(10.0)
        vfov = 2.0 * (np.radians(20.0) - 1e-3)
        built = build_candidates(target, grid, vfov)
        rows, _, _ = build_candidates_loops(target, grid, AllocWeights(), ResourceModel(),
                                            SensorModels(), vfov / 2.0)
        for name in ("positions", "yaws", "lidar", "target"):
            assert np.array_equal(getattr(built, name), getattr(rows, name)), name
        assert len(built) > 144   # more than the two 10-degree rings' placements

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


def outcome(allocate_fn, candidates, weights, models):
    """The allocation, or the type and text of the error it raised."""
    try:
        return allocate_fn(candidates, weights, ResourceModel(), models)
    except (ValueError, FloatingPointError) as exc:   # DegenerateGeometryError is a ValueError
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """Same picks, gains, utilities and log-det with `==`, or the same error."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    for name in ("positions", "yaws", "lidar", "target"):
        assert np.array_equal(getattr(got.formation, name), getattr(want.formation, name)), name
    assert got.gains == want.gains
    assert got.utilities == want.utilities
    assert got.logdet == want.logdet


class TestScreen:
    """`greedy_allocate` screens each round with a closed-form log-det and
    a rounding-error radius, and scores exactly only the rows that can
    still win; it must pick what scoring every row picks, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @example(beta=1.0, delta=1.0, offset=(0.0, 0.0, 0.0), scale=0.0, log_eps=-6.0,
             penalised=False, min_gain=0.0, max_uavs=14, vfov_deg=40.0)
    @example(beta=10.0, delta=10.0, offset=(1.0, -1.0, 0.5), scale=6.0, log_eps=-9.0,
             penalised=True, min_gain=-5.0, max_uavs=30, vfov_deg=170.0)
    @given(beta=st.floats(1.0, 15.0), delta=st.floats(1.0, 15.0),
           offset=st.tuples(*[st.floats(-1.0, 1.0)] * 3), scale=st.floats(0.0, 6.0),
           log_eps=st.floats(-9.0, 0.0), penalised=st.booleans(), min_gain=st.floats(-5.0, 0.5),
           max_uavs=st.integers(1, 30), vfov_deg=st.floats(5.0, 170.0))
    def test_equal_to_scoring_every_row(self, beta, delta, offset, scale, log_eps, penalised,
                                        min_gain, max_uavs, vfov_deg):
        target = np.array(offset) * 10.0 ** scale   # up to 1e6 m off the origin
        grid = GridSpec(beta_step=np.radians(beta), delta_step=np.radians(delta))
        weights = (AllocWeights(min_gain=min_gain, max_uavs=max_uavs) if penalised
                   else AllocWeights(0.0, 0.0, min_gain, max_uavs))
        models = SensorModels(eps=10.0 ** log_eps)
        candidates = build_candidates(target, grid, np.radians(vfov_deg))
        assert_same_outcome(outcome(greedy_allocate, candidates, weights, models),
                            outcome(greedy_allocate_all_rows, candidates, weights, models))

    @pytest.mark.parametrize("models, grid", [
        (SensorModels(fx=1e10, fy=1e10), GridSpec()),
        (SensorModels(), GridSpec(distance=1e-4)),
        (SensorModels(eps=1e-300), GridSpec()),
    ], ids=["fx-1e10", "distance-1e-4", "eps-1e-300"])
    def test_refuses_as_scoring_every_row(self, models, grid):
        candidates = build_candidates(np.zeros(3), grid, VFOV)
        weights = AllocWeights(0.0, 0.0, -100.0, 12)
        want = outcome(greedy_allocate_all_rows, candidates, weights, models)
        assert_same_outcome(outcome(greedy_allocate, candidates, weights, models), want)

    def test_scores_few_rows_after_the_first_round(self, monkeypatch):
        # a 1-degree grid, no penalties, 14 UAVs: after round 1, where A is
        # eps*I and a lone camera's FIM has rank 2, at most 1% of the
        # candidate-rounds reach slogdet
        scored = []

        def counting(fim, eps):
            scored.append(1 if np.ndim(fim) == 2 else len(fim))
            return logdet_reg(fim, eps)

        candidates = build_candidates(np.array([37.3, -48.1, 12.9]), degree_grid(1.0), VFOV)
        weights = AllocWeights(0.0, 0.0, 0.0, 14)
        want = greedy_allocate_all_rows(candidates, weights, ResourceModel(), SensorModels())
        monkeypatch.setattr(alloc, "logdet_reg", counting)
        got = greedy_allocate(candidates, weights, ResourceModel(), SensorModels())
        assert_same_outcome(got, want)
        assert len(candidates) == 15840 and len(got.gains) == 14
        later = scored[2:]   # scored[0] is the empty total, scored[1] round 1
        assert len(later) == 13
        assert sum(later) <= 0.01 * len(candidates) * len(later)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_eps=st.floats(-12.0, 2.0))
    def test_bounds_hold(self, seed, log_eps):
        """Where the screen bounds a row, `logdet_reg` accepts it and the
        exact utility lies within the bounds, on positive semidefinite
        stacks of every conditioning, nearly singular ones, badly scaled
        ones and unsymmetric ones."""
        rng = np.random.default_rng(seed)
        n = 64
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=(n, 3))
        jac = rng.normal(size=(n, 3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 3, 1))
        v = rng.normal(size=(n, 3, 2))
        near = 10.0 ** rng.uniform(-16.0, -6.0, size=(n, 1, 1)) * np.eye(3)
        kinds = [jac.transpose(0, 2, 1) @ jac,
                 v @ v.transpose(0, 2, 1) + near,
                 (jac.transpose(0, 2, 1) @ jac) * scales[:, :, None] * scales[:, None, :],
                 rng.normal(size=(n, 3, 3)) * scales[:, :, None]]
        row_fims = np.concatenate(kinds)[rng.permutation(4 * n)]
        total = row_fims[rng.integers(0, 4 * n, size=rng.integers(0, 4))].sum(axis=0)
        eps = 10.0 ** log_eps
        current = rng.normal() * 30.0
        penalties = rng.uniform(0.0, 3.0, size=len(row_fims))
        lower, upper = alloc._screen(alloc._screen_tables(row_fims), total + eps * np.eye(3),
                                     current, penalties)
        bounded = np.flatnonzero(upper < np.inf)
        assert (lower[bounded] > -np.inf).all()
        util = logdet_reg(total + row_fims[bounded], eps) - current - penalties[bounded]
        assert (lower[bounded] <= util).all() and (util <= upper[bounded]).all()


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(20.0, 90.0), delta=st.floats(15.0, 60.0),
       offset=st.tuples(*[st.floats(-50.0, 50.0)] * 3), distance=st.floats(2.0, 30.0),
       fx=st.floats(50.0, 2000.0), log_eps=st.floats(-9.0, 0.0), penalised=st.booleans(),
       max_uavs=st.integers(1, 10), vfov_deg=st.floats(20.0, 170.0))
def test_greedy_logdet_under_its_mix_ceiling(beta, delta, offset, distance, fx, log_eps,
                                              penalised, max_uavs, vfov_deg):
    """On small random pools greedy's log-det stays under the closed-form
    ceiling of the mix it picks; the ceiling holds by algebra, so a
    failure means an information matrix is assembled wrong."""
    grid = GridSpec(distance=distance, beta_step=np.radians(beta), delta_step=np.radians(delta))
    candidates = build_candidates(np.array(offset), grid, np.radians(vfov_deg))
    weights = (AllocWeights(min_gain=-5.0, max_uavs=max_uavs) if penalised
               else AllocWeights(0.0, 0.0, 0.0, max_uavs))
    models = SensorModels(fx=fx, fy=fx, eps=10.0 ** log_eps)
    result = allocate(candidates, weights, models)
    lidars = int(result.formation.lidar.sum())
    ceiling = mix_ceiling(candidates, models, lidars, len(result.formation) - lidars)
    # the slack covers the rounding of slogdet and of the trace sum
    assert result.logdet <= ceiling + 1e-9 * max(1.0, abs(ceiling))


def test_readme_library_example():
    """The README's Library example, run as written, prints what its
    comments state: 288 candidates, 144 of them LiDAR, then 6 UAVs at
    log-det 16.48."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S)[1]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code, {})
    first, second = out.getvalue().splitlines()
    assert first == "288 144"
    assert second.startswith("6 16.48")

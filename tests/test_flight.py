import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SwarmState, control, lyapunov_value, stacked, step
from rollout_oracle import rollout_loops
from swarmform import kernels
from swarmform.flight import (
    MAX_STEPS,
    ApfParams,
    ControlGains,
    FormationPlan,
    metrics,
    simulate,
    step_count,
)

SLOTS = np.array([
    [9.4, 0.0, 3.4], [0.0, 9.4, 3.4], [7.2, 6.0, 3.4],
    [-4.7, 8.1, 3.4], [9.3, -1.6, 3.4], [-1.6, -9.3, 3.4],
])


@pytest.fixture
def plan():
    return FormationPlan(slots=SLOTS)


@pytest.fixture
def gains():
    return ControlGains()


def equilibrium_state(plan):
    return SwarmState(positions=plan.desired_positions(0.0),
                      velocities=np.zeros((plan.n, 3)))


def perturbed_state(plan, seed=0, amp=5.0):
    rng = np.random.default_rng(seed)
    return SwarmState(positions=plan.desired_positions(0.0) + rng.uniform(-amp, amp, (plan.n, 3)),
                      velocities=rng.uniform(-1, 1, (plan.n, 3)))


class TestControllers:
    def test_equilibrium_is_fixed_point(self, plan, gains):
        state = equilibrium_state(plan)
        assert np.allclose(control(state, plan, "log", gains), 0.0)
        assert np.allclose(control(state, plan, "quad", gains), 0.0)
        # two slots sit 1.6 m apart, so keep d0 below that for the
        # repulsion-free equilibrium check
        assert np.allclose(control(state, plan, "apf", gains, ApfParams(d0=1.5)), 0.0)

    def test_log_follower_saturates(self, plan, gains):
        # single follower-leader pair: force peaks at k1/2 when |e| = 1
        two = FormationPlan(slots=SLOTS[:2])
        g = ControlGains()
        for mag in (0.1, 1.0, 5.0, 100.0):
            p = two.desired_positions(0.0).copy()
            p[1] += [mag, 0, 0]
            u = control(SwarmState(p, np.zeros((2, 3))), two, "log", g)
            assert np.linalg.norm(u[1]) <= g.k1 / 2 + 1e-12
        p = two.desired_positions(0.0).copy()
        p[1] += [1.0, 0, 0]
        u = control(SwarmState(p, np.zeros((2, 3))), two, "log", g)
        assert np.linalg.norm(u[1]) == pytest.approx(g.k1 / 2)

    def test_quad_dominates_log_for_large_errors(self, plan, gains):
        state = perturbed_state(plan, seed=1, amp=8.0)
        state = SwarmState(state.positions, np.zeros((plan.n, 3)))
        e = state.positions[:, None, :] - state.positions[None, :, :] \
            - (SLOTS[:, None, :] - SLOTS[None, :, :])
        norms = np.linalg.norm(e, axis=2) + np.eye(plan.n)
        assert (norms >= 1).all()  # every edge error exceeds 1 for this draw
        u_log = control(state, plan, "log", gains)
        u_quad = control(state, plan, "quad", gains)
        followers = list(range(1, plan.n))  # member 0 leads
        assert (np.linalg.norm(u_quad[followers], axis=1)
                >= np.linalg.norm(u_log[followers], axis=1) - 1e-9).all()

    def test_apf_repulsion_magnitude(self):
        apf = ApfParams(ka=1.0, kr=5.0, d0=2.0)
        plan = FormationPlan(slots=np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        # both on their slots, separated by d0/2: only repulsion remains
        p = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        u = control(SwarmState(p, np.zeros((2, 3))), plan, "apf", ControlGains(), apf)
        expected = apf.kr * (1 / 1.0 - 1 / apf.d0) / 1.0 ** 2
        assert u[1] == pytest.approx([expected, 0, 0])
        assert u[0] == pytest.approx([-expected, 0, 0])

    def test_apf_inactive_beyond_d0(self):
        apf = ApfParams(ka=2.0, kr=5.0, d0=2.0)
        plan = FormationPlan(slots=np.array([[0.0, 0, 0], [5.0, 0, 0]]))
        p = np.array([[1.0, 0, 0], [4.0, 0, 0]])
        u = control(SwarmState(p, np.zeros((2, 3))), plan, "apf", ControlGains(), apf)
        assert u[0] == pytest.approx([-apf.ka * 1.0, 0, 0])

    def test_apf_coincident_rejected(self):
        plan = FormationPlan(slots=np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        p = np.zeros((2, 3))
        with pytest.raises(FloatingPointError):
            control(SwarmState(p, np.zeros((2, 3))), plan, "apf", ControlGains())

    def test_gains_validation(self):
        with pytest.raises(ValueError):
            ControlGains(k1=0.0)
        with pytest.raises(ValueError):
            ControlGains(masses=[1.0, 0.0, 1.0]).member_masses(3)
        with pytest.raises(ValueError):
            ControlGains(masses=[1.0, 1.0]).member_masses(3)


class TestStep:
    def test_drift(self):
        s = SwarmState(np.zeros((1, 3)), np.array([[1.0, 0, 0]]))
        out = step(s, np.zeros((1, 3)), np.ones(1), 0.01)
        assert out.positions[0] == pytest.approx([0.01, 0, 0])
        assert out.time == pytest.approx(0.01)

    def test_constant_force_matches_closed_form(self):
        s = SwarmState(np.zeros((1, 3)), np.zeros((1, 3)))
        f = np.array([[2.0, 0, 0]])
        for _ in range(100):
            s = step(s, f, np.ones(1), 0.01)
        assert s.velocities[0, 0] == pytest.approx(2.0 * 1.0, rel=1e-6)
        assert s.positions[0, 0] == pytest.approx(1.0, rel=2e-2)

    def test_nonfinite_force_rejected(self):
        s = SwarmState(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(FloatingPointError):
            step(s, np.array([[np.inf, 0, 0]]), np.ones(1), 0.01)


class TestLyapunov:
    def test_zero_at_equilibrium(self, plan, gains):
        assert lyapunov_value(equilibrium_state(plan), plan, gains) == pytest.approx(0.0)

    def test_single_edge_value(self):
        plan2 = FormationPlan(slots=np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        g = ControlGains()
        p = np.array([[0.0, 0, 0], [2.0, 0, 0]])  # one edge error of norm 1
        v = lyapunov_value(SwarmState(p, np.zeros((2, 3))), plan2, g)
        assert v == pytest.approx(0.5 * g.k1 * np.log(2.0))

    def test_monotone_under_log_control(self, plan, gains):
        state = perturbed_state(plan, seed=3, amp=10.0)
        state = SwarmState(state.positions, np.zeros((plan.n, 3)))
        traj = simulate(stacked([state]), plan, "log", gains, 0.01, 10.0)
        assert np.diff(traj.lyapunov).max() <= 1e-6
        assert traj.lyapunov[0, 0] == pytest.approx(lyapunov_value(state, plan, gains))

    @pytest.mark.parametrize("masses", [np.full(6, 0.5), np.full(6, 2.0),
                                        np.array([0.5, 2.0, 1.0, 0.7, 1.6, 1.2])],
                             ids=["0.5kg", "2kg", "mixed"])
    def test_monotone_with_masses(self, plan, masses):
        # the kinetic term is (1/2) sum m_i |v_i - v_t|^2, matching the
        # integrator's division of each force by m_i
        rng = np.random.default_rng(12)
        starts = [SwarmState(rng.uniform(-15.0, 15.0, (plan.n, 3)), np.zeros((plan.n, 3)))
                  for _ in range(5)]
        traj = simulate(stacked(starts), plan, "log", ControlGains(masses=masses), 0.01, 20.0)
        assert np.diff(traj.lyapunov).max() <= 1e-6


class TestSimulate:
    def test_converged_start_stays(self, plan, gains):
        traj = simulate(stacked([equilibrium_state(plan)]), plan, "log", gains, 0.01, 1.0)
        drift = np.abs(np.diff(traj.positions, axis=0)).max()
        assert drift < 1e-9

    def test_bitwise_deterministic(self, plan, gains):
        s = stacked([perturbed_state(plan, seed=4)])
        t1 = simulate(s, plan, "quad", gains, 0.01, 2.0)
        t2 = simulate(s, plan, "quad", gains, 0.01, 2.0)
        assert (t1.positions == t2.positions).all()
        assert (t1.lyapunov == t2.lyapunov).all()

    def test_unknown_controller(self, plan, gains):
        with pytest.raises(ValueError):
            simulate(stacked([equilibrium_state(plan)]), plan, "pid", gains)

    def test_refuses_bad_starts(self, plan, gains):
        p, v = stacked([perturbed_state(plan, seed=9)])
        for bad, message in (((p, v[:, :-1]), "must both be"), ((p[0], v[0]), "must both be"),
                             ((p[:0], v[:0]), "no run"), ((p[:, :-1], v[:, :-1]), "disagree")):
            with pytest.raises(ValueError, match=message):
                simulate(bad, plan, "log", gains, 0.01, 0.1)
        p[0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="swarm state must be finite"):
            simulate((p, v), plan, "log", gains, 0.01, 0.1)

    @pytest.mark.parametrize("dt, horizon", [(1.0, 0.1), (0.01, 1e9), (1e-300, 1e300),
                                             (0.01, 0.0), (-0.01, 1.0)])
    def test_refuses_step_counts_out_of_bounds(self, plan, gains, dt, horizon):
        with pytest.raises(ValueError):
            simulate(stacked([equilibrium_state(plan)]), plan, "log", gains, dt, horizon)

    def test_step_count_edges(self):
        assert step_count(1.0, 0.6) == 1
        assert step_count(0.01, 60.0) == 6000
        assert step_count(1.0, MAX_STEPS + 0.5) == MAX_STEPS   # rounds half to even
        for horizon in (0.5, MAX_STEPS + 0.6):
            with pytest.raises(ValueError, match="must round to 1 to 100000 steps"):
                step_count(1.0, horizon)

    def test_start_too_far_out_raises(self, plan, gains):
        # squared distances overflow, so V, path lengths and velocity
        # errors would reach the report as inf
        p, v = stacked([perturbed_state(plan, seed=10)])
        with pytest.raises(FloatingPointError):
            simulate((1e200 * p, v), plan, "log", gains, 0.01, 0.1)

    def test_matches_python_controllers(self, plan, gains):
        # one kernel step reproduces the per-step controller + integrator,
        # for a stationary and for a moving target
        moving = FormationPlan(slots=plan.slots, target_position=[1.0, -2.0, 0.5],
                               target_velocity=[0.5, 0.3, 0.1])
        masses = gains.member_masses(plan.n)
        for p in (plan, moving):
            s = perturbed_state(p, seed=5)
            for name in ("log", "quad", "apf"):
                traj = simulate(stacked([s]), p, name, gains, 0.01, 0.01)
                expected = step(s, control(s, p, name, gains), masses, 0.01)
                assert np.allclose(traj.positions[1], expected.positions, atol=1e-12)
                assert np.allclose(traj.velocities[1], expected.velocities, atol=1e-12)
            assert lyapunov_value(s, p, gains) == pytest.approx(traj.lyapunov[0, 0], abs=1e-12)

    @pytest.mark.parametrize("ctrl", ["log", "quad", "apf"])
    def test_rollout_matches_oracle(self, plan, ctrl):
        # an R = 3 batch against the oracle flown run by run
        starts = [perturbed_state(plan, seed=seed) for seed in (6, 13, 14)]
        p0 = np.stack([s.positions for s in starts])
        v0 = np.stack([s.velocities for s in starts])
        p0[:, 1] = p0[:, 0] + [0.6, 0.3, 0.0]  # an adjacent pair inside d0
        ring = np.roll(np.eye(plan.n), 1, axis=1)
        ring = ring + ring.T
        masses = np.linspace(0.8, 1.4, plan.n)
        vdes = np.array([0.5, 0.3, 0.1])
        gains = (4.0, 1.5, 10.0, 3.0, 5.0, 2.0)   # k1, k2, kp, ka, kr, d0
        tgt0 = np.array([1.0, -2.0, 0.5])
        evaluate = kernels.law(ctrl, plan.slots, ring, 2, masses, *gains, vdes)
        P, V, U, L, path, vel_err, final = kernels.rollout(
            evaluate, p0, v0, masses, tgt0, vdes, 0.01, 200)
        for r in range(3):
            Pr, Vr, Ur, Lr = rollout_loops(p0[r], v0[r], plan.slots, ring, masses, 2, ctrl,
                                           *gains, tgt0, vdes, 0.01, 200)
            if r == 0:
                for name, a, b in zip("PVU", (P, V, U), (Pr, Vr, Ur)):
                    assert np.allclose(a, b, atol=1e-10), name
            assert np.allclose(L[r], Lr, atol=1e-10), f"L run {r}"
            assert np.allclose(path[r], np.linalg.norm(np.diff(Pr, axis=0), axis=2).sum(axis=0),
                               atol=1e-10), f"path run {r}"
            assert np.allclose(vel_err[r], np.linalg.norm(Vr - vdes, axis=2),
                               atol=1e-10), f"vel_err run {r}"
            assert np.allclose(final[r], Pr[-1], atol=1e-10), f"final run {r}"

    # the sha256 of each returned array's float64 bytes, in return order
    # (P, V, U, lyap, path, vel_err, p_final); recorded with NumPy 2
    ROLLOUT_DIGESTS = {
        "log": (
            "8b56927a8c48511dc2d7d2b3edb8cf11de5aaa671c8c749b9462c13bea80a26f",
            "7630641138d39e9132decedb943fb718148ed651249b65b491d4949a1c5abbdf",
            "6b02cc0b4327a6cea902a85e00019b5057dd905776e80bc55e20fd5f213197e9",
            "2b8a074a978bf6e6c46472a0a6f6cd43fc19825ba3d0acce1bb21c0470b92512",
            "7cff7302455fadda112818411f328e3016c80bf6383edb757e6d9d613088da1b",
            "a79722bd8353ecec87c91a1db01fa3d106c96cd41bf91f43e5fd3dd3cf940a11",
            "0f7ee5f012a16299ebf68bc6f0fde00ac18c0a3a47e3e727e8e7620483aaa9d0",
        ),
        "quad": (
            "5bfe4c1b1854cc83bb53acd65478c664d6d673c5dd0332b19c9bf15841492557",
            "3381b91f43a825712a80da6079d0e17a4cff7c48f2e718686317f90cbaf9eee8",
            "d8b1ad47e040b99a271f3b07c877f67d77adbc1ccb12e004256ebf91b14a23cf",
            "e37a82ee6cc57736f7ee4a7e88f9651882dfa73794f5d66b4f9c040c4f5fa942",
            "4a6626919236c9fc0fb26494623b6f21a78073b8036a6a5e0179d27d5fb97534",
            "5bf0b0a17407a29cff61ed961513b866bf99f01d23a2bf1f55f0172450da51e3",
            "ce2e65d520a6bfca56a7346acd2e00c63449200ecd5219aa0c2bad0874ffce55",
        ),
        "apf": (
            "53c3dc03bdc98e26fac793625f4c4c73cd925dea4b0c3e98b37ad5ae342ea5c5",
            "23a65d9a6251619d13049b667ddb7aacc09d2f0745c310c1e802f8eccd766240",
            "b02ddba118ae76ca746ea51e975713aaa77776ec6227e086fe80a87db94a7a54",
            "a4de8eb40294db0ac1d910bf7c92880d34ac1209b2d3ac0217525e4dba3a3a15",
            "d36f5f3bfa96243769358f2812124ad301fff91c7502d46eb86dc5dbb2a066a8",
            "d84bcdcaacd809ffd834be3a4bc0aacc199214b6cf62e8d3d0431ce6c66c5b58",
            "8e2bdb5499e793206bc564aaa2b7df340104b89dde4c5d34f421ca412d9d911a",
        ),
    }

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="digests recorded with NumPy 2")
    @pytest.mark.parametrize("ctrl", ["log", "quad", "apf"])
    def test_rollout_bytes_frozen(self, plan, ctrl):
        # the R = 3 ring case of test_rollout_matches_oracle, bit for bit
        starts = [perturbed_state(plan, seed=seed) for seed in (6, 13, 14)]
        p0 = np.stack([s.positions for s in starts])
        v0 = np.stack([s.velocities for s in starts])
        p0[:, 1] = p0[:, 0] + [0.6, 0.3, 0.0]
        ring = np.roll(np.eye(plan.n), 1, axis=1)
        ring = ring + ring.T
        masses = np.linspace(0.8, 1.4, plan.n)
        vdes = np.array([0.5, 0.3, 0.1])
        evaluate = kernels.law(ctrl, plan.slots, ring, 2, masses,
                               4.0, 1.5, 10.0, 3.0, 5.0, 2.0, vdes)
        out = kernels.rollout(evaluate, p0, v0, masses, np.array([1.0, -2.0, 0.5]),
                              vdes, 0.01, 200)
        digests = tuple(hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()
                        for a in out)
        assert digests == self.ROLLOUT_DIGESTS[ctrl]

    def test_coincident_apf_members_in_one_run_raise(self, plan, gains):
        starts = [perturbed_state(plan, seed=seed) for seed in range(3)]
        p = starts[2].positions.copy()
        p[1] = p[0]
        starts[2] = SwarmState(p, starts[2].velocities)
        with pytest.raises(FloatingPointError):
            simulate(stacked(starts), plan, "apf", gains, 0.01, 0.5)


def _metric_values(m):
    return (m.avg_distance, m.avg_vel_err, m.max_vel_err, m.avg_final_pos_err,
            m.lyapunov_trace.tolist())


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
       controller=st.sampled_from(["log", "quad", "apf"]), data=st.data())
def test_batch_runs_equal_runs_flown_alone(seeds, controller, data):
    plan = FormationPlan(slots=SLOTS, target_position=[1.0, -2.0, 0.5],
                         target_velocity=[0.5, 0.3, 0.1])
    gains = ControlGains(masses=np.linspace(0.5, 2.0, plan.n))
    starts = [perturbed_state(plan, seed=seed) for seed in seeds]
    batch = simulate(stacked(starts), plan, controller, gains, 0.01, 0.5)
    batch_metrics = [_metric_values(m) for m in metrics(batch)]
    for r, start in enumerate(starts):
        alone = simulate(stacked([start]), plan, controller, gains, 0.01, 0.5)
        if r == 0:
            assert (batch.positions == alone.positions).all()
            assert (batch.velocities == alone.velocities).all()
            assert (batch.controls == alone.controls).all()
        assert (batch.lyapunov[r] == alone.lyapunov[0]).all()
        assert batch_metrics[r] == _metric_values(metrics(alone)[0])

    order = data.draw(st.permutations(range(len(starts))))
    permuted = simulate(stacked([starts[i] for i in order]), plan, controller, gains,
                        0.01, 0.5)
    assert (permuted.lyapunov == batch.lyapunov[order]).all()
    assert (permuted.path_length == batch.path_length[order]).all()
    assert (permuted.vel_err == batch.vel_err[order]).all()
    assert (permuted.final_positions == batch.final_positions[order]).all()
    assert [_metric_values(m) for m in metrics(permuted)] == [batch_metrics[i] for i in order]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lyapunov_never_rises_on_connected_graphs(n, seed, data):
    """V of the log law never rises, for a constant-velocity target,
    random masses in [0.5, 2], a random connected graph and a random
    leader: the kernel's general-graph code, which `simulate` does not
    reach."""
    leader = data.draw(st.integers(0, n - 1), label="leader")
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < rng.random(), 1).astype(float)
    order = rng.permutation(n)
    for k in range(1, n):   # a random spanning tree keeps the graph connected
        adj[order[rng.integers(k)], order[k]] = 1.0
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    masses = rng.uniform(0.5, 2.0, n)
    slots = rng.uniform(-10.0, 10.0, (n, 3))
    vt = rng.uniform(-1.0, 1.0, 3)
    tgt0 = rng.uniform(-5.0, 5.0, 3)
    p0 = tgt0 + rng.uniform(-15.0, 15.0, (3, n, 3))
    v0 = rng.uniform(-1.0, 1.0, (3, n, 3))
    evaluate = kernels.law("log", slots, adj, leader, masses, 4.0, 1.5, 10.0, 10.0, 5.0, 2.0, vt)
    lyap = kernels.rollout(evaluate, p0, v0, masses, tgt0, vt, 0.01, 1000)[3]
    assert np.diff(lyap, axis=1).max() <= 1e-6


class TestMetrics:
    def test_straight_line_distance(self, plan, gains):
        # constant-velocity drift of 1 m/s for 10 s with matched slots
        moving = FormationPlan(slots=plan.slots, target_velocity=np.array([1.0, 0, 0]))
        start = SwarmState(moving.desired_positions(0.0), np.tile([1.0, 0, 0], (plan.n, 1)))
        (m,) = metrics(simulate(stacked([start]), moving, "log", gains, 0.01, 10.0))
        assert m.avg_distance == pytest.approx(10.0)
        assert m.avg_vel_err == pytest.approx(0.0)
        assert m.avg_final_pos_err == pytest.approx(0.0, abs=1e-9)

    def test_aggregate_consistency(self, plan, gains):
        traj = simulate(stacked([perturbed_state(plan, seed=8)]), plan, "log", gains, 0.01, 3.0)
        (m,) = metrics(traj)
        assert m.max_vel_err >= m.avg_vel_err >= 0.0

import numpy as np
import pytest

from rollout_oracle import rollout_loops
from swarmform import kernels
from swarmform.flight import (
    ApfParams,
    ControlGains,
    FormationPlan,
    SwarmState,
    complete_graph,
    control,
    lyapunov_value,
    metrics,
    simulate,
    step,
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
        followers = [i for i in range(plan.n) if i != gains.leader]
        assert (np.linalg.norm(u_quad[followers], axis=1)
                >= np.linalg.norm(u_log[followers], axis=1) - 1e-9).all()

    def test_apf_repulsion_magnitude(self):
        apf = ApfParams(ka=1.0, kr=5.0, d0=2.0, k2=1.5)
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
            ControlGains(leader=9).resolved(3)
        disconnected = np.zeros((3, 3))
        with pytest.raises(ValueError):
            ControlGains(graph=disconnected).resolved(3)


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
        traj = simulate(state, plan, "log", gains, 0.01, 10.0)
        assert np.diff(traj.lyapunov).max() <= 1e-6
        assert traj.lyapunov[0] == pytest.approx(lyapunov_value(state, plan, gains))


class TestSimulate:
    def test_converged_start_stays(self, plan, gains):
        traj = simulate(equilibrium_state(plan), plan, "log", gains, 0.01, 1.0)
        drift = np.abs(np.diff(traj.positions, axis=0)).max()
        assert drift < 1e-9

    def test_bitwise_deterministic(self, plan, gains):
        s = perturbed_state(plan, seed=4)
        t1 = simulate(s, plan, "quad", gains, 0.01, 2.0)
        t2 = simulate(s, plan, "quad", gains, 0.01, 2.0)
        assert (t1.positions == t2.positions).all()
        assert (t1.lyapunov == t2.lyapunov).all()

    def test_unknown_controller(self, plan, gains):
        with pytest.raises(ValueError):
            simulate(equilibrium_state(plan), plan, "pid", gains)

    def test_matches_python_controllers(self, plan, gains):
        # one kernel step reproduces the per-step controller + integrator
        s = perturbed_state(plan, seed=5)
        masses, _ = gains.resolved(plan.n)
        for name in ("log", "quad", "apf"):
            traj = simulate(s, plan, name, gains, 0.01, 0.01)
            expected = step(s, control(s, plan, name, gains), masses, 0.01)
            assert np.allclose(traj.positions[1], expected.positions, atol=1e-12)

    @pytest.mark.parametrize("ctrl", [kernels.CTRL_LOG, kernels.CTRL_QUAD, kernels.CTRL_APF],
                             ids=["log", "quad", "apf"])
    def test_rollout_matches_oracle(self, plan, ctrl):
        s = perturbed_state(plan, seed=6)
        p0 = s.positions.copy()
        p0[1] = p0[0] + [0.6, 0.3, 0.0]  # an adjacent pair inside d0
        ring = np.roll(np.eye(plan.n), 1, axis=1)
        ring = ring + ring.T
        masses = np.linspace(0.8, 1.4, plan.n)
        args = (p0, s.velocities, plan.slots, ring, masses, 2, ctrl,
                4.0, 1.5, 10.0, 3.0, 5.0, 2.0,
                np.array([1.0, -2.0, 0.5]), np.array([0.5, 0.3, 0.1]), 0.01, 200)
        got = kernels.rollout(*args)
        ref = rollout_loops(*args)
        for name, a, b in zip("PVUL", got, ref):
            assert np.allclose(a, b, atol=1e-10), name


class TestMetrics:
    def test_straight_line_distance(self, plan, gains):
        # constant-velocity drift of 1 m/s for 10 s with matched slots
        n = plan.n
        times = np.arange(0, 1001) * 0.01
        positions = np.zeros((1001, n, 3))
        positions[:, :, 0] = times[:, None]
        positions += plan.desired_positions(0.0)
        traj_like = type("T", (), {})()
        traj_like.positions = positions
        traj_like.velocities = np.zeros((1001, n, 3))
        traj_like.velocities[:, :, 0] = 1.0
        traj_like.controls = np.zeros((1000, n, 3))
        traj_like.lyapunov = np.zeros(1001)
        traj_like.times = times
        traj_like.plan = FormationPlan(slots=plan.slots,
                                       target_velocity=np.array([1.0, 0, 0]))
        m = metrics(traj_like)
        assert m.avg_distance == pytest.approx(10.0)
        assert m.avg_vel_err == pytest.approx(0.0)
        assert m.avg_final_pos_err == pytest.approx(0.0, abs=1e-9)

    def test_aggregate_consistency(self, plan, gains):
        traj = simulate(perturbed_state(plan, seed=8), plan, "log", gains, 0.01, 3.0)
        m = metrics(traj)
        assert m.max_vel_err >= m.avg_vel_err >= 0.0

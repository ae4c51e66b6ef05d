import hashlib
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import slotted
from oracles import (
    SwarmState,
    control,
    lyapunov_value,
    pair_sum,
    rollout_per_step,
    squared_norm,
    stacked,
    step,
)
from rollout_oracle import rollout_loops
from swarmform import kernels
from swarmform.alloc import AllocWeights, GridSpec, ResourceModel
from swarmform.flight import (
    CONTROLLERS,
    MAX_RUN_STEPS,
    MAX_STEPS,
    ControlGains,
    FlightMetrics,
    cube_starts,
    metrics,
    simulate,
    step_count,
)
from swarmform.fov import FovSpec
from swarmform.geom import Formation
from swarmform.radio import RadioParams
from swarmform.sensing import SensorModels

SLOTS = np.array([
    [9.4, 0.0, 3.4], [0.0, 9.4, 3.4], [7.2, 6.0, 3.4],
    [-4.7, 8.1, 3.4], [9.3, -1.6, 3.4], [-1.6, -9.3, 3.4],
])
STILL = np.zeros(3)   # a stationary target's velocity
# the gains of the direct `kernels.rollout` tests
ROLLOUT_GAINS = ControlGains(k1=4.0, k2=1.5, kp=10.0, mass=1.3, ka=3.0, kr=5.0, d0=2.0)
# the names of the arrays `kernels.rollout` returns, in order
ROLLOUT_OUTPUTS = ("P", "V", "U", "lyap", "path", "vel_err", "p_final")


def two_cameras(yaws):
    """A two-camera `Formation` with these yaws."""
    return Formation(np.eye(2, 3), yaws, [False, False], np.zeros(3))


def wide_rollout_args(ctrl):
    """`kernels.rollout`'s arguments for a 48-member swarm whose target
    moves, two runs over `2 * _BLOCK + 1` steps; 3 pairs start
    within APF's d0."""
    rng = np.random.default_rng(48)
    n = 48
    return (ctrl, rng.uniform(-10.0, 10.0, (n, 3)), ROLLOUT_GAINS, rng.uniform(-1.0, 1.0, 3),
            rng.uniform(-15.0, 15.0, (2, n, 3)), rng.uniform(-1.0, 1.0, (2, n, 3)),
            rng.uniform(-5.0, 5.0, 3), 0.01, 2 * kernels._BLOCK + 1)


def fleet_rollout_args(ctrl):
    """`kernels.rollout`'s arguments at the fly_fleet benchmark's shape: 6
    members and 20 runs over `2 * _BLOCK + 1` steps toward a moving
    target; in every fourth run members 1 and 2 start within APF's d0."""
    rng = np.random.default_rng(20)
    p0 = rng.uniform(-15.0, 15.0, (20, 6, 3))
    p0[::4, 2] = p0[::4, 1] + [0.5, -0.4, 0.2]
    return (ctrl, SLOTS, ROLLOUT_GAINS, rng.uniform(-1.0, 1.0, 3), p0,
            rng.uniform(-1.0, 1.0, (20, 6, 3)), rng.uniform(-5.0, 5.0, 3), 0.01,
            2 * kernels._BLOCK + 1)


def _equal_or_both_nan(a, b):
    return a.shape == b.shape and ((a == b) | (np.isnan(a) & np.isnan(b))).all()


@pytest.fixture
def formation():
    return slotted(SLOTS)


@pytest.fixture
def gains():
    return ControlGains()


def equilibrium_state(formation):
    return SwarmState(positions=formation.positions,
                      velocities=np.zeros((len(formation), 3)))


def perturbed_state(formation, seed=0, amp=5.0):
    rng = np.random.default_rng(seed)
    n = len(formation)
    return SwarmState(positions=formation.positions + rng.uniform(-amp, amp, (n, 3)),
                      velocities=rng.uniform(-1, 1, (n, 3)))


class TestControllers:
    def test_equilibrium_is_fixed_point(self, formation, gains):
        state = equilibrium_state(formation)
        assert np.allclose(control(state, formation, STILL, "log", gains), 0.0)
        assert np.allclose(control(state, formation, STILL, "quad", gains), 0.0)
        # two slots sit 1.6 m apart, so keep d0 below that for the
        # repulsion-free equilibrium check
        assert np.allclose(control(state, formation, STILL, "apf", ControlGains(d0=1.5)),
                           0.0)

    def test_log_follower_saturates(self, gains):
        # single follower-leader pair: force peaks at k1/2 when |e| = 1
        two = slotted(SLOTS[:2])
        g = ControlGains()
        for mag in (0.1, 1.0, 5.0, 100.0):
            p = two.positions.copy()
            p[1] += [mag, 0, 0]
            u = control(SwarmState(p, np.zeros((2, 3))), two, STILL, "log", g)
            assert np.linalg.norm(u[1]) <= g.k1 / 2 + 1e-12
        p = two.positions.copy()
        p[1] += [1.0, 0, 0]
        u = control(SwarmState(p, np.zeros((2, 3))), two, STILL, "log", g)
        assert np.linalg.norm(u[1]) == pytest.approx(g.k1 / 2)

    def test_quad_dominates_log_for_large_errors(self, formation, gains):
        n = len(formation)
        state = perturbed_state(formation, seed=1, amp=8.0)
        state = SwarmState(state.positions, np.zeros((n, 3)))
        e = state.positions[:, None, :] - state.positions[None, :, :] \
            - (SLOTS[:, None, :] - SLOTS[None, :, :])
        norms = np.linalg.norm(e, axis=2) + np.eye(n)
        assert (norms >= 1).all()  # every edge error exceeds 1 for this draw
        u_log = control(state, formation, STILL, "log", gains)
        u_quad = control(state, formation, STILL, "quad", gains)
        followers = list(range(1, n))  # member 0 leads
        assert (np.linalg.norm(u_quad[followers], axis=1)
                >= np.linalg.norm(u_log[followers], axis=1) - 1e-9).all()

    def test_apf_repulsion_magnitude(self):
        gains = ControlGains(ka=1.0, kr=5.0, d0=2.0)
        pair = slotted([[0.0, 0, 0], [1.0, 0, 0]])
        # both on their slots, separated by d0/2: only repulsion remains
        p = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        u = control(SwarmState(p, np.zeros((2, 3))), pair, STILL, "apf", gains)
        expected = gains.kr * (1 / 1.0 - 1 / gains.d0) / 1.0 ** 2
        assert u[1] == pytest.approx([expected, 0, 0])
        assert u[0] == pytest.approx([-expected, 0, 0])

    def test_apf_inactive_beyond_d0(self):
        gains = ControlGains(ka=2.0, kr=5.0, d0=2.0)
        pair = slotted([[0.0, 0, 0], [5.0, 0, 0]])
        p = np.array([[1.0, 0, 0], [4.0, 0, 0]])
        u = control(SwarmState(p, np.zeros((2, 3))), pair, STILL, "apf", gains)
        assert u[0] == pytest.approx([-gains.ka * 1.0, 0, 0])

    def test_apf_coincident_rejected(self):
        pair = slotted([[0.0, 0, 0], [1.0, 0, 0]])
        p = np.zeros((2, 3))
        with pytest.raises(FloatingPointError):
            control(SwarmState(p, np.zeros((2, 3))), pair, STILL, "apf", ControlGains())

    def test_gains_validation(self):
        with pytest.raises(ValueError):
            ControlGains(k1=0.0)
        for mass in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="gains must be positive"):
                ControlGains(mass=mass)
        for field in ("ka", "kr", "d0"):
            with pytest.raises(ValueError, match="gains must be positive"):
                ControlGains(**{field: 0.0})

    def test_gains_are_frozen(self):
        # a negative k2 set after the checks would be flown unchecked,
        # pumping energy into the swarm instead of damping it
        g = ControlGains()
        with pytest.raises(FrozenInstanceError):
            g.k2 = -1.5
        assert g.k2 == 1.5

    @pytest.mark.parametrize("record, field, value, message", [
        (ControlGains, "k1", np.nan, "gains must be positive"),
        (ControlGains, "k1", np.inf, "gains and mass must be finite"),
        (ControlGains, "k2", np.nan, "gains must be positive"),
        (ControlGains, "kp", np.nan, "gains must be positive"),
        (ControlGains, "mass", np.inf, "gains and mass must be finite"),
        (ControlGains, "d0", np.nan, "gains must be positive"),
        (ControlGains, "ka", np.inf, "gains and mass must be finite"),
        (ControlGains, "kr", np.nan, "gains must be positive"),
        (ResourceModel, "cost_lidar", np.nan, "resource blocks and costs must be finite"),
        (AllocWeights, "alpha_cost", np.nan, "penalty weights and min_gain must be finite"),
        (AllocWeights, "min_gain", np.nan, "penalty weights and min_gain must be finite"),
        (AllocWeights, "max_uavs", 2.5, r"max_uavs must be an integer, got 2\.5"),
        (AllocWeights, "max_uavs", True, "max_uavs must be an integer, got True"),
        (FovSpec, "lam", np.nan, "FOV range, distance weight and SINR floor must be finite"),
        (FovSpec, "eta_min_db", np.nan,
         "FOV range, distance weight and SINR floor must be finite"),
        (FovSpec, "n_dirs", 72.5, "n_dirs and k_sectors must be integers, got 72.5 and 8"),
        (FovSpec, "k_sectors", 8.5, "n_dirs and k_sectors must be integers, got 72 and 8.5"),
        (GridSpec, "distance", np.inf, "grid distance and steps must be finite"),
        (two_cameras, "yaws", [np.nan, 0.0], r"yaws must be finite, got \[nan  0\.\]"),
        (two_cameras, "yaws", [np.inf, 0.0], r"yaws must be finite, got \[inf  0\.\]"),
        (SensorModels, "eps", 0.0, "eps must be positive"),
        (SensorModels, "eps", -1.0, "eps must be positive"),
        (RadioParams, "alpha", np.inf, "radio parameters must be finite"),
        # appended last: a row inserted above would renumber the yaws rows' ids
        (AllocWeights, "max_uavs", 0, "max_uavs must be >= 1"),
        (AllocWeights, "alpha_resource", -0.1, "penalty weights must be non-negative"),
        (FovSpec, "lam", np.float64(1e308),
         "distance weight times max perception range must be finite"),
        (FovSpec, "lam", -0.1, "distance weight must be non-negative"),
        (FovSpec, "d_max", 0.0, "max perception range must be positive"),
        (FovSpec, "gamma", np.pi, r"FOV angles must lie in \(0, pi\)"),
        (GridSpec, "beta_step", 0.0, "grid steps must be positive"),
    ])
    def test_non_finite_parameters_refused(self, record, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            record(**{field: value})


class TestStep:
    def test_drift(self):
        s = SwarmState(np.zeros((1, 3)), np.array([[1.0, 0, 0]]))
        out = step(s, np.zeros((1, 3)), 1.0, 0.01)
        assert out.positions[0] == pytest.approx([0.01, 0, 0])
        assert out.time == pytest.approx(0.01)

    def test_constant_force_matches_closed_form(self):
        s = SwarmState(np.zeros((1, 3)), np.zeros((1, 3)))
        f = np.array([[2.0, 0, 0]])
        for _ in range(100):
            s = step(s, f, 1.0, 0.01)
        assert s.velocities[0, 0] == pytest.approx(2.0 * 1.0, rel=1e-6)
        assert s.positions[0, 0] == pytest.approx(1.0, rel=2e-2)

    def test_nonfinite_force_rejected(self):
        s = SwarmState(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(FloatingPointError):
            step(s, np.array([[np.inf, 0, 0]]), 1.0, 0.01)


class TestLyapunov:
    def test_zero_at_equilibrium(self, formation, gains):
        assert lyapunov_value(equilibrium_state(formation), formation, STILL, gains) \
            == pytest.approx(0.0)

    def test_single_edge_value(self):
        pair = slotted([[0.0, 0, 0], [1.0, 0, 0]])
        g = ControlGains()
        p = np.array([[0.0, 0, 0], [2.0, 0, 0]])  # one edge error of norm 1
        v = lyapunov_value(SwarmState(p, np.zeros((2, 3))), pair, STILL, g)
        assert v == pytest.approx(0.5 * g.k1 * np.log(2.0))

    def test_monotone_under_log_control(self, formation, gains):
        state = perturbed_state(formation, seed=3, amp=10.0)
        state = SwarmState(state.positions, np.zeros((len(formation), 3)))
        traj = simulate(stacked([state]), formation, "log", gains, STILL, 0.01, 10.0)
        assert np.diff(traj.lyapunov).max() <= 1e-6
        assert traj.lyapunov[0, 0] == pytest.approx(lyapunov_value(state, formation, STILL,
                                                                    gains))

    @pytest.mark.parametrize("mass", [0.5, 2.0], ids=["0.5kg", "2kg"])
    def test_monotone_with_masses(self, formation, mass):
        # the kinetic term is (m/2) sum |v_i - v_t|^2, matching the
        # integrator's division of each force by m
        rng = np.random.default_rng(12)
        n = len(formation)
        starts = [SwarmState(rng.uniform(-15.0, 15.0, (n, 3)), np.zeros((n, 3)))
                  for _ in range(5)]
        traj = simulate(stacked(starts), formation, "log", ControlGains(mass=mass), STILL,
                        0.01, 20.0)
        assert np.diff(traj.lyapunov).max() <= 1e-6


class TestSimulate:
    def test_converged_start_stays(self, formation, gains):
        traj = simulate(stacked([equilibrium_state(formation)]), formation, "log", gains, STILL,
                        0.01, 1.0)
        drift = np.abs(np.diff(traj.positions, axis=0)).max()
        assert drift < 1e-9

    def test_bitwise_deterministic(self, formation, gains):
        s = stacked([perturbed_state(formation, seed=4)])
        t1 = simulate(s, formation, "quad", gains, STILL, 0.01, 2.0)
        t2 = simulate(s, formation, "quad", gains, STILL, 0.01, 2.0)
        assert (t1.positions == t2.positions).all()
        assert (t1.lyapunov == t2.lyapunov).all()

    def test_unknown_controller(self, formation, gains):
        with pytest.raises(ValueError):
            simulate(stacked([equilibrium_state(formation)]), formation, "pid", gains, STILL,
                     0.01, 1.0)

    def test_refuses_bad_starts(self, formation, gains):
        p, v = stacked([perturbed_state(formation, seed=9)])
        for bad, message in (((p, v[:, :-1]), "must both be"), ((p[0], v[0]), "must both be"),
                             ((p[:0], v[:0]), "no run"), ((p[:, :-1], v[:, :-1]), "disagree")):
            with pytest.raises(ValueError, match=message):
                simulate(bad, formation, "log", gains, STILL, 0.01, 0.1)
        p[0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="swarm state must be finite"):
            simulate((p, v), formation, "log", gains, STILL, 0.01, 0.1)
        for controller in CONTROLLERS:   # refused by name, not an IndexError in the rollout
            with pytest.raises(ValueError, match="empty swarm"):
                simulate((p[:, :0], v[:, :0]), slotted(np.zeros((0, 3))), controller, gains,
                         STILL, 0.01, 0.1)

    @pytest.mark.parametrize("velocity", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                                          [0.5, 0.3], [[0.5, 0.3, 0.1]], 0.5])
    def test_refuses_bad_target_velocity(self, formation, gains, velocity):
        # refused by name, before the rollout could blame coincident UAVs
        with pytest.raises(ValueError, match="velocity must be a finite 3-vector"):
            simulate(stacked([equilibrium_state(formation)]), formation, "log", gains,
                     velocity, 0.01, 0.1)

    # semi-implicit Euler holds m e'' = -K e - k2 e' iff dt < 4m / (k2 +
    # sqrt(k2^2 + 4m lam)) for every eigenvalue lam <= k1 n + kp of K
    @pytest.mark.parametrize("n, bound", [(6, 0.3017), (12, 0.2380), (48, 0.1335)])
    def test_quad_converges_below_the_step_bound_and_is_refused_above(self, gains, n, bound):
        lam = gains.k1 * n + gains.kp
        exact = (-gains.k2 + math.sqrt(gains.k2 ** 2 + 4 * gains.mass * lam)) / lam
        assert exact == pytest.approx(bound, abs=5e-5)
        f = slotted(np.random.default_rng(n).uniform(-10.0, 10.0, (n, 3)))
        start = cube_starts(f, 15.0, 0, 2)
        # stated before the run: after 2,000 steps at 0.95x the bound every
        # member of both runs is within 1e-9 m of its slot
        traj = simulate(start, f, "quad", gains, STILL, 0.95 * exact, 2000 * 0.95 * exact)
        assert len(traj.times) == 2001 and traj.final_error.max() < 1e-9
        with pytest.raises(ValueError, match="not below the quad law's stability bound"):
            simulate(start, f, "quad", gains, STILL, 1.05 * exact, 400 * 1.05 * exact)
        # flown unchecked at 1.05x, the same starts diverge within 400 steps
        with np.errstate(over="ignore", invalid="ignore"):
            *_, final = kernels.rollout("quad", f.positions - f.target, gains, STILL, *start,
                                        f.target, 1.05 * exact, 400)
        assert not (np.abs(final) < 1e20).all()

    @pytest.mark.parametrize("dt, horizon", [(1.0, 0.1), (0.01, 1e9), (1e-300, 1e300),
                                             (0.01, 0.0), (-0.01, 1.0)])
    def test_refuses_step_counts_out_of_bounds(self, formation, gains, dt, horizon):
        with pytest.raises(ValueError):
            simulate(stacked([equilibrium_state(formation)]), formation, "log", gains, STILL,
                     dt, horizon)

    def test_step_count_edges(self):
        assert step_count(1.0, 0.6) == 1
        assert step_count(0.01, 60.0) == 6000
        assert step_count(1.0, MAX_STEPS + 0.5) == MAX_STEPS   # rounds half to even
        for horizon in (0.5, MAX_STEPS + 0.6):
            with pytest.raises(ValueError, match="must round to 1 to 100000 steps"):
                step_count(1.0, horizon)

    def test_run_step_cap(self, formation, gains, monkeypatch):
        # all runs' steps together: 500 runs of 2,000 steps fit, 501 do not
        assert step_count(0.01, 20.0, MAX_RUN_STEPS // 2000) == 2000
        with pytest.raises(ValueError, match=f"runs x steps must be at most {MAX_RUN_STEPS}, "
                                             "got 501 x 2000"):
            step_count(0.01, 20.0, MAX_RUN_STEPS // 2000 + 1)
        # simulate counts the runs of its start, refused before the rollout
        monkeypatch.setattr(kernels, "rollout", lambda *args: pytest.fail("flight not refused"))
        runs = MAX_RUN_STEPS // MAX_STEPS + 1
        p, v = stacked([equilibrium_state(formation)] * runs)
        with pytest.raises(ValueError, match="runs x steps must be at most"):
            simulate((p, v), formation, "log", gains, STILL, 1.0, MAX_STEPS)

    def test_start_too_far_out_raises(self, formation, gains):
        # squared distances overflow, so V, path lengths and velocity
        # errors would reach the report as inf
        p, v = stacked([perturbed_state(formation, seed=10)])
        with pytest.raises(FloatingPointError):
            simulate((1e200 * p, v), formation, "log", gains, STILL, 0.01, 0.1)

    def test_matches_python_controllers(self, formation, gains):
        # one kernel step reproduces the per-step controller + integrator,
        # for a stationary and for a moving target
        moving = slotted(SLOTS, [1.0, -2.0, 0.5]), np.array([0.5, 0.3, 0.1])
        for f, vt in ((formation, STILL), moving):
            s = perturbed_state(f, seed=5)
            for name in ("log", "quad", "apf"):
                traj = simulate(stacked([s]), f, name, gains, vt, 0.01, 0.01)
                expected = step(s, control(s, f, vt, name, gains), gains.mass, 0.01)
                assert np.allclose(traj.positions[1], expected.positions, atol=1e-12)
                assert np.allclose(traj.velocities[1], expected.velocities, atol=1e-12)
            assert lyapunov_value(s, f, vt, gains) == pytest.approx(traj.lyapunov[0, 0],
                                                                    abs=1e-12)

    @pytest.mark.parametrize("ctrl", ["log", "quad", "apf"])
    def test_rollout_matches_oracle(self, formation, ctrl):
        # an R = 3 batch against the oracle flown run by run
        starts = [perturbed_state(formation, seed=seed) for seed in (6, 13, 14)]
        p0 = np.stack([s.positions for s in starts])
        v0 = np.stack([s.velocities for s in starts])
        p0[:, 1] = p0[:, 0] + [0.6, 0.3, 0.0]  # a pair inside d0
        vdes = np.array([0.5, 0.3, 0.1])
        tgt0 = np.array([1.0, -2.0, 0.5])
        P, V, U, L, path, vel_err, final = kernels.rollout(
            ctrl, SLOTS, ROLLOUT_GAINS, vdes, p0, v0, tgt0, 0.01, 200)
        for r in range(3):
            # mass, then k1, k2, kp, ka, kr, d0
            Pr, Vr, Ur, Lr = rollout_loops(p0[r], v0[r], SLOTS, 1.3, ctrl,
                                           4.0, 1.5, 10.0, 3.0, 5.0, 2.0, tgt0, vdes, 0.01, 200)
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
    # (P, V, U, lyap, path, vel_err, p_final); recorded with NumPy 2, when
    # the kernels still took the graph, leader and per-member masses as
    # arguments (here the complete graph, leader 0 and 1.3 kg each)
    ROLLOUT_DIGESTS = {
        "log": (
            "6075f9afa04758b451d9416ffa335dc7a5645303287acc73f75fa0ce0261d15a",
            "c07600482b8e5920a8b61c865cd961af2841321a3d99b7643676622d434303f7",
            "0ce02fd7823323c405ce1a9dba417eaa02220df77d4a6c9a14f0946d3a471864",
            "3abc1efd37d7e1c41d44a83208b9bfb5dca2945d4c845e16825a7253f1593c0e",
            "9f9755e900cf331067255d57460895e7d44f134bf9a62248053a761f0464332c",
            "93e72eb925f7b36ed216ce6d54fad7c80fb13ff71d6effba2bfea41356eace7f",
            "e714fc021cb50d6072e4d4092e34bbc31a727aa36f442209646f17e47833ef0f",
        ),
        "quad": (
            "8ba70582ddb29b7290bd88b0a1d2222f0477f7238469fe708e66b4542deb4877",
            "38e4e0445690f0c31dd77d8b7cdf84a0d94fcf6b60940ecc5bfb4248e396be74",
            "1414d89eda41ac5b5125ae1b586e5659349f236f6daeac27a4ed71f6de95a6ce",
            "d0d7c61ae6ff08a2e11e3947c4d2a0c3cea32b36906d0b99281407183f354bc4",
            "19314a98d242a71554c6cf07af243ea315b0777edef9010a524e322c9cb0af99",
            "f9ac8e085d8b2a6c81dbcd0ea2af68071b687c6c07fb24048ccbc17e673d13cc",
            "753c59313636f3b49794f35904842f05f6bf256b7e276878ac9a867d46fbf5f4",
        ),
        "apf": (
            "e1cde96e63800f465e3cc8fc962aae3e10a3e6cb9c0df8f7039dd824a2b2946f",
            "d0361feaa49b2c45b7358111534d341ca12fe801713904cecfa64ab613a94ee6",
            "a3cc70e7a98c96b1ce9ad77352cc127673099f93bb5f3d91bac36bc1a7ad730a",
            "58e33b3c7e1959c45b49c83a569c5c821eb7d03c1b37ac42a2adf867d62bf6cb",
            "172b037a17d6c83e35760035135cee0b22749b40d8d092952f9c080ae025eb9f",
            "9114354d6f3abb0e8ab98be38d544d3dc70846b408e0709446b2c0a8da996078",
            "defb20163bf0d75c3f33d2a4f9908c5893863f80ce7118b690e503b694c34dc8",
        ),
    }

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="digests recorded with NumPy 2")
    @pytest.mark.parametrize("ctrl", ["log", "quad", "apf"])
    def test_rollout_bytes_frozen(self, formation, ctrl):
        # the R = 3 case of test_rollout_matches_oracle, bit for bit
        starts = [perturbed_state(formation, seed=seed) for seed in (6, 13, 14)]
        p0 = np.stack([s.positions for s in starts])
        v0 = np.stack([s.velocities for s in starts])
        p0[:, 1] = p0[:, 0] + [0.6, 0.3, 0.0]
        vdes = np.array([0.5, 0.3, 0.1])
        out = kernels.rollout(ctrl, SLOTS, ROLLOUT_GAINS, vdes, p0, v0,
                              np.array([1.0, -2.0, 0.5]), 0.01, 200)
        digests = tuple(hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()
                        for a in out)
        assert digests == self.ROLLOUT_DIGESTS[ctrl]

    # the same digests of a wide swarm, n = 48 and R = 2 over two blocks and
    # one step (`wide_rollout_args`), as the swarm_wide benchmark flies it:
    # its j-sums run past NumPy's 8-wide unroll; recorded with NumPy 2 from
    # the einsum law, before the kernels summed without einsum
    WIDE_ROLLOUT_DIGESTS = {
        "log": (
            "f280513327214f5401f3b9ca66e43bbc020c4c324e2680fb5f6411e63c0a4775",
            "df82f6b5b0f8aceb17c648060b2b072d6d2db8d5ea91ef56afc8e0418cbecab2",
            "419cca5ca1377a80af024d42faddca9261894179ad7f4b6fd16515a788217756",
            "2c0ce6c9b350d7a60ec38ab5528bd9f9f3dd0958e65099523a44c0a21f7a7505",
            "7911db382dc3a79fe2deba85483b6b4a83cc85085aa138235d6dff5dcd29d1b1",
            "60ddd06bee6abe5558ccff572a6d68b72d137a7aa47171eb4f096976f498b9b2",
            "9f13ce8d32b2408948b696d617387fb28818701358a1f7b85b203bfdfdcb90ff",
        ),
        "quad": (
            "3b49864498921ea3fe69172bd6179a935bff64644c194f3c21a71e353a3c6cf9",
            "18a5092c0a4425f3cb50863562da457169166b228e3fef21186c0c3047c466e1",
            "56d407561644a5844263d6551bad2720a31998a9cf9b4ad14bdcbd2d7c1a56f9",
            "a83ff48aa3aad85eeb115d35d6de932dcd5fb98ccd29a85b77c9f0d4a8b92436",
            "0951cad442c81877ba4ef775ff73118dddce5717ffd7d6044634ce335e72784b",
            "4afaa81b716bf64e4e6382635b7156bed779b73d3e81a14dc36c662891ee33cf",
            "84ef03745eceb7bda536f28b6dad7797cf8ca9f62d26ef3445674891a10feb03",
        ),
        "apf": (
            "43cd8d05e7dd3dcf9dbd096706cdd556e8b4ab90dde6a3a800bb8900a45f3bb5",
            "fba0e5499fcfa4daf48bdef975367f07b0116572961b9922f09288e92b8cec00",
            "ea9fa264f44762cd87ba53187328c8fec59bb010ececff03e454f157e437a47c",
            "9493f5ec33820b4f58866423be80063b598ffb16444170e0782720c34b698711",
            "bba47c6cd0aaca0f211b90150a0351e78b9a7772cca0a79f4ceeb745fb5577eb",
            "f83a1e1820f2e53fd6778ea283ae8b9c5a63adddc6f829320768b052853d45c1",
            "77c1bece4a5cd2fc9649be4027dd58c9daf4df5f0980e057746aa8b70400d705",
        ),
    }

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="digests recorded with NumPy 2")
    @pytest.mark.parametrize("ctrl", ["log", "quad", "apf"])
    def test_wide_rollout_bytes_frozen(self, ctrl):
        out = kernels.rollout(*wide_rollout_args(ctrl))
        digests = tuple(hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()
                        for a in out)
        assert digests == self.WIDE_ROLLOUT_DIGESTS[ctrl]

    # the same digests at the fly_fleet benchmark's shape, n = 6 and R = 20
    # over two blocks and one step (`fleet_rollout_args`); recorded with
    # NumPy 2 before the block reductions read the axis-major planes
    FLEET_ROLLOUT_DIGESTS = {
        "log": (
            "85ce194f9d3f8d42cbcda5b4edd55a4e733f2ed5d5fcd8145684ef4fddf0fd27",
            "fb2d085d3cdb299b1b6f0f91e3bd2312ad6810e3fcddfb920000d07bac5f026e",
            "a7f2d1ee6bda092eb7935d49237abb81028e575c63136986533f02506b41de05",
            "dad3afa8f0a1b0871dd3b09c5efb6fe1219d15dfb2c7b785c947d4905f4716f9",
            "ecc459f64a689f8c14c307ec4394074bdc16b4b2d1b40ede370bd0ad1bd38d56",
            "2db5e26fd1186ae49d034c9694ba8d613c9a2bb59d115edbab60a8a40a48fc5a",
            "a605b25c3807cfecea833901266b02173ff839a7ca9b5c0667bb79a6d12dfa56",
        ),
        "quad": (
            "6f78e92df3a232d556414d264848a7cfe93a15ee12521a7c8211c18fe114f665",
            "12a4b55ee68ad6b77f5d67324a40270af979f07a5d72f9728eb99447f5657e09",
            "19a80f4010dab42ac8d9e429eb64f12f70be62e38ff8d60d78bc120184a7c092",
            "3c0a6da5690422f0d137da9b71f3b728b4cd04914619b27c9bc576ca45fba130",
            "d00672a93120bab6f7a11ac3937aa973aecd4e5bb9c0a89448b5b2331f05c22b",
            "b97d43d96a72867f14837eee20fc0345929136d705a3a951d8b45399a49545c8",
            "5e6b4154315fd9e35fc0d86ee985564bd89707bcbada3be13a39cbbe9fd25b2f",
        ),
        "apf": (
            "c88c8ea678a16852c595b0db6abfaab272eeb30a027f05b621b7f1fa738ef5f3",
            "93a8c7f9aa0864a3a6743bb4007840bf14b271f0a74afb3432b060e96f381f15",
            "4b1f634ec12864447279138f9997084b90b1e6eb6a2725e8e7df541a6467d128",
            "1f3c75dbfaeb38acbc95c1e8ae4b4cd46bf7eb57715c1eb6c439aa2a669bd733",
            "3d7452c18d4a9a5d45131e2f2517d1f06e7f5130d96af3f80d9999860c8cddf7",
            "a0e1a99763fcbd0e1f2d5916ea0c6122dbf9fab09990e0e819510c9c0f0d42b9",
            "9b1208de10bb57ad89e380116a9bf24ad107c449ecce1de4583227ef66bbb066",
        ),
    }

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="digests recorded with NumPy 2")
    @pytest.mark.parametrize("ctrl", ["log", "quad", "apf"])
    def test_fleet_rollout_bytes_frozen(self, ctrl):
        args = fleet_rollout_args(ctrl)
        p0 = args[4]
        i, j = np.triu_indices(6, 1)
        # APF's repulsion acts from the start
        assert (np.linalg.norm(p0[:, i] - p0[:, j], axis=-1) < ROLLOUT_GAINS.d0).any()
        out = kernels.rollout(*args)
        digests = tuple(hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()
                        for a in out)
        assert digests == self.FLEET_ROLLOUT_DIGESTS[ctrl]

    @pytest.mark.parametrize("ctrl", ["log", "apf"])
    def test_block_hook_sees_final_history_and_moves_no_bit(self, ctrl):
        # the hook is called after each block, once run 0's history up to
        # the block's last state is final, and the outputs keep every bit
        args = fleet_rollout_args(ctrl)
        steps = args[-1]
        seen = []

        def on_block(s, P, V, U, lyap):
            seen.append((s, P[:s + 1].copy(), V[:s + 1].copy(), U[:s].copy(),
                         lyap[:, :s + 1].copy()))

        out = kernels.rollout(*args, on_block)
        for name, a, b in zip(ROLLOUT_OUTPUTS, out, kernels.rollout(*args)):
            assert np.array_equal(a, b), name
        assert [s for s, *_ in seen] == [kernels._BLOCK, 2 * kernels._BLOCK, steps]
        P, V, U, lyap = out[:4]
        for s, *early in seen:
            for a, b in zip(early, (P[:s + 1], V[:s + 1], U[:s], lyap[:, :s + 1])):
                assert np.array_equal(a, b), s

    @pytest.mark.parametrize("run", [0, 2])
    def test_non_finite_run_crosses_blocks_as_per_step(self, formation, run):
        # coincident APF members make one run non-finite from the first
        # step; its infs and NaNs are carried from block to block exactly
        # as the per-step loop carries them, and the other runs stay finite
        starts = [perturbed_state(formation, seed=seed) for seed in (6, 13, 14)]
        p0 = np.stack([s.positions for s in starts])
        v0 = np.stack([s.velocities for s in starts])
        p0[run, 3] = p0[run, 1]
        args = ("apf", SLOTS, ROLLOUT_GAINS, np.array([0.5, 0.3, 0.1]), p0, v0,
                np.array([1.0, -2.0, 0.5]), 0.01, 2 * kernels._BLOCK + 1)
        out = kernels.rollout(*args)
        for name, a, b in zip(ROLLOUT_OUTPUTS, out, rollout_per_step(*args)):
            assert _equal_or_both_nan(a, b), name
        lyap = out[3]
        assert np.isnan(lyap[run, kernels._BLOCK + 1:]).all()
        assert np.isfinite(np.delete(lyap, run, axis=0)).all()

    def test_coincident_apf_members_in_one_run_raise(self, formation, gains):
        starts = [perturbed_state(formation, seed=seed) for seed in range(3)]
        p = starts[2].positions.copy()
        p[1] = p[0]
        starts[2] = SwarmState(p, starts[2].velocities)
        with pytest.raises(FloatingPointError):
            simulate(stacked(starts), formation, "apf", gains, STILL, 0.01, 0.5)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), runs=st.integers(1, 4),
       steps=st.sampled_from([1, kernels._BLOCK - 1, kernels._BLOCK, kernels._BLOCK + 1,
                              2 * kernels._BLOCK + 1, 2000]),
       ctrl=st.sampled_from(["log", "quad", "apf"]), moving=st.booleans(),
       mass=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
# one run of one member: NumPy would sum its (steps, 1, 1) path terms pairwise
@example(n=1, runs=1, steps=kernels._BLOCK - 1, ctrl="log", moving=True, mass=1.0, seed=0)
# swarms past NumPy's 8-wide unroll, whose sums the draw above never reaches
@example(n=9, runs=3, steps=kernels._BLOCK + 1, ctrl="apf", moving=True, mass=1.3, seed=9)
@example(n=17, runs=2, steps=kernels._BLOCK, ctrl="quad", moving=False, mass=0.7, seed=17)
@example(n=48, runs=2, steps=2 * kernels._BLOCK + 1, ctrl="log", moving=True, mass=1.0,
         seed=48)
def test_rollout_equals_per_step_loop(n, runs, steps, ctrl, moving, mass, seed):
    """The block-reduced rollout gives every output bit for bit as the
    per-step loop does, at and around the block boundaries."""
    rng = np.random.default_rng(seed)
    slots = rng.uniform(-10.0, 10.0, (n, 3))
    vt = rng.uniform(-1.0, 1.0, 3) if moving else STILL
    args = (ctrl, slots, replace(ROLLOUT_GAINS, mass=mass), vt,
            rng.uniform(-15.0, 15.0, (runs, n, 3)), rng.uniform(-1.0, 1.0, (runs, n, 3)),
            rng.uniform(-5.0, 5.0, 3), 0.01, steps)
    for name, a, b in zip(ROLLOUT_OUTPUTS, kernels.rollout(*args), rollout_per_step(*args)):
        assert _equal_or_both_nan(a, b), name


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="the orders of NumPy 2's einsum")
@pytest.mark.parametrize("n", [1, 2, 6, 9, 17, 48])
def test_einsum_sums_in_the_kernels_orders(n):
    """The frozen rollout digests were recorded when the law summed with
    einsum; the kernels now state its orders themselves. A NumPy whose
    einsum sums in another order fails here by name; (x^2 + y^2) + z^2
    matches einsum on about 77% of random vectors."""
    rng = np.random.default_rng(n)
    e = rng.standard_normal((3, n, n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, n, n, 1))
    w = rng.uniform(0.0, 1.0, (3, n, n))
    assert (np.einsum("rijk,rijk->rij", e, e) == squared_norm(e)).all()
    assert (np.einsum("rij,rijk->rik", w, e) == pair_sum(w, e)).all()
    assert (np.einsum("rij,rijk->rik", np.ones_like(w), e) == pair_sum(None, e)).all()


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="the order was measured with NumPy 2 only")
@pytest.mark.parametrize("shape", [(3,), (1, 1, 3), (7, 3), (65, 20, 6, 3), (3, 2, 48, 3)])
def test_norm_sums_in_the_kernels_order(shape):
    """The rollout's velocity errors and step lengths were recorded from
    `np.linalg.norm` along an axis of 3, and are now summed over the
    coordinate planes as sqrt((x^2 + y^2) + z^2). A NumPy whose norm sums
    in another order fails here by name: x^2 + (y^2 + z^2) differs from
    it on about 10% of the random draws, at every shape here."""
    rng = np.random.default_rng(len(shape))
    draws = -(-4000 // math.prod(shape[:-1]))   # about 4,000 vectors of each shape
    for scale in (1.0, 150.0):   # random, then badly scaled components
        for _ in range(draws):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-scale, scale, shape)
            planes = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
            assert (np.linalg.norm(x, axis=-1) == np.sqrt(planes + x[..., 2] * x[..., 2])).all()


def _metric_values(m):
    """The metric columns as one (R, 4) table, a row per run."""
    return np.column_stack((m.avg_distance, m.avg_vel_err, m.max_vel_err, m.avg_final_pos_err))


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
       controller=st.sampled_from(["log", "quad", "apf"]), data=st.data())
def test_batch_runs_equal_runs_flown_alone(seeds, controller, data):
    formation, vt = slotted(SLOTS, [1.0, -2.0, 0.5]), np.array([0.5, 0.3, 0.1])
    gains = ControlGains(mass=1.3)
    starts = [perturbed_state(formation, seed=seed) for seed in seeds]
    batch = simulate(stacked(starts), formation, controller, gains, vt, 0.01, 0.5)
    batch_metrics = _metric_values(metrics(batch))
    for r, start in enumerate(starts):
        alone = simulate(stacked([start]), formation, controller, gains, vt, 0.01, 0.5)
        if r == 0:
            assert (batch.positions == alone.positions).all()
            assert (batch.velocities == alone.velocities).all()
            assert (batch.controls == alone.controls).all()
        assert (batch.lyapunov[r] == alone.lyapunov[0]).all()
        assert (batch_metrics[r] == _metric_values(metrics(alone))[0]).all()

    order = data.draw(st.permutations(range(len(starts))))
    permuted = simulate(stacked([starts[i] for i in order]), formation, controller, gains, vt,
                        0.01, 0.5)
    assert (permuted.lyapunov == batch.lyapunov[order]).all()
    assert (permuted.path_length == batch.path_length[order]).all()
    assert (permuted.vel_err == batch.vel_err[order]).all()
    assert (permuted.final_error == batch.final_error[order]).all()
    assert (_metric_values(metrics(permuted)) == batch_metrics[order]).all()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), mass=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
def test_lyapunov_never_rises_on_connected_graphs(n, mass, seed):
    """V of the log law never rises under `simulate` (the complete graph,
    the connected graph the library flies, led by member 0) for any swarm
    size, mass, slots and constant-velocity target."""
    rng = np.random.default_rng(seed)
    formation = slotted(rng.uniform(-10.0, 10.0, (n, 3)), rng.uniform(-5.0, 5.0, 3))
    vt = rng.uniform(-1.0, 1.0, 3)
    p0 = formation.target + rng.uniform(-15.0, 15.0, (3, n, 3))
    v0 = rng.uniform(-1.0, 1.0, (3, n, 3))
    traj = simulate((p0, v0), formation, "log", ControlGains(mass=mass), vt, 0.01, 10.0)
    assert np.diff(traj.lyapunov, axis=1).max() <= 1e-6


class TestMetrics:
    def test_straight_line_distance(self, formation, gains):
        # constant-velocity drift of 1 m/s for 10 s with matched slots
        vt = np.array([1.0, 0, 0])
        start = SwarmState(formation.positions, np.tile(vt, (len(formation), 1)))
        m = metrics(simulate(stacked([start]), formation, "log", gains, vt, 0.01, 10.0))
        assert m.avg_distance == pytest.approx([10.0])
        assert m.avg_vel_err == pytest.approx([0.0])
        assert m.avg_final_pos_err == pytest.approx([0.0], abs=1e-9)

    def test_aggregate_consistency(self, formation, gains):
        starts = stacked([perturbed_state(formation, seed=seed) for seed in (8, 9)])
        m = metrics(simulate(starts, formation, "log", gains, STILL, 0.01, 3.0))
        assert m.avg_distance.shape == m.max_vel_err.shape == (2,)
        assert (m.max_vel_err >= m.avg_vel_err).all() and (m.avg_vel_err >= 0.0).all()

    def test_inconsistent_row_rejected(self):
        # one bad run among good ones is enough
        ok, bad = np.array([1.0, 1.0]), np.array([2.0, 0.5])
        with pytest.raises(ValueError, match="inconsistent"):
            FlightMetrics(avg_distance=ok, avg_vel_err=ok, max_vel_err=bad, avg_final_pos_err=ok)

"""Double-integrator swarm flight simulation with three controllers.

The logarithmic and quadratic controllers are consensus-style formation
laws on a connected undirected graph; only the leader carries the
absolute position term toward its desired slot, so the swarm tracks the
target through the leader. The APF controller attracts every member to
its own absolute slot and adds short-range pairwise repulsion.

The logarithmic law saturates: each edge contributes at most k1/2 of
force regardless of the formation error, which is what bounds control
authority (and energy) during large transitions. Every controller
damps the velocity error v_i - v_t against the target's velocity v_t,
so in the target's frame the equations are those of a stationary target.
For a target moving at constant velocity, the Lyapunov function

    V = (k1/2) * sum_edges ln(1 + |e_ij|^2) + (1/2) * sum m_i |v_i - v_t|^2
        + (kp/2) * |P_L - P_L_des|^2

decreases monotonically along trajectories of members with masses m_i
(dV/dt = -k2 * sum |v_i - v_t|^2); the k1/2 and kp/2 coefficients are
exactly the ones that make the cross terms cancel.

The equations live once, in `swarmform.kernels`: `simulate` rolls them
out, and `control` and `lyapunov_value` evaluate them at a single state.
`simulate` flies any number of seeded starts (runs) of one plan in one
batched rollout. The `Trajectory` it returns keeps the full state
history of the first run only, and for every run the Lyapunov trace and
what `metrics` needs; each run's numbers are bit for bit those of the
same start flown alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import kernels

CONTROLLERS = ("log", "quad", "apf")


@dataclass
class SwarmState:
    positions: np.ndarray      # (n, 3) m
    velocities: np.ndarray     # (n, 3) m/s
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape or self.positions.shape[1] != 3:
            raise ValueError("positions and velocities must both be (n, 3)")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise ValueError("swarm state must be finite")

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def complete_graph(n: int) -> np.ndarray:
    return np.ones((n, n)) - np.eye(n)


def _connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if adj[i, j] != 0 and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


@dataclass
class ControlGains:
    k1: float = 4.0
    k2: float = 1.5
    kp: float = 10.0
    masses: np.ndarray | None = None   # kg per member; default 1.0
    leader: int = 0
    graph: np.ndarray | None = None    # symmetric adjacency; default complete

    def __post_init__(self):
        if min(self.k1, self.k2, self.kp) <= 0:
            raise ValueError("gains must be positive")

    def resolved(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(masses, adjacency) materialized for an n-member swarm."""
        masses = np.ones(n) if self.masses is None else np.asarray(self.masses, dtype=float)
        if masses.shape != (n,) or (masses <= 0).any():
            raise ValueError("masses must be n positive values")
        adj = complete_graph(n) if self.graph is None else np.asarray(self.graph, dtype=float)
        if adj.shape != (n, n) or not np.allclose(adj, adj.T):
            raise ValueError("graph must be a symmetric n x n adjacency")
        if not 0 <= self.leader < n:
            raise ValueError(f"leader index {self.leader} out of range")
        if not _connected(adj):
            raise ValueError("communication graph must be connected")
        return masses, adj


@dataclass
class ApfParams:
    ka: float = 10.0    # slot attraction
    kr: float = 5.0     # repulsion strength
    d0: float = 2.0     # repulsion activation distance, m

    def __post_init__(self):
        if min(self.ka, self.kr, self.d0) <= 0:
            raise ValueError("APF parameters must be positive")


@dataclass
class FormationPlan:
    """Desired formation as slot offsets from the (moving) target."""

    slots: np.ndarray                          # (n, 3) offsets from target
    target_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    target_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.slots = np.atleast_2d(np.asarray(self.slots, dtype=float))
        self.target_position = np.asarray(self.target_position, dtype=float)
        self.target_velocity = np.asarray(self.target_velocity, dtype=float)

    @property
    def n(self) -> int:
        return self.slots.shape[0]

    def target_at(self, t: float) -> np.ndarray:
        return self.target_position + t * self.target_velocity

    def desired_positions(self, t: float) -> np.ndarray:
        return self.target_at(t) + self.slots


@dataclass
class Trajectory:
    """R runs of one plan. The state history is run 0's only."""

    times: np.ndarray            # (steps+1,)
    positions: np.ndarray        # (steps+1, n, 3) run 0
    velocities: np.ndarray       # (steps+1, n, 3) run 0
    controls: np.ndarray         # (steps, n, 3) run 0
    lyapunov: np.ndarray         # (R, steps+1)
    path_length: np.ndarray      # (R, n) m, per-step distances summed over time
    vel_err: np.ndarray          # (R, steps+1, n) m/s, |v_i - v_target|
    final_positions: np.ndarray  # (R, n, 3)
    plan: FormationPlan
    controller: str


@dataclass
class FlightMetrics:
    avg_distance: float
    avg_vel_err: float
    max_vel_err: float
    avg_final_pos_err: float
    lyapunov_trace: np.ndarray

    def __post_init__(self):
        if not self.max_vel_err >= self.avg_vel_err >= 0:
            raise ValueError("velocity-error aggregates are inconsistent")


def _check_controller(controller: str) -> None:
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}; expected log, quad or apf")


def _law(n: int, plan: FormationPlan, controller: str, gains: ControlGains,
         apf: ApfParams | None):
    """kernels.law bound to this swarm's plan, graph, masses and gains."""
    masses, adj = gains.resolved(n)
    apf = apf or ApfParams()
    return kernels.law(controller, plan.slots, adj, gains.leader, masses,
                       gains.k1, gains.k2, gains.kp, apf.ka, apf.kr, apf.d0,
                       plan.target_velocity)


def control(state: SwarmState, plan: FormationPlan, controller: str,
            gains: ControlGains, apf: ApfParams | None = None) -> np.ndarray:
    """Control input of `controller` at `state`, exactly as `simulate` applies it.

    log: saturating per-edge force k1*e/(1+|e|^2); quad: linear per-edge
    force k1*e; both pull the leader toward its slot with kp. apf: every
    member attracted to its own slot with apf.ka, plus pairwise repulsion
    within apf.d0. All three damp the velocity error against the target,
    -gains.k2 * (v - plan.target_velocity).
    """
    _check_controller(controller)
    u, _ = _law(state.n, plan, controller, gains, apf)(
        state.positions[None], state.velocities[None], plan.target_at(state.time))
    u = u[0]
    if not np.isfinite(u).all():
        raise FloatingPointError("non-finite control force, e.g. from coincident UAVs under APF")
    return u


def lyapunov_value(state: SwarmState, plan: FormationPlan, gains: ControlGains) -> float:
    """Lyapunov candidate for the logarithmic controller (module docstring)."""
    _, lyap = _law(state.n, plan, "log", gains, None)(
        state.positions[None], state.velocities[None], plan.target_at(state.time))
    return float(lyap[0])


def simulate(
    initial: SwarmState | Sequence[SwarmState],
    plan: FormationPlan,
    controller: str,
    gains: ControlGains,
    dt: float = 0.01,
    horizon: float = 60.0,
    apf: ApfParams | None = None,
) -> Trajectory:
    """Fixed-step rollout of one start or of a sequence of starts (one per
    run, all at the same time); deterministic for fixed inputs.

    All runs are flown in one batched rollout, and run r of the result is
    bit for bit the same start flown alone. The recorded Lyapunov trace
    always uses the logarithmic candidate, so traces are comparable
    across controllers. A non-finite control force in any run raises
    FloatingPointError.
    """
    _check_controller(controller)
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    starts = [initial] if isinstance(initial, SwarmState) else list(initial)
    if not starts:
        raise ValueError("no initial state to fly")
    if any(s.n != plan.n for s in starts):
        raise ValueError("state and plan disagree on swarm size")
    t0 = starts[0].time
    if any(s.time != t0 for s in starts):
        raise ValueError("initial states must share one start time")
    steps = int(round(horizon / dt))
    P, V, U, lyap, path, vel_err, final = kernels.rollout(
        _law(plan.n, plan, controller, gains, apf),
        np.stack([s.positions for s in starts]), np.stack([s.velocities for s in starts]),
        gains.resolved(plan.n)[0], plan.target_at(t0), plan.target_velocity, dt, steps,
    )
    if not np.isfinite(final).all():
        raise FloatingPointError("non-finite control force during rollout, "
                                 "e.g. from coincident UAVs under APF")
    times = t0 + dt * np.arange(steps + 1)
    return Trajectory(times=times, positions=P, velocities=V, controls=U,
                      lyapunov=lyap, path_length=path, vel_err=vel_err,
                      final_positions=final, plan=plan, controller=controller)


def metrics(traj: Trajectory) -> list[FlightMetrics]:
    """Flight-quality metrics of every run of a trajectory, in run order.

    avg_distance: mean over UAVs of per-step path length summed over time.
    Velocity error is measured against the target's instantaneous
    velocity; final position error against the time-varying desired slots.
    """
    if traj.times.shape[0] < 2:
        raise ValueError("trajectory has no steps")
    desired = traj.plan.desired_positions(traj.times[-1])
    return [
        FlightMetrics(
            avg_distance=float(path.mean()),
            avg_vel_err=float(vel_err.mean()),
            max_vel_err=float(vel_err.max()),
            avg_final_pos_err=float(np.linalg.norm(final - desired, axis=1).mean()),
            lyapunov_trace=lyap,
        )
        for path, vel_err, final, lyap in zip(traj.path_length, traj.vel_err,
                                              traj.final_positions, traj.lyapunov)
    ]

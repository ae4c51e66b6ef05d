"""Double-integrator swarm flight simulation with three controllers.

The logarithmic and quadratic controllers are consensus-style formation
laws on the complete graph of the swarm; only the leader, member 0,
carries the absolute position term toward its desired slot, so the
swarm tracks the target through the leader. Member 0 is also the fusion
receiver of `fov` and `radio`. The APF controller attracts every member
to its own absolute slot and adds short-range pairwise repulsion. Every
member has the same mass m. One `ControlGains` holds the seven constants
of all three laws: k1, k2, kp, m, and the APF law's ka, kr and d0.

The logarithmic law saturates: each edge contributes at most k1/2 of
force regardless of the formation error, which is what bounds control
authority (and energy) during large transitions. Every controller
damps the velocity error v_i - v_t against the target's velocity v_t,
so in the target's frame the equations are those of a stationary target.
For a target moving at constant velocity, the Lyapunov function

    V = (k1/2) * sum_edges ln(1 + |e_ij|^2) + (m/2) * sum |v_i - v_t|^2
        + (kp/2) * |P_L - P_L_des|^2

decreases monotonically along trajectories (dV/dt = -k2 * sum |v_i - v_t|^2);
the k1/2 and kp/2 coefficients are exactly the ones that make the cross
terms cancel.

The equations live once, in `swarmform.kernels`, and `simulate` rolls
them out with one `kernels.rollout` call; `kernels` says how that
rollout binds the law, in which order it sums, and how it reduces its
outputs. Its step loop holds the states axis-major, (3, R, n), but it
takes and returns them member-major, (R, n, 3), as every array here
is. `simulate` flies the designed
`Formation`: each member's slot is its offset from the formation's
target, which moves at a constant velocity. A start is a pair
(positions, velocities) of (R, n, 3) arrays: R runs, all flown from
t = 0 in one batched rollout; `cube_starts` draws R seeded starts at
rest around the target. The `Trajectory` it returns
holds outputs only: the full state history of the first run, and for
every run the Lyapunov trace and what `metrics` reduces to one row per
run; each run's numbers are bit for bit those of the same start flown
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .geom import Formation

CONTROLLERS = ("log", "quad", "apf")
MAX_STEPS = 100_000  # the longest flight: 1,000 s at the default 0.01 s step
# the most steps of all runs of one flight together; at n = 6 the rollout's
# per-run outputs then take 56 MB
MAX_RUN_STEPS = 1_000_000


def step_count(dt: float, horizon: float, runs: int = 1) -> int:
    """The steps of a flight, round(horizon / dt); refused outside [1, MAX_STEPS],
    and when `runs` runs of them take more than MAX_RUN_STEPS steps."""
    if not (dt > 0 and horizon > 0):
        raise ValueError("dt and horizon must be positive")
    ratio = horizon / dt   # inf when it overflows
    # round(ratio) lies in [1, MAX_STEPS] exactly when ratio does in (0.5, MAX_STEPS + 0.5]
    if not 0.5 < ratio <= MAX_STEPS + 0.5:
        raise ValueError(f"horizon / dt must round to 1 to {MAX_STEPS} steps, "
                         f"got {horizon} / {dt}")
    steps = int(round(ratio))
    if runs * steps > MAX_RUN_STEPS:
        raise ValueError(f"runs x steps must be at most {MAX_RUN_STEPS}, "
                         f"got {runs} x {steps}")
    return steps


@dataclass(frozen=True)
class ControlGains:
    """The seven constants of the flight law, each positive and finite."""

    k1: float = 4.0     # edge gain of the log and quad laws
    k2: float = 1.5     # damping of the velocity error, all three laws
    kp: float = 10.0    # the leader's pull toward its slot, log and quad
    mass: float = 1.0   # kg, every member's
    ka: float = 10.0    # APF slot attraction
    kr: float = 5.0     # APF repulsion strength
    d0: float = 2.0     # APF repulsion activation distance, m

    def __post_init__(self):
        constants = list(vars(self).values())
        if not all(g > 0 for g in constants):   # NaN is not positive
            raise ValueError("gains must be positive")
        if not np.isfinite(constants).all():
            raise ValueError("gains and mass must be finite")


@dataclass
class Trajectory:
    """R runs of one formation's flight. The state history is run 0's only."""

    times: np.ndarray            # (steps+1,)
    positions: np.ndarray        # (steps+1, n, 3) run 0
    velocities: np.ndarray       # (steps+1, n, 3) run 0
    controls: np.ndarray         # (steps, n, 3) run 0
    lyapunov: np.ndarray         # (R, steps+1)
    path_length: np.ndarray      # (R, n) m, per-step distances summed over time
    vel_err: np.ndarray          # (R, steps+1, n) m/s, |v_i - v_target|
    final_error: np.ndarray      # (R, n) m, |p_i - desired_i| at the last step


@dataclass
class FlightMetrics:
    """Flight-quality metrics as (R,) columns, one row per run."""

    avg_distance: np.ndarray
    avg_vel_err: np.ndarray
    max_vel_err: np.ndarray
    avg_final_pos_err: np.ndarray

    def __post_init__(self):
        # a float mean of equal values can round an ulp above them, so the
        # mean may pass the max by a relative 1e-12, far above any such
        # rounding and far below a real inconsistency
        if not np.all((self.avg_vel_err <= self.max_vel_err * (1.0 + 1e-12))
                      & (self.avg_vel_err >= 0)):
            raise ValueError("velocity-error aggregates are inconsistent")


def cube_starts(formation: Formation, half_width: float, seed: int,
                runs: int) -> tuple[np.ndarray, np.ndarray]:
    """`runs` starts for `simulate`, each at rest: run r's members uniform in
    the cube of half-width `half_width` around the formation's target, drawn
    from `np.random.default_rng([seed, r])`. `FloatingPointError` if the
    cube's width overflows."""
    try:
        p0 = formation.target + np.stack([np.random.default_rng([seed, run]).uniform(
            -half_width, half_width, (len(formation), 3)) for run in range(runs)])
    except OverflowError:   # the cube's width 2 * half_width is not a finite float
        raise FloatingPointError(f"start cube half-width {half_width} m is too large: "
                                 "the cube's width overflows") from None
    return p0, np.zeros_like(p0)


def simulate(
    start: tuple[np.ndarray, np.ndarray],
    formation: Formation,
    controller: str,
    gains: ControlGains,
    velocity: np.ndarray,
    dt: float,
    horizon: float,
    on_block=None,
) -> Trajectory:
    """Fixed-step rollout from t = 0 of `start` = (positions, velocities),
    two (R, n, 3) arrays, one run per leading row, toward `formation`
    whose target moves at `velocity`, a finite 3-vector; deterministic
    for fixed inputs.

    All runs are flown in one batched rollout, and run r of the result is
    bit for bit the same start flown alone. The recorded Lyapunov trace
    always uses the logarithmic candidate, so traces are comparable
    across controllers. A run whose state, Lyapunov trace or metrics go
    non-finite raises FloatingPointError. `on_block` is passed to
    `kernels.rollout`, which calls it as run 0's history becomes final.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}; expected log, quad or apf")
    positions, velocities = (np.asarray(a, dtype=float) for a in start)
    if positions.shape != velocities.shape or positions.ndim != 3 or positions.shape[2] != 3:
        raise ValueError("start positions and velocities must both be (R, n, 3), got shapes "
                         f"{positions.shape} and {velocities.shape}")
    if len(positions) == 0:
        raise ValueError("no run to fly")
    if len(formation) == 0:
        raise ValueError("empty swarm: the formation has no member to fly")
    if positions.shape[1] != len(formation):
        raise ValueError("start and formation disagree on swarm size")
    if not (np.isfinite(positions).all() and np.isfinite(velocities).all()):
        raise ValueError("swarm state must be finite")
    velocity = np.asarray(velocity, dtype=float)
    if velocity.shape != (3,) or not np.isfinite(velocity).all():
        raise ValueError(f"velocity must be a finite 3-vector, got {velocity}")
    steps = step_count(dt, horizon, len(positions))
    slots = formation.positions - formation.target
    P, V, U, lyap, path, vel_err, final = kernels.rollout(
        controller, slots, gains, velocity, positions, velocities,
        formation.target + 0.0 * velocity, dt, steps, on_block)
    if not all(np.isfinite(a).all() for a in (final, lyap, path, vel_err)):
        raise FloatingPointError("flight went non-finite during rollout, e.g. from "
                                 "coincident UAVs under APF or a start too far out")
    times = dt * np.arange(steps + 1)
    desired = formation.target + times[-1] * velocity + slots
    return Trajectory(times=times, positions=P, velocities=V, controls=U, lyapunov=lyap,
                      path_length=path, vel_err=vel_err,
                      final_error=np.linalg.norm(final - desired, axis=2))


def metrics(traj: Trajectory) -> FlightMetrics:
    """Flight-quality metrics of every run of a trajectory, one row per run.

    avg_distance: mean over UAVs of per-step path length summed over time.
    Velocity error is measured against the target's instantaneous
    velocity; final position error against the moving formation's slots.
    """
    return FlightMetrics(
        avg_distance=traj.path_length.mean(axis=1),
        avg_vel_err=traj.vel_err.mean(axis=(1, 2)),
        max_vel_err=traj.vel_err.max(axis=(1, 2)),
        avg_final_pos_err=traj.final_error.mean(axis=1),
    )

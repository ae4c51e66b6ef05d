"""The flight equations: one force law per controller and one rollout,
both over a batch of runs.

A state is positions p and velocities v of shape (R, n, 3): R runs of
an n-member swarm that share one plan, graph, gains and target. `law`
binds the slots, graph, masses, gains and the target's constant velocity
vt once and returns one function of (p, v, target position tgt) that
gives both the (R, n, 3) control input of the chosen controller and the
(R,) logarithmic Lyapunov candidate. Every controller
damps the velocity error v - vt, i.e. in the target's frame, so a target
moving at constant velocity is tracked with no steady drag. Each run is
computed with the same reductions, in the same order, as a batch of one,
so a run's numbers do not depend on the other runs in its batch.

`rollout` integrates all R runs with fixed-step semi-implicit Euler in
one loop and is deterministic for fixed inputs. It keeps the full state
history of run 0 only; for every run it keeps what the flight metrics
need, accumulated step by step. `swarmform.flight` is the supported
interface; its per-step `control` and `lyapunov_value` evaluate this same
law as a batch of one.

Controller codes: 0 = logarithmic, 1 = quadratic, 2 = APF.
"""

from __future__ import annotations

import numpy as np

CTRL_LOG = 0
CTRL_QUAD = 1
CTRL_APF = 2

_TINY = 1e-12

# There is no compiled backend; kept because the benchmark's fingerprint reads it.
NUMBA_ENABLED = False


def law(ctrl, slots, adj, leader, masses, k1, k2, kp, ka, kr, d0, vt):
    """The flight law of one swarm whose target moves at vt: a function
    (p, v, tgt) -> (u, V) of a batch of states, p and v (R, n, 3), giving
    the control input u (R, n, 3) of controller `ctrl` and the logarithmic
    Lyapunov candidate V (R,). Both come from one evaluation because they
    share the pairwise offsets. Damping is -k2 * (v - vt), and the kinetic
    term of V is sum_i m_i |v_i - vt|^2 / 2.

    APF forces of members that coincide with a neighbour are +inf on x.
    """
    slot_diff = slots[:, None, :] - slots[None, :, :]
    a = np.asarray(adj, dtype=float).copy()
    np.fill_diagonal(a, 0.0)
    # edges i < j as flat indices; np.take keeps each run's row contiguous,
    # so its sum below reduces in the same pairwise order as for one run
    edges = np.flatnonzero(np.triu(a, 1) > 0)
    diag = np.arange(len(slots))
    mass = masses[:, None]

    def evaluate(p, v, tgt):
        d = p[:, :, None, :] - p[:, None, :, :]
        e = d - slot_diff
        sq = np.einsum("rijk,rijk->rij", e, e)
        dv = v - vt
        err_l = p[:, leader] - (tgt + slots[leader])
        lyap = (0.5 * k1 * np.log1p(np.take(sq.reshape(len(p), -1), edges, axis=1)).sum(axis=1)
                + 0.5 * (mass * dv * dv).sum(axis=(1, 2))
                # a row-by-column matmul per run: the same dot product as err_l @ err_l
                + 0.5 * kp * np.matmul(err_l[:, None, :], err_l[:, :, None])[:, 0, 0])
        if ctrl == CTRL_APF:
            u = -ka * (p - (tgt + slots)) - k2 * dv
            dn = np.sqrt(np.einsum("rijk,rijk->rij", d, d))
            dn[:, diag, diag] = np.inf
            coincident = (a > 0) & (dn < _TINY)
            active = (a > 0) & (dn < d0) & ~coincident
            coef = np.zeros_like(dn)
            coef[active] = kr * (1.0 / dn[active] - 1.0 / d0) / dn[active] ** 3
            u += np.einsum("rij,rijk->rik", coef, d)
            if coincident.any():
                u[coincident.any(axis=2), 0] = np.inf
        else:
            w = a / (1.0 + sq) if ctrl == CTRL_LOG else np.broadcast_to(a, sq.shape)
            u = -k1 * np.einsum("rij,rijk->rik", w, e) - k2 * dv
            u[:, leader] -= kp * err_l
        return u, lyap

    return evaluate


def rollout(p0, v0, slots, adj, masses, leader, ctrl,
            k1, k2, kp, ka, kr, d0, tgt0, vdes, dt, steps):
    """Fly R runs for `steps` steps of `dt` from (p0, v0), both (R, n, 3),
    with the target starting at tgt0 and moving at vdes.

    Returns, as a tuple of arrays:
    - P, V (steps+1, n, 3) and U (steps, n, 3): positions, velocities and
      controls of run 0;
    - lyap (R, steps+1): the Lyapunov trace of every run;
    - path (R, n): each member's path length, the per-step distances
      summed in step order;
    - vel_err (R, steps+1, n): each member's |v - vdes| at every step;
    - p_final (R, n, 3): the final positions.

    A non-finite force in any run leaves that run's state non-finite for
    the rest of the rollout, so it shows in p_final.
    """
    evaluate = law(ctrl, slots, adj, leader, masses, k1, k2, kp, ka, kr, d0, vdes)
    runs, n = p0.shape[:2]
    P = np.empty((steps + 1, n, 3))
    V = np.empty((steps + 1, n, 3))
    U = np.empty((steps, n, 3))
    lyap = np.empty((runs, steps + 1))
    path = np.zeros((runs, n))
    vel_err = np.empty((runs, steps + 1, n))
    m = masses[:, None]

    p = p0.copy()
    v = v0.copy()
    tgt = tgt0.copy()
    P[0] = p[0]
    V[0] = v[0]
    # a non-finite run turns inf into NaN (inf - inf); that is reported by
    # the caller from p_final, not warned about step by step
    with np.errstate(invalid="ignore", over="ignore"):
        u, lyap[:, 0] = evaluate(p, v, tgt)
        vel_err[:, 0] = np.linalg.norm(v - vdes, axis=2)
        for s in range(steps):
            U[s] = u[0]
            v = v + u / m * dt
            p_next = p + v * dt
            path += np.linalg.norm(p_next - p, axis=2)
            p = p_next
            tgt = tgt + vdes * dt
            P[s + 1] = p[0]
            V[s + 1] = v[0]
            vel_err[:, s + 1] = np.linalg.norm(v - vdes, axis=2)
            # the forces of the next step and V at this state
            u, lyap[:, s + 1] = evaluate(p, v, tgt)
    return P, V, U, lyap, path, vel_err, p

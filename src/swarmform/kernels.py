"""The flight equations: one force law per controller and one rollout,
both over a batch of runs.

A state is positions p and velocities v of shape (R, n, 3): R runs of
the one swarm `swarmform.flight` describes (its shape, controllers and
Lyapunov candidate), sharing its slots, gains and target. `law` binds
the slots, the gains, the APF parameters and the target's constant
velocity vt once and returns one function of (p, v, target position
tgt) that gives both the (R, n, 3) control input of the chosen
controller and the (R,) logarithmic Lyapunov candidate. It reads the
fields of `flight.ControlGains` and `flight.ApfParams` by name, so this
module does not import `flight`. Each run is computed with the same
reductions, in the same order, as a batch of one, so a run's numbers do
not depend on the other runs in its batch.

`rollout` binds its law once from the same arguments and integrates all
R runs with fixed-step semi-implicit Euler in one loop; it is
deterministic for fixed inputs. It keeps the full state history of run
0 only. For every run it keeps the path lengths, accumulated step by
step, the final state, and per-step traces of the Lyapunov value
(R, steps+1) and of each member's velocity-error norm (R, steps+1, n).
`swarmform.flight.simulate` is the supported interface.

Controllers: "log" (logarithmic), "quad" (quadratic), "apf".
"""

from __future__ import annotations

import numpy as np

_TINY = 1e-12

# There is no compiled backend; kept because the benchmark's fingerprint reads it.
NUMBA_ENABLED = False


def law(ctrl, slots, gains, apf, vt):
    """The flight law of one swarm whose target moves at vt: a function
    (p, v, tgt) -> (u, V) of a batch of states, p and v (R, n, 3), giving
    the control input u (R, n, 3) of controller `ctrl` and the logarithmic
    Lyapunov candidate V (R,). Both come from one evaluation because they
    share the pairwise offsets. `gains` gives mass, k1, k2 and kp, and
    `apf` gives ka, kr and d0. Damping is -k2 * (v - vt), and the kinetic
    term of V is mass * sum_i |v_i - vt|^2 / 2.

    APF forces of members that coincide with another member are +inf on x.
    """
    mass, k1, k2, kp = gains.mass, gains.k1, gains.k2, gains.kp
    ka, kr, d0 = apf.ka, apf.kr, apf.d0
    n = len(slots)
    slot_diff = slots[:, None, :] - slots[None, :, :]
    # edges i < j as flat indices; np.take keeps each run's row contiguous,
    # so its sum below reduces in the same pairwise order as for one run
    edges = np.flatnonzero(np.triu(np.ones((n, n)), 1))
    diag = np.arange(n)

    def evaluate(p, v, tgt):
        # d[r, i, j] = p[r, i] - p[r, j], as one contiguous subtraction of
        # (R, n, 3n) rows: each p_i repeated n times against the whole swarm
        runs = len(p)
        d = (np.repeat(p, n, axis=1).reshape(runs, n, 3 * n)
             - p.reshape(runs, 1, 3 * n)).reshape(runs, n, n, 3)
        e = d - slot_diff
        sq = np.einsum("rijk,rijk->rij", e, e)
        dv = v - vt
        err_l = p[:, 0] - (tgt + slots[0])
        lyap = (0.5 * k1 * np.log1p(np.take(sq.reshape(runs, -1), edges, axis=1)).sum(axis=1)
                + 0.5 * (mass * dv * dv).sum(axis=(1, 2))
                # a row-by-column matmul per run: the same dot product as err_l @ err_l
                + 0.5 * kp * np.matmul(err_l[:, None, :], err_l[:, :, None])[:, 0, 0])
        if ctrl == "apf":
            u = -ka * (p - (tgt + slots)) - k2 * dv
            dn = np.sqrt(np.einsum("rijk,rijk->rij", d, d))
            dn[:, diag, diag] = np.inf
            coincident = dn < _TINY
            active = (dn < d0) & ~coincident
            coef = np.zeros_like(dn)
            coef[active] = kr * (1.0 / dn[active] - 1.0 / d0) / dn[active] ** 3
            u += np.einsum("rij,rijk->rik", coef, d)
            if coincident.any():
                u[coincident.any(axis=2), 0] = np.inf
        else:
            # a member's own term weighs e_ii = +0.0, so it adds nothing
            w = 1.0 / (1.0 + sq) if ctrl == "log" else np.ones_like(sq)
            u = -k1 * np.einsum("rij,rijk->rik", w, e) - k2 * dv
            u[:, 0] -= kp * err_l
        return u, lyap

    return evaluate


def rollout(ctrl, slots, gains, apf, vt, p0, v0, tgt0, dt, steps):
    """Fly R runs of `law(ctrl, slots, gains, apf, vt)` with every member's
    mass `gains.mass`, for `steps` steps of `dt` from (p0, v0), both
    (R, n, 3), the target moving from tgt0 at vt.

    Returns, as a tuple of arrays:
    - P, V (steps+1, n, 3) and U (steps, n, 3): positions, velocities and
      controls of run 0;
    - lyap (R, steps+1): the Lyapunov trace of every run;
    - path (R, n): each member's path length, the per-step distances
      summed in step order;
    - vel_err (R, steps+1, n): each member's |v - vt| at every step;
    - p_final (R, n, 3): the final positions.

    A non-finite force in any run leaves that run's state non-finite for
    the rest of the rollout, so it shows in p_final.
    """
    evaluate = law(ctrl, slots, gains, apf, vt)
    mass = gains.mass
    runs, n = p0.shape[:2]
    P = np.empty((steps + 1, n, 3))
    V = np.empty((steps + 1, n, 3))
    U = np.empty((steps, n, 3))
    lyap = np.empty((runs, steps + 1))
    path = np.zeros((runs, n))
    vel_err = np.empty((runs, steps + 1, n))

    p = p0.copy()
    v = v0.copy()
    tgt = tgt0.copy()
    P[0] = p[0]
    V[0] = v[0]
    # a non-finite run turns inf into NaN (inf - inf); that is reported by
    # the caller from p_final, not warned about step by step
    with np.errstate(invalid="ignore", over="ignore"):
        u, lyap[:, 0] = evaluate(p, v, tgt)
        vel_err[:, 0] = np.linalg.norm(v - vt, axis=2)
        for s in range(steps):
            U[s] = u[0]
            v = v + u / mass * dt
            p_next = p + v * dt
            path += np.linalg.norm(p_next - p, axis=2)
            p = p_next
            tgt = tgt + vt * dt
            P[s + 1] = p[0]
            V[s + 1] = v[0]
            vel_err[:, s + 1] = np.linalg.norm(v - vt, axis=2)
            # the forces of the next step and V at this state
            u, lyap[:, s + 1] = evaluate(p, v, tgt)
    return P, V, U, lyap, path, vel_err, p

"""The flight equations: one force law per controller, the Lyapunov
candidate and one rollout, all over a batch of runs.

A state is positions p and velocities v of shape (R, n, 3): R runs of
the one swarm `swarmform.flight` describes (its shape, controllers and
Lyapunov candidate), sharing its slots, gains and target. `forces`
binds the slots, the gains and the target's constant velocity vt once
and returns one function of (p, v, target position tgt) that gives the
(R, n, 3) control input of the chosen controller and the squared
formation errors (R, n, n) it computed on the way. `lyapunov` gives the
logarithmic Lyapunov candidate of states of any leading shape from
those errors over the edges, the velocity errors and the leader's
error. The law's seven constants (k1, k2, kp, mass, ka, kr, d0) come in
one `flight.ControlGains`, whose fields both read by name, so this
module does not import `flight`. Each run is computed with the same
reductions, in the same order, as a batch of one, so a run's numbers do
not depend on the other runs in its batch.

`rollout` integrates all R runs with fixed-step semi-implicit Euler in
one loop; it is deterministic for fixed inputs. The step loop carries
only the dynamics: the forces, the Euler update and the edge errors V
needs. Everything else is reduced after every block of `_BLOCK` steps,
over all of that block's states at once and in step order: the
Lyapunov value (R, steps+1), each member's velocity-error norm
(R, steps+1, n), the path lengths and the full state history of run 0.
`swarmform.flight.simulate` is the supported interface.

Controllers: "log" (logarithmic), "quad" (quadratic), "apf".
"""

from __future__ import annotations

import numpy as np

_TINY = 1e-12
# the steps integrated between two block reductions
_BLOCK = 64

# There is no compiled backend; kept because the benchmark's fingerprint reads it.
NUMBA_ENABLED = False


def forces(ctrl, slots, gains, vt):
    """The force law of one swarm whose target moves at vt: a function
    (p, v, tgt) -> (u, sq) of a batch of states, p and v (R, n, 3), giving
    the control input u (R, n, 3) of controller `ctrl` and every pair's
    squared formation error sq (R, n, n), |e_ij|^2 with
    e_ij = p_i - p_j - (slot_i - slot_j). `gains` gives k1, k2 and kp,
    and ka, kr and d0 for APF. Damping is -k2 * (v - vt).

    APF forces of members that coincide with another member are +inf on x.
    """
    k1, k2, kp = gains.k1, gains.k2, gains.kp
    ka, kr, d0 = gains.ka, gains.kr, gains.d0
    n = len(slots)
    slot_diff = slots[:, None, :] - slots[None, :, :]
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
            u[:, 0] -= kp * (p[:, 0] - (tgt + slots[0]))
        return u, sq

    return evaluate


def lyapunov(edge_sq, dv, err_l, gains):
    """The logarithmic Lyapunov candidate of states of any leading shape S,
    from each edge's squared formation error edge_sq (*S, E), each
    member's velocity error dv = v - vt (*S, n, 3) and the leader's
    position error err_l = p_0 - (tgt + slot_0) (*S, 3):

        V = (k1/2) sum_edges ln(1 + |e_ij|^2) + (m/2) sum_i |v_i - vt|^2
            + (kp/2) |err_l|^2.
    """
    return (0.5 * gains.k1 * np.log1p(edge_sq).sum(axis=-1)
            + 0.5 * (gains.mass * dv * dv).sum(axis=(-2, -1))
            # a row-by-column matmul per state: the same dot product as err_l @ err_l
            + 0.5 * gains.kp * np.matmul(err_l[..., None, :], err_l[..., :, None])[..., 0, 0])


def rollout(ctrl, slots, gains, vt, p0, v0, tgt0, dt, steps):
    """Fly R runs of `forces(ctrl, slots, gains, vt)` with every
    member's mass `gains.mass`, for `steps` steps of `dt` from (p0, v0),
    both (R, n, 3), the target moving from tgt0 at vt.

    Returns, as a tuple of arrays:
    - P, V (steps+1, n, 3) and U (steps, n, 3): positions, velocities and
      controls of run 0;
    - lyap (R, steps+1): the Lyapunov trace of every run;
    - path (R, n): each member's path length, the per-step distances
      summed in step order;
    - vel_err (R, steps+1, n): each member's |v - vt| at every step;
    - p_final (R, n, 3): the final positions.

    The step loop writes each block of `_BLOCK` steps' states and edge
    errors into buffers; the rest is computed from those buffers once per
    block, with the same operations on the same numbers as per step, so
    every output has the bits a per-step loop gives. A non-finite force
    in any run leaves that run's state non-finite for the rest of the
    rollout, so it shows in p_final.
    """
    evaluate = forces(ctrl, slots, gains, vt)
    mass = gains.mass
    runs, n = p0.shape[:2]
    # edges i < j as flat indices; np.take keeps each run's row contiguous,
    # so V sums it in the same pairwise order as for one run
    pairs = np.flatnonzero(np.triu(np.ones((n, n)), 1))
    P = np.empty((steps + 1, n, 3))
    V = np.empty((steps + 1, n, 3))
    U = np.empty((steps, n, 3))
    lyap = np.empty((runs, steps + 1))
    path = np.zeros((runs, n))
    vel_err = np.empty((runs, steps + 1, n))
    # the target at every step: a cumsum adds vt * dt in step order, as
    # stepping the target one step at a time does
    tgt = np.cumsum(np.vstack((tgt0, np.broadcast_to(vt * dt, (steps, 3)))), axis=0)
    # row k of a block holds the state k steps after the block's first,
    # which row 0 carries over from the block before
    pb = np.empty((_BLOCK + 1, runs, n, 3))
    vb = np.empty((_BLOCK + 1, runs, n, 3))
    eb = np.empty((_BLOCK + 1, runs, len(pairs)))
    pb[0] = p0
    vb[0] = v0
    # a non-finite run turns inf into NaN (inf - inf); that is reported by
    # the caller from p_final, not warned about step by step
    with np.errstate(invalid="ignore", over="ignore"):
        u, sq = evaluate(pb[0], vb[0], tgt[0])
        np.take(sq.reshape(runs, -1), pairs, axis=1, out=eb[0], mode="clip")
        # one block even for no step, so that the start is recorded
        for lo in range(0, max(steps, 1), _BLOCK):
            hi = min(lo + _BLOCK, steps)
            for s in range(lo, hi):
                k = s - lo
                U[s] = u[0]
                np.add(vb[k], u / mass * dt, out=vb[k + 1])
                np.add(pb[k], vb[k + 1] * dt, out=pb[k + 1])
                # the forces of the next step and the edge errors of its state
                u, sq = evaluate(pb[k + 1], vb[k + 1], tgt[s + 1])
                np.take(sq.reshape(runs, -1), pairs, axis=1, out=eb[k + 1], mode="clip")
            m = hi - lo
            # the block's new states; the start is recorded with the first block
            first = 1 if lo else 0
            rows, states = slice(first, m + 1), slice(lo + first, hi + 1)
            dv = vb[rows] - vt
            err_l = pb[rows, :, 0] - (tgt[states, None] + slots[0])
            lyap[:, states] = lyapunov(eb[rows], dv, err_l, gains).T
            vel_err[:, states] = np.linalg.norm(dv, axis=-1).swapaxes(0, 1)
            P[states] = pb[rows, 0]
            V[states] = vb[rows, 0]
            # accumulate, not reduce, so that the adds are sequential for every
            # shape: NumPy sums a (m + 1, 1, 1) reduction pairwise
            step_len = np.linalg.norm(pb[1:m + 1] - pb[:m], axis=-1)
            path = np.add.accumulate(np.concatenate((path[None], step_len)), axis=0)[-1]
            pb[0], vb[0], eb[0] = pb[m], vb[m], eb[m]
    return P, V, U, lyap, path, vel_err, pb[0].copy()

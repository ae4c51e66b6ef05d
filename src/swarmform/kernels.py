"""The flight equations: one force law per controller, the Lyapunov
candidate and one rollout, all over a batch of runs.

R runs of the one swarm `swarmform.flight` describes (its shape,
controllers and Lyapunov candidate) share its slots, gains and target;
a run's state is the positions p and velocities v of its n members. The
law's seven constants (k1, k2, kp, mass, ka, kr, d0) come in one
`flight.ControlGains`, whose fields are read by name, so this module
does not import `flight`.

Layout. Inside the step loop a state is axis-major, (3, R, n):
coordinate, run, member, so that each coordinate is one contiguous
plane. `forces` binds the slots, the gains, the target's constant
velocity vt and the run count once, allocates its own buffers, and
returns one function of (p, v, target position tgt, sq) that gives the
(3, R, n) control input of the chosen controller and writes the squared
formation errors into sq, (n, R, n). Its pair table
D[k, j, r, i] = p[k, r, i] - p[k, r, j] is one broadcast subtraction
into a (3, n, R, n) buffer, and e = D - (slot_i - slot_j).

Two summation orders fix every bit; both are the orders NumPy 2's
`einsum` takes for these shapes, which the law used before it summed
the planes itself (a test holds einsum to both):
- a squared norm is (x^2 + z^2) + y^2 over the coordinate planes, the
  order of einsum's two-lane SIMD sum of a 3-vector;
- sum_j w_ij e_ij is `np.add.reduce` over the j axis, which adds one
  (3, R, n) plane after another from j = 0.

`lyapunov` gives the logarithmic Lyapunov candidate of member-major
states, (..., R, n, 3), of any leading shape, from the squared errors
over the edges, the velocity errors and the leader's error.

`rollout` integrates all R runs with fixed-step semi-implicit Euler in
one loop; it is deterministic for fixed inputs. The step loop carries
only the dynamics: the forces, the Euler update and the squared errors.
Everything else is reduced after every block of `_BLOCK` steps, over all
of that block's states at once and in step order: the Lyapunov value
(R, steps+1), each member's velocity-error norm (R, steps+1, n), the
path lengths and the full state history of run 0. For those reductions
the block's states are transposed once to C-contiguous (..., R, n, 3),
and one `np.take` lays each run's edges out contiguously: V's pairwise
sums over a run's edges and over its n x 3 kinetic terms then add the
same numbers in the same order as for a batch of one, which a strided
view would not (it moves V by an ulp). So a run's numbers do not depend
on the other runs in its batch. `swarmform.flight.simulate` is the
supported interface.

Controllers: "log" (logarithmic), "quad" (quadratic), "apf".
"""

from __future__ import annotations

import numpy as np

_TINY = 1e-12
# the steps integrated between two block reductions
_BLOCK = 64

# There is no compiled backend; kept because the benchmark's fingerprint reads it.
NUMBA_ENABLED = False


def forces(ctrl, slots, gains, vt, runs):
    """The force law of `runs` runs of one swarm whose target moves at vt:
    a function (p, v, tgt, sq) -> u of a batch of axis-major states, p and
    v (3, R, n), giving the control input u (3, R, n) of controller `ctrl`
    and writing every pair's squared formation error into sq (n, R, n):
    sq[j, r, i] = |e_ij|^2 with e_ij = p_i - p_j - (slot_i - slot_j).
    `gains` gives k1, k2 and kp, and ka, kr and d0 for APF. Damping is
    -k2 * (v - vt). u is a buffer of the binding that the next call
    overwrites.

    APF forces of members that coincide with another member are +inf on x.
    """
    k1, k2, kp = gains.k1, gains.k2, gains.kp
    ka, kr, d0 = gains.ka, gains.kr, gains.d0
    n = len(slots)
    # table[k, j, 0, i] = slot_i - slot_j on axis k
    table = (slots.T[:, None, :] - slots.T[:, :, None])[:, :, None, :]
    vt = np.reshape(vt, (3, 1, 1))
    d = np.empty((3, n, runs, n))
    e = np.empty_like(d)
    prod = np.empty_like(d)   # the squared planes, then each weighted pair term
    u = np.empty((3, runs, n))
    w = np.empty((n, runs, n))   # the log law's weights, or APF's pair distances
    diag = np.arange(n)

    def squared(a, out):
        """|a|^2 of (3, ...) planes into out, as (x^2 + z^2) + y^2."""
        np.multiply(a, a, out=prod)
        np.add(prod[0], prod[2], out=out)
        np.add(out, prod[1], out=out)

    def evaluate(p, v, tgt, sq):
        np.subtract(p[:, None], p.transpose(0, 2, 1)[..., None], out=d)
        np.subtract(d, table, out=e)
        squared(e, sq)
        dv = v - vt
        if ctrl == "apf":
            np.subtract(-ka * (p - (tgt + slots).T[:, None]), k2 * dv, out=u)
            dn = w
            squared(d, dn)
            np.sqrt(dn, out=dn)
            dn[diag, :, diag] = np.inf
            coincident = dn < _TINY
            active = (dn < d0) & ~coincident
            # the coefficient of the pairs within d0 only: a pow on all n^2
            # pairs costs more than the mask
            near = dn[active]
            coef = np.zeros_like(dn)
            coef[active] = kr * (1.0 / near - 1.0 / d0) / near ** 3
            np.multiply(coef, d, out=prod)
            np.add(u, np.add.reduce(prod, axis=1), out=u)
            if coincident.any():
                u[0][coincident.any(axis=0)] = np.inf
        else:
            # a member's own term is e_ii = +0.0, so it adds nothing
            if ctrl == "log":
                np.add(sq, 1.0, out=w)
                np.divide(1.0, w, out=w)
                np.multiply(w, e, out=prod)
                np.add.reduce(prod, axis=1, out=u)
            else:
                np.add.reduce(e, axis=1, out=u)
            np.multiply(u, -k1, out=u)
            np.subtract(u, k2 * dv, out=u)
            u[:, :, 0] -= kp * (p[:, :, 0] - (tgt + slots[0])[:, None])
        return u

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
    """Fly R runs of `forces(ctrl, slots, gains, vt, R)` with every
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

    The step loop writes each block of `_BLOCK` steps' axis-major states
    and squared errors into buffers; the rest is computed from those
    buffers once per block, with the same operations on the same numbers
    as per step, so every output has the bits a per-step loop gives. A
    non-finite force in any run leaves that run's state non-finite for
    the rest of the rollout, so it shows in p_final.
    """
    mass = gains.mass
    runs, n = p0.shape[:2]
    evaluate = forces(ctrl, slots, gains, vt, runs)
    # run r's edge (i, j), i < j, as a flat index into one state's squared
    # errors sq[j, r, i]: np.take lays each run's edges out contiguously,
    # so V sums them in the same pairwise order as for one run
    i, j = np.triu_indices(n, 1)
    edges = j * (runs * n) + np.arange(runs)[:, None] * n + i
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
    pb = np.empty((_BLOCK + 1, 3, runs, n))
    vb = np.empty_like(pb)
    sqb = np.empty((_BLOCK + 1, n, runs, n))
    # the block's states member-major, and its edges run by run
    pm = np.empty((_BLOCK + 1, runs, n, 3))
    vm = np.empty_like(pm)
    eb = np.empty((_BLOCK + 1, runs, len(i)))
    pb[0] = p0.transpose(2, 0, 1)
    vb[0] = v0.transpose(2, 0, 1)
    # a non-finite run turns inf into NaN (inf - inf); that is reported by
    # the caller from p_final, not warned about step by step
    with np.errstate(invalid="ignore", over="ignore"):
        u = evaluate(pb[0], vb[0], tgt[0], sqb[0])
        # one block even for no step, so that the start is recorded
        for lo in range(0, max(steps, 1), _BLOCK):
            hi = min(lo + _BLOCK, steps)
            for s in range(lo, hi):
                k = s - lo
                U[s] = u[:, 0].T
                np.add(vb[k], u / mass * dt, out=vb[k + 1])
                np.add(pb[k], vb[k + 1] * dt, out=pb[k + 1])
                # the forces of the next step and the squared errors of its state
                u = evaluate(pb[k + 1], vb[k + 1], tgt[s + 1], sqb[k + 1])
            m = hi - lo
            np.copyto(pm[:m + 1], pb[:m + 1].transpose(0, 2, 3, 1))
            np.copyto(vm[:m + 1], vb[:m + 1].transpose(0, 2, 3, 1))
            # the block's new states; the start is recorded with the first block
            first = 1 if lo else 0
            rows, states = slice(first, m + 1), slice(lo + first, hi + 1)
            np.take(sqb[rows].reshape(m + 1 - first, -1), edges, axis=1, out=eb[rows],
                    mode="clip")
            dv = vm[rows] - vt
            err_l = pm[rows, :, 0] - (tgt[states, None] + slots[0])
            lyap[:, states] = lyapunov(eb[rows], dv, err_l, gains).T
            vel_err[:, states] = np.linalg.norm(dv, axis=-1).swapaxes(0, 1)
            P[states] = pm[rows, 0]
            V[states] = vm[rows, 0]
            # accumulate, not reduce, so that the adds are sequential for every
            # shape: NumPy sums a (m + 1, 1, 1) reduction pairwise
            step_len = np.linalg.norm(pm[1:m + 1] - pm[:m], axis=-1)
            path = np.add.accumulate(np.concatenate((path[None], step_len)), axis=0)[-1]
            pb[0], vb[0] = pb[m], vb[m]
    return P, V, U, lyap, path, vel_err, pm[m].copy()

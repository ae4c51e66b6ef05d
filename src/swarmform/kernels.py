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
returns one function of (p, v, target position tgt, leader's desired
position lead, sq, u) that writes the (3, R, n) control input of the
chosen controller into u and the squared formation errors into sq,
(n, R, n). Its pair table D[k, j, r, i] = p[k, r, i] - p[k, r, j] is one
broadcast subtraction into a (3, n, R, n) buffer, and e = D - (slot_i -
slot_j) subtracts a slot table stored once for every run, so that the
subtraction is contiguous.

Three summation orders fix every bit; the first two are the orders
NumPy 2's `einsum` takes for these shapes, which the law used before it
summed the planes itself, and the third is the order of
`np.linalg.norm` along an axis of 3, which the rollout used before it
reduced the planes itself (tests hold einsum and norm to them):
- a squared norm in the law is (x^2 + z^2) + y^2 over the coordinate
  planes, the order of einsum's two-lane SIMD sum of a 3-vector;
- sum_j w_ij e_ij is `np.add.reduce` over the j axis, which adds one
  (3, R, n) plane after another from j = 0;
- a velocity error or a step length is sqrt((x^2 + y^2) + z^2) over the
  coordinate planes.

`lyapunov` gives the logarithmic Lyapunov candidate of member-major
states, (..., R, n, 3), of any leading shape, from the squared errors
over the edges, the velocity errors and the leader's error.

`rollout` integrates all R runs with fixed-step semi-implicit Euler in
one loop; it is deterministic for fixed inputs. The step loop carries
only the dynamics: the forces, the Euler update and the squared errors,
written with `out=` into buffers of one block of `_BLOCK` steps.
Everything else is reduced after every block, over all of that block's
states at once and in step order: the Lyapunov value (R, steps+1), each
member's velocity-error norm (R, steps+1, n), the path lengths and the
full history of run 0. The norms, the leader's error and run 0's
history read the axis-major planes as they are. Only the velocity
errors are transposed, to C-contiguous (..., R, n, 3), for V's kinetic
sum, and one `np.take` lays each run's edges out contiguously: V's
pairwise sums over a run's n x 3 kinetic terms and over its edges then
add the same numbers in the same order as for a batch of one, which a
strided view would not (it moves V by an ulp). So a run's numbers do
not depend on the other runs in its batch. An optional hook is called
after each block's reductions, once run 0's history up to the block's
last state is final, so that a caller can stream that history out while
the rollout flies on; it reads the outputs and changes no bit of them.
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


def forces(ctrl, slots, gains, vt, runs):
    """The force law of `runs` runs of one swarm whose target moves at vt:
    a function (p, v, tgt, lead, sq, u) of a batch of axis-major states,
    p and v (3, R, n), that writes the control input of controller `ctrl`
    into u (3, R, n) and every pair's squared formation error into sq
    (n, R, n): sq[j, r, i] = |e_ij|^2 with e_ij = p_i - p_j - (slot_i -
    slot_j). tgt (3,) is the target's position and lead (3, 1) the
    leader's desired position, tgt + slot_0; APF reads the first, the
    consensus laws the second. `gains` gives k1, k2 and kp, and ka, kr and
    d0 for APF. Damping is -k2 * (v - vt).

    APF forces of members that coincide with another member are +inf on x.
    """
    k1, k2, kp = gains.k1, gains.k2, gains.kp
    ka, kr, d0 = gains.ka, gains.kr, gains.d0
    n = len(slots)
    # table[k, j, r, i] = slot_i - slot_j on axis k, laid out for every run
    # so that e is a contiguous subtraction
    d = np.empty((3, n, runs, n))
    table = np.empty_like(d)
    table[...] = (slots.T[:, None, :] - slots.T[:, :, None])[:, :, None, :]
    vt = np.reshape(vt, (3, 1, 1))
    e = np.empty_like(d)
    prod = np.empty_like(d)   # the squared planes, then each weighted pair term
    squares = tuple(prod)
    w = np.empty((n, runs, n))   # the log law's weights, or APF's pair distances
    dv = np.empty((3, runs, n))   # the velocity error, then the damping
    lead_err = np.empty((3, runs))
    if ctrl == "apf":
        goal = np.empty((n, 3))   # each member's desired position
        goal_planes = goal.T[:, None]
        repulsion = np.empty((3, runs, n))
        coef = np.empty_like(w)
        diag = np.zeros(w.shape, dtype=bool)
        diag[np.arange(n), :, np.arange(n)] = True
        coincident = np.empty(w.shape, dtype=bool)
        active = np.empty_like(coincident)

    def squared(a, out):
        """|a|^2 of (3, ...) planes into out, as (x^2 + z^2) + y^2."""
        np.multiply(a, a, out=prod)
        np.add(squares[0], squares[2], out=out)
        np.add(out, squares[1], out=out)

    def evaluate(p, v, tgt, lead, sq, u):
        np.subtract(p[:, None], p.transpose(0, 2, 1)[..., None], out=d)
        np.subtract(d, table, out=e)
        squared(e, sq)
        np.subtract(v, vt, out=dv)
        np.multiply(dv, k2, out=dv)
        if ctrl == "apf":
            np.add(slots, tgt, out=goal)
            np.subtract(p, goal_planes, out=u)
            np.multiply(u, -ka, out=u)
            np.subtract(u, dv, out=u)
            dn = w
            squared(d, dn)
            np.sqrt(dn, out=dn)
            np.copyto(dn, np.inf, where=diag)
            np.less(dn, _TINY, out=coincident)
            np.less(dn, d0, out=active)
            # a bool > b bool is a and not b: the pairs within d0 that do
            # not coincide
            np.greater(active, coincident, out=active)
            # the coefficient of the pairs within d0 only: a pow on all n^2
            # pairs costs more than the mask
            near = dn[active]
            coef.fill(0.0)
            coef[active] = kr * (1.0 / near - 1.0 / d0) / near ** 3
            np.multiply(coef, d, out=prod)
            np.add.reduce(prod, axis=1, out=repulsion)
            np.add(u, repulsion, out=u)
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
            np.subtract(u, dv, out=u)
            np.subtract(p[:, :, 0], lead, out=lead_err)
            np.multiply(lead_err, kp, out=lead_err)
            u0 = u[:, :, 0]
            np.subtract(u0, lead_err, out=u0)

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


def _norms(a, out):
    """|a| of a (m, 3, ...) block of vectors held as coordinate planes, into
    out (m, ...), as sqrt((x^2 + y^2) + z^2): the order in which
    `np.linalg.norm` sums along an axis of 3. a is overwritten."""
    np.multiply(a, a, out=a)
    np.add(a[:, 0], a[:, 1], out=out)
    np.add(out, a[:, 2], out=out)
    np.sqrt(out, out=out)


def rollout(ctrl, slots, gains, vt, p0, v0, tgt0, dt, steps, on_block=None):
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

    The step loop writes each block of `_BLOCK` steps' axis-major states,
    forces and squared errors into buffers; the rest is computed from
    those buffers once per block, with the same operations on the same
    numbers as per step, so every output has the bits a per-step loop
    gives: the norms, the leader's error and run 0's history read the
    axis-major planes, the norms in `np.linalg.norm`'s order, and V reads
    the velocity errors transposed member-major. A non-finite force in
    any run leaves that run's state non-finite for the rest of the
    rollout, so it shows in p_final.

    `on_block`, if given, is called after each block's reductions as
    on_block(s, P, V, U, lyap), with the arrays above: s steps are done,
    and P[:s + 1], V[:s + 1], lyap[:, :s + 1] and U[:s] are final. The
    last call has s = steps.
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
    vel_err = np.empty((runs, steps + 1, n))
    # row k of a block holds the state k steps after the block's first,
    # and its forces; row 0 carries them over from the block before
    pb = np.empty((_BLOCK + 1, 3, runs, n))
    vb = np.empty_like(pb)
    ub = np.empty_like(pb)
    sqb = np.empty((_BLOCK + 1, n, runs, n))
    p, v, u, sq = list(pb), list(vb), list(ub), list(sqb)
    inc = np.empty((3, runs, n))   # one Euler increment
    # the block's reductions: plane differences, then their squares; the
    # velocity errors member-major; the edges run by run; the leader's
    # errors; row 0 the path so far, then the step lengths
    planes = np.empty_like(pb)
    vm = np.empty((_BLOCK + 1, runs, n, 3))
    eb = np.empty((_BLOCK + 1, runs, len(i)))
    err_l = np.empty((_BLOCK + 1, runs, 3))
    lengths = np.zeros((_BLOCK + 1, runs, n))
    pb[0] = p0.transpose(2, 0, 1)
    vb[0] = v0.transpose(2, 0, 1)
    # a non-finite run turns inf into NaN (inf - inf), and a target track
    # that overflows makes every run non-finite; that is reported by the
    # caller from p_final, not warned about step by step
    with np.errstate(invalid="ignore", over="ignore"):
        # the target at every step: a cumsum adds vt * dt in step order, as
        # stepping the target one step at a time does
        tgt = np.cumsum(np.vstack((tgt0, np.broadcast_to(vt * dt, (steps, 3)))), axis=0)
        # the leader's desired position at every step, a column per step
        lead = (tgt + slots[0])[:, :, None]
        vt = np.reshape(vt, (3, 1, 1))
        evaluate(p[0], v[0], tgt[0], lead[0], sq[0], u[0])
        # one block even for no step, so that the start is recorded
        for lo in range(0, max(steps, 1), _BLOCK):
            hi = min(lo + _BLOCK, steps)
            for s in range(lo, hi):
                k = s - lo
                np.divide(u[k], mass, out=inc)
                np.multiply(inc, dt, out=inc)
                np.add(v[k], inc, out=v[k + 1])
                np.multiply(v[k + 1], dt, out=inc)
                np.add(p[k], inc, out=p[k + 1])
                # the forces of the next step and the squared errors of its state
                evaluate(p[k + 1], v[k + 1], tgt[s + 1], lead[s + 1], sq[k + 1], u[k + 1])
            m = hi - lo
            U[lo:hi] = ub[:m, :, 0].transpose(0, 2, 1)
            # the block's new states; the start is recorded with the first block
            first = 1 if lo else 0
            rows, states = slice(first, m + 1), slice(lo + first, hi + 1)
            np.take(sqb[rows].reshape(m + 1 - first, -1), edges, axis=1, out=eb[rows],
                    mode="clip")
            dv = np.subtract(vb[rows], vt, out=planes[rows])
            # V's kinetic sum runs over a run's n x 3 terms, so it reads
            # them member-major, as for a batch of one
            np.copyto(vm[rows], dv.transpose(0, 2, 3, 1))
            np.subtract(pb[rows, :, :, 0].transpose(0, 2, 1), lead[states].transpose(0, 2, 1),
                        out=err_l[rows])
            lyap[:, states] = lyapunov(eb[rows], vm[rows], err_l[rows], gains).T
            _norms(dv, vel_err[:, states].swapaxes(0, 1))
            P[states] = pb[rows, :, 0].transpose(0, 2, 1)
            V[states] = vb[rows, :, 0].transpose(0, 2, 1)
            _norms(np.subtract(pb[1:m + 1], pb[:m], out=planes[:m]), lengths[1:m + 1])
            # accumulate, not reduce, so that the adds are sequential for every
            # shape: NumPy sums a (m + 1, 1, 1) reduction pairwise
            np.add.accumulate(lengths[:m + 1], axis=0, out=lengths[:m + 1])
            pb[0], vb[0], ub[0], lengths[0] = pb[m], vb[m], ub[m], lengths[m]
            if on_block is not None:
                on_block(hi, P, V, U, lyap)
    return P, V, U, lyap, lengths[0].copy(), vel_err, pb[0].transpose(1, 2, 0).copy()

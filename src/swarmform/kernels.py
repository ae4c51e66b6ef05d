"""The flight equations: one force law per controller and one rollout.

`law` binds a swarm's slots, graph and gains once and returns two
functions of the state (positions p, velocities v, target position tgt):
`forces`, the control input of the chosen controller, and `lyapunov`,
the logarithmic Lyapunov candidate. `rollout` integrates those forces
with fixed-step semi-implicit Euler and is deterministic for fixed
inputs. `swarmform.flight` is the supported interface; its per-step
`control` and `lyapunov_value` evaluate this same law.

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


def law(ctrl, slots, adj, leader, k1, k2, kp, ka, kr, d0):
    """(forces, lyapunov) for one swarm, each a function of (p, v, tgt).

    APF forces of members that coincide with a neighbour are +inf on x.
    """
    slot_diff = slots[:, None, :] - slots[None, :, :]
    a = np.asarray(adj, dtype=float).copy()
    np.fill_diagonal(a, 0.0)
    upper = np.triu(a, 1) > 0

    def lyapunov(p, v, tgt):
        e = p[:, None, :] - p[None, :, :] - slot_diff
        sq = np.einsum("ijk,ijk->ij", e, e)
        val = 0.5 * k1 * np.log1p(sq[upper]).sum()
        val += 0.5 * float(np.sum(v * v))
        err_l = p[leader] - (tgt + slots[leader])
        return val + 0.5 * kp * float(err_l @ err_l)

    def apf_forces(p, v, tgt):
        u = -ka * (p - (tgt + slots)) - k2 * v
        d = p[:, None, :] - p[None, :, :]
        dn = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        np.fill_diagonal(dn, np.inf)
        coincident = (a > 0) & (dn < _TINY)
        active = (a > 0) & (dn < d0) & ~coincident
        coef = np.zeros_like(dn)
        coef[active] = kr * (1.0 / dn[active] - 1.0 / d0) / dn[active] ** 3
        u += np.einsum("ij,ijk->ik", coef, d)
        if coincident.any():
            u[coincident.any(axis=1), 0] = np.inf
        return u

    def formation_forces(p, v, tgt):
        e = p[:, None, :] - p[None, :, :] - slot_diff
        if ctrl == CTRL_LOG:
            w = a / (1.0 + np.einsum("ijk,ijk->ij", e, e))
        else:
            w = a
        u = -k1 * np.einsum("ij,ijk->ik", w, e) - k2 * v
        u[leader] -= kp * (p[leader] - (tgt + slots[leader]))
        return u

    return (apf_forces if ctrl == CTRL_APF else formation_forces), lyapunov


def rollout(p0, v0, slots, adj, masses, leader, ctrl,
            k1, k2, kp, ka, kr, d0, tgt0, vdes, dt, steps):
    """Fly `steps` steps of `dt` from (p0, v0) with the target starting at
    tgt0 and moving at vdes. Returns positions P and velocities V
    (steps+1, n, 3), controls U (steps, n, 3) and the Lyapunov trace
    (steps+1,)."""
    forces, lyapunov = law(ctrl, slots, adj, leader, k1, k2, kp, ka, kr, d0)
    n = p0.shape[0]
    P = np.empty((steps + 1, n, 3))
    V = np.empty((steps + 1, n, 3))
    U = np.empty((steps, n, 3))
    lyap = np.empty(steps + 1)
    P[0] = p0
    V[0] = v0

    p = p0.copy()
    v = v0.copy()
    tgt = tgt0.copy()
    lyap[0] = lyapunov(p, v, tgt)
    for s in range(steps):
        u = forces(p, v, tgt)
        v = v + u / masses[:, None] * dt
        p = p + v * dt
        tgt = tgt + vdes * dt
        U[s] = u
        P[s + 1] = p
        V[s + 1] = v
        lyap[s + 1] = lyapunov(p, v, tgt)
    return P, V, U, lyap

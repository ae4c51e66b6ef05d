"""Scalar, edge-by-edge reference rollout for the flight equations.

It spells out every controller and the Lyapunov candidate with explicit
loops over members, edges and axes, independently of the vectorized law
in `swarmform.kernels`, so tests can compare `kernels.rollout` against it.
Same arguments and outputs as `kernels.rollout`.
"""

import numpy as np

from swarmform.kernels import _TINY, CTRL_APF, CTRL_LOG


def rollout_loops(p0, v0, slots, adj, masses, leader, ctrl,
                  k1, k2, kp, ka, kr, d0, tgt0, vdes, dt, steps):
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

    def lyap_value(p, v, tgt):
        val = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                if adj[i, j] == 0.0:
                    continue
                ex = p[i, 0] - p[j, 0] - (slots[i, 0] - slots[j, 0])
                ey = p[i, 1] - p[j, 1] - (slots[i, 1] - slots[j, 1])
                ez = p[i, 2] - p[j, 2] - (slots[i, 2] - slots[j, 2])
                val += 0.5 * k1 * np.log(1.0 + ex * ex + ey * ey + ez * ez)
        for i in range(n):
            val += 0.5 * (v[i, 0] ** 2 + v[i, 1] ** 2 + v[i, 2] ** 2)
        lx = p[leader, 0] - (tgt[0] + slots[leader, 0])
        ly = p[leader, 1] - (tgt[1] + slots[leader, 1])
        lz = p[leader, 2] - (tgt[2] + slots[leader, 2])
        return val + 0.5 * kp * (lx * lx + ly * ly + lz * lz)

    lyap[0] = lyap_value(p, v, tgt)
    for s in range(steps):
        u = np.zeros((n, 3))
        for i in range(n):
            if ctrl == CTRL_APF:
                for a in range(3):
                    u[i, a] = -ka * (p[i, a] - (tgt[a] + slots[i, a])) - k2 * v[i, a]
                for j in range(n):
                    if j == i or adj[i, j] == 0.0:
                        continue
                    dx = p[i, 0] - p[j, 0]
                    dy = p[i, 1] - p[j, 1]
                    dz = p[i, 2] - p[j, 2]
                    dn = np.sqrt(dx * dx + dy * dy + dz * dz)
                    if dn < _TINY:
                        u[i, 0] = np.inf
                    elif dn < d0:
                        c = kr * (1.0 / dn - 1.0 / d0) / (dn ** 3)
                        u[i, 0] += c * dx
                        u[i, 1] += c * dy
                        u[i, 2] += c * dz
            else:
                for j in range(n):
                    if j == i or adj[i, j] == 0.0:
                        continue
                    ex = p[i, 0] - p[j, 0] - (slots[i, 0] - slots[j, 0])
                    ey = p[i, 1] - p[j, 1] - (slots[i, 1] - slots[j, 1])
                    ez = p[i, 2] - p[j, 2] - (slots[i, 2] - slots[j, 2])
                    if ctrl == CTRL_LOG:
                        w = 1.0 / (1.0 + ex * ex + ey * ey + ez * ez)
                    else:
                        w = 1.0
                    u[i, 0] += -k1 * w * ex
                    u[i, 1] += -k1 * w * ey
                    u[i, 2] += -k1 * w * ez
                for a in range(3):
                    u[i, a] -= k2 * v[i, a]
                if i == leader:
                    for a in range(3):
                        u[i, a] -= kp * (p[i, a] - (tgt[a] + slots[i, a]))
        for i in range(n):
            for a in range(3):
                v[i, a] += u[i, a] / masses[i] * dt
                p[i, a] += v[i, a] * dt
        for a in range(3):
            tgt[a] += vdes[a] * dt
        U[s] = u
        P[s + 1] = p
        V[s + 1] = v
        lyap[s + 1] = lyap_value(p, v, tgt)
    return P, V, U, lyap

"""Path-loss/SINR evaluation over a formation.

Received power tx_power * rho0 * d^-alpha comes from one `received_powers`
call over every link. Link statistics aggregate over a star topology whose
hub is the fusion receiver, member 0 (the flight leader): each other
member's link SINR counts every other member as an interferer at the hub.
So with three or more members at most one link can reach 0 dB: SINR_i >=
1 needs p_i > p_j, and SINR_j >= 1 the reverse. A minimum-SINR floor of
0 dB or more can therefore never hold, and `fov.optimize_formation`
always relaxes it to the input's minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import DegenerateGeometryError, Formation

_MIN_DISTANCE = 1e-9


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def to_db(ratio: float) -> float:
    return 10.0 * np.log10(ratio)


@dataclass(frozen=True)
class RadioParams:
    rho0: float = 1e-3          # reference gain at 1 m
    alpha: float = 2.0          # path-loss exponent
    tx_power: float = 0.1       # watts
    noise_power: float = dbm_to_watts(-110.0)   # watts

    def __post_init__(self):
        if min(self.rho0, self.tx_power, self.noise_power) <= 0:
            raise ValueError("rho0, tx_power and noise_power must be positive")
        if self.alpha < 1:
            raise ValueError(f"path-loss exponent must be >= 1, got {self.alpha}")
        if not np.isfinite([self.rho0, self.alpha, self.tx_power, self.noise_power]).all():
            raise ValueError("radio parameters must be finite")


def received_powers(tx: np.ndarray, rx: np.ndarray, rp: RadioParams) -> np.ndarray:
    """Power over each link of broadcast (..., 3) rows, raising at the first
    offending link in row order: each distance sqrt(r @ r), as `np.linalg.norm`
    takes it, to a Python float `**` (NumPy's array `**` is 1 ulp off on ~5%)."""
    r = np.asarray(tx, float) - np.asarray(rx, float)
    dist = np.sqrt((r[..., None, :] @ r[..., None])[..., 0, 0])
    gain, powers = rp.tx_power * rp.rho0, []
    for d in dist.ravel().tolist():
        if d < _MIN_DISTANCE:
            raise DegenerateGeometryError("coincident transmitter and receiver")
        try:
            powers.append(gain * d ** (-rp.alpha))
        except OverflowError:   # Python's float ** raises where NumPy's gives inf
            raise FloatingPointError(f"received power overflows at {d} m with path-loss "
                                     f"exponent {rp.alpha}") from None
    return np.reshape(powers, dist.shape)


def link_stats(formation: Formation, rp: RadioParams) -> dict[str, float]:
    """Mean and minimum SINR in dB over all links into member 0, the fusion
    receiver; `FloatingPointError` if one is not finite (extreme radio
    parameters)."""
    if len(formation) < 2:
        raise ValueError("link statistics need at least two members")
    vals = sinr_db(received_powers(formation.positions[1:], formation.positions[0], rp), rp)
    if not np.isfinite(vals).all():
        raise FloatingPointError(f"a link SINR into member 0 is {np.min(vals)} dB")
    return {"avg_db": float(np.mean(vals)), "min_db": float(np.min(vals))}


def sinr_db(power: np.ndarray, rp: RadioParams) -> np.ndarray:
    """SINR in dB of each link into one receiver, from the received powers
    of its links along the last axis of `power`: every other link
    interferes, its power added one link at a time, in link order. A ratio
    that underflows to 0 gives -inf, and overflowing powers NaN, unwarned."""
    links = np.arange(power.shape[-1])
    interference = np.zeros_like(power)
    for k in links:
        interference += np.where(links == k, 0.0, power[..., k, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        return to_db(power / (interference + rp.noise_power))

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import vec3
from oracles import Pose, Sensor, _power, formation_of, sinr_db
from swarmform import radio
from swarmform.geom import DegenerateGeometryError, Formation
from swarmform.radio import (
    RadioParams,
    dbm_to_watts,
    link_stats,
    received_powers,
    to_db,
)


def line_formation(xs):
    poses = [Pose(vec3(x, 0, 0), 0.0, Sensor.CAMERA) for x in xs]
    return formation_of(poses, np.zeros(3))


class TestUnits:
    def test_dbm_conversion(self):
        assert dbm_to_watts(-110.0) == pytest.approx(1e-14)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_db_round_trip(self):
        assert to_db(10.0) == pytest.approx(10.0)
        assert to_db(1.0) == pytest.approx(0.0)


class TestPower:
    def test_inverse_square_decay(self):
        rp = RadioParams()
        p1, p2 = received_powers(vec3(0, 0, 0), np.array([vec3(1, 0, 0), vec3(2, 0, 0)]), rp)
        assert p1 == pytest.approx(rp.tx_power * rp.rho0)
        assert p1 / p2 == pytest.approx(4.0)

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            received_powers(vec3(1, 1, 1), vec3(1, 1, 1), RadioParams())

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RadioParams(alpha=0.5)
        with pytest.raises(ValueError):
            RadioParams(tx_power=0.0)


class TestSinr:
    def test_three_node_hand_computed(self):
        # members at x = 0, 1, 3 into receiver 0: each link's interferer
        # is the other transmitter
        rp = RadioParams()
        f = line_formation([0.0, 1.0, 3.0])
        near = rp.tx_power * rp.rho0          # distance 1
        far = rp.tx_power * rp.rho0 / 9.0     # distance 3
        link_1 = 10 * np.log10(near / (far + rp.noise_power))
        link_2 = 10 * np.log10(far / (near + rp.noise_power))
        stats = link_stats(f, rp)
        assert stats["min_db"] == pytest.approx(link_2)
        assert stats["avg_db"] == pytest.approx((link_1 + link_2) / 2)

    def test_two_member_link_noise_limited(self):
        # no interferers: SINR = SNR
        rp = RadioParams()
        f = line_formation([0.0, 2.0])
        expected = 10 * np.log10(rp.tx_power * rp.rho0 / 4.0 / rp.noise_power)
        stats = link_stats(f, rp)
        assert stats["min_db"] == pytest.approx(expected)
        assert stats["avg_db"] == stats["min_db"]

    def test_coincident_member_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            link_stats(line_formation([0.0, 1.0, 0.0]), RadioParams())

    def test_link_stats_aggregates(self):
        rp = RadioParams()
        f = line_formation([0.0, 1.0, 3.0])
        stats = link_stats(f, rp)
        vals = [sinr_db(1, 0, f, rp), sinr_db(2, 0, f, rp)]
        assert stats["avg_db"] == pytest.approx(np.mean(vals))
        assert stats["min_db"] == pytest.approx(min(vals))
        assert stats["min_db"] <= stats["avg_db"]

    def test_link_stats_needs_two(self):
        with pytest.raises(ValueError):
            link_stats(line_formation([0.0]), RadioParams())


_COORD = st.floats(-1e3, 1e3)
_SPREAD = [(0.0, 0.0, 0.0), (3.0, 4.0, 0.0), (1.5, -2.0, 7.0),
           (0.0, 0.0, 10.0), (-3.0, 4.0, 0.0), (-1.5, 2.0, -7.0)]


@settings(max_examples=200, deadline=None)
@given(pts=st.lists(st.tuples(*[_COORD] * 3), min_size=4, max_size=32),
       alpha=st.floats(1.0, 4.0))
@example(pts=_SPREAD, alpha=2.0)
@example(pts=_SPREAD, alpha=2.7)
def test_received_powers_equal_scalar_power(pts, alpha):
    """On both shapes the library asks for, the members' links into the
    hub `(n - 1,)` and the flip search's `(2, 2, n - 1)` table (member i in
    state s at the hub in state h), every power equals the scalar formula
    bit for bit, in the scalar loop's link order. The first n points are
    the members' state 0 and the next n their state 1; member 0 is the hub."""
    n = len(pts) // 2
    pos = np.array(pts[:2 * n]).reshape(2, n, 3)
    assume(all(np.linalg.norm(pos[s, i] - pos[h, 0]) > 1e-6
               for h in (0, 1) for s in (0, 1) for i in range(1, n)))
    rp = RadioParams(alpha=alpha)
    links = received_powers(pos[0, 1:], pos[0, 0], rp)
    assert links.shape == (n - 1,)
    assert links.tolist() == [_power(p, pos[0, 0], rp) for p in pos[0, 1:]]
    table = received_powers(pos[None, :, 1:], pos[:, None, None, 0], rp)
    assert table.shape == (2, 2, n - 1)
    assert table.tolist() == [[[_power(p, hub, rp) for p in pos[s, 1:]] for s in (0, 1)]
                              for hub in pos[:, 0]]


@settings(max_examples=100, deadline=None)
@given(kinds=st.lists(st.tuples(*[st.sampled_from(["ok", "coincident", "overflow"])] * 2),
                      min_size=1, max_size=8),
       far_hub_first=st.booleans())
def test_first_offending_link_raises(kinds, far_hub_first):
    """Walking the links in row order, the first one that offends raises:
    `DegenerateGeometryError` for a coincident pair, `FloatingPointError`
    naming the distance for a power past the float range (at exponent
    200, 1 mm overflows and 3 m does not). Each member's two kinds are
    its two states. The search's table walks hub state, member state,
    member, and only the hub state at the origin can offend, so both
    shapes meet the links in the same order."""
    rp = RadioParams(alpha=200.0)
    x = {"ok": 3.0, "coincident": 0.0, "overflow": 1e-3}
    states = np.array([[[x[k[s]], 0.0, 0.0] for k in kinds] for s in (0, 1)])
    hubs = np.array([[0.0, 0.0, 50.0], [0.0, 0.0, 0.0]])
    pos = np.concatenate([(hubs if far_hub_first else hubs[::-1])[:, None], states], axis=1)
    first = next((k[s] for s in (0, 1) for k in kinds if k[s] != "ok"), None)
    for tx, rx in ((states.reshape(-1, 3), np.zeros(3)),
                   (pos[None, :, 1:], pos[:, None, None, 0])):
        if first is None:
            assert np.isfinite(received_powers(tx, rx, rp)).all()
        elif first == "coincident":
            with pytest.raises(DegenerateGeometryError, match="coincident"):
                received_powers(tx, rx, rp)
        else:
            with pytest.raises(FloatingPointError, match="overflows at 0.001 m with path-loss "
                                                         "exponent 200.0"):
                received_powers(tx, rx, rp)


def test_non_finite_sinr_refused():
    """A ratio that underflows to 0 is -inf dB, and one of overflowing
    powers NaN, with no warning (the suite fails on any RuntimeWarning);
    `link_stats` refuses both."""
    rp = RadioParams(tx_power=1e-30, noise_power=dbm_to_watts(3000.0))
    assert radio.sinr_db(np.array([1e-40, 2e-40]), rp).tolist() == [-np.inf, -np.inf]
    assert np.isnan(radio.sinr_db(np.array([np.inf, np.inf]), rp)).all()
    with pytest.raises(FloatingPointError, match="into member 0 is -inf dB"):
        link_stats(line_formation([0.0, 10.0, 20.0]), rp)
    with pytest.raises(FloatingPointError, match="into member 0 is nan dB"):
        link_stats(line_formation([0.0, 10.0, 20.0]), RadioParams(tx_power=1e300, rho0=1e10))


@settings(max_examples=200, deadline=None)
@given(xyz=st.lists(st.tuples(*[st.floats(-40.0, 40.0)] * 3), min_size=2, max_size=16),
       alpha=st.floats(1.0, 4.0), noise_dbm=st.floats(-130.0, -60.0), data=st.data())
def test_link_stats_equals_scalar_sinr(xyz, alpha, noise_dbm, data):
    """Every link's SINR equals the scalar per-link formula bit for bit."""
    # the member drawn to be the fusion receiver moves to row 0
    receiver = data.draw(st.integers(0, len(xyz) - 1), label="receiver")
    xyz = [xyz[receiver], *xyz[:receiver], *xyz[receiver + 1:]]
    f = formation_of([Pose(np.array(p), 0.0, Sensor.CAMERA) for p in xyz], np.zeros(3))
    pts = f.positions
    assume(all(np.linalg.norm(p - pts[0]) > 1e-3 for p in pts[1:]))
    rp = RadioParams(alpha=alpha, noise_power=dbm_to_watts(noise_dbm))
    vals = [sinr_db(i, 0, f, rp) for i in range(1, len(xyz))]
    stats = link_stats(f, rp)
    assert stats["avg_db"] == float(np.mean(vals))
    assert stats["min_db"] == float(np.min(vals))


@settings(max_examples=200, deadline=None)
@given(members=st.lists(st.tuples(st.floats(1.0, 100.0), st.floats(-np.pi, np.pi),
                                  st.floats(-np.pi / 2, np.pi / 2)), min_size=3, max_size=12))
@example(members=[(1.0, 0.0, 0.0), (1.0, 1e-4, 0.0), (1.0, -1e-4, 0.0)])
def test_floor_of_zero_db_never_binds(members):
    """With three or more members at most one link into member 0 reaches
    0 dB: SINR_i >= 1 needs p_i > p_j, and SINR_j >= 1 the reverse. So the
    minimum is below 0 dB, and `fov.optimize_formation` relaxes any floor of
    0 dB or more to the input's minimum. Members 1-100 m from the target,
    each given by (range, bearing, elevation)."""
    pts = np.array([[r * np.cos(el) * np.cos(b), r * np.cos(el) * np.sin(b), r * np.sin(el)]
                    for r, b, el in members])
    assume(np.linalg.norm(pts[1:] - pts[0], axis=1).min() >= 1e-9)
    n = len(pts)
    min_db = link_stats(Formation(pts, np.zeros(n), np.zeros(n, bool), np.zeros(3)),
                        RadioParams())["min_db"]
    # in floats the minimum reads exactly 0 dB only when two links, and no
    # third, have equal powers so far above the noise that adding it rounds
    # away (the example: both 0.1 mm from member 0); a floor of 0 dB still
    # relaxes to it
    assert min_db < 0.0 or (min_db == 0.0 and n == 3)


@settings(max_examples=100, deadline=None)
@given(xyz=st.lists(st.tuples(*[st.floats(-40.0, 40.0)] * 3), min_size=2, max_size=10),
       shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3), alpha=st.floats(1.0, 4.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_link_stats_invariant_under_rigid_motion(xyz, shift, alpha, seed, data):
    """SINR depends on the distances to the receiver only, so a rotation
    and a translation of the whole formation move the mean and minimum dB
    by rounding alone."""
    # the member drawn to be the fusion receiver moves to row 0
    receiver = data.draw(st.integers(0, len(xyz) - 1), label="receiver")
    xyz = [xyz[receiver], *xyz[:receiver], *xyz[receiver + 1:]]
    pts = np.array(xyz)
    assume(np.linalg.norm(pts[1:] - pts[0], axis=1).min() > 0.1)
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rp = RadioParams(alpha=alpha)
    n = len(pts)
    before = link_stats(Formation(pts, np.zeros(n), np.zeros(n, bool), np.zeros(3)), rp)
    moved = Formation(pts @ q.T + shift, np.zeros(n), np.zeros(n, bool), np.zeros(3))
    after = link_stats(moved, rp)
    assert abs(after["avg_db"] - before["avg_db"]) <= 1e-9
    assert abs(after["min_db"] - before["min_db"]) <= 1e-9

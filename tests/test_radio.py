import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import sinr_db
from swarmform.geom import DegenerateGeometryError, Formation, Pose, Sensor, vec3
from swarmform.radio import (
    RadioParams,
    ResourceModel,
    comm_resource,
    dbm_to_watts,
    link_stats,
    received_power,
    sensor_cost,
    to_db,
)


def line_formation(xs):
    poses = [Pose(vec3(x, 0, 0), 0.0, Sensor.CAMERA) for x in xs]
    return Formation(poses=poses, target=np.zeros(3))


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
        p1 = received_power(vec3(0, 0, 0), vec3(1, 0, 0), rp)
        p2 = received_power(vec3(0, 0, 0), vec3(2, 0, 0), rp)
        assert p1 == pytest.approx(rp.tx_power * rp.rho0)
        assert p1 / p2 == pytest.approx(4.0)

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            received_power(vec3(1, 1, 1), vec3(1, 1, 1), RadioParams())

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
        stats = link_stats(f, 0, rp)
        assert stats["min_db"] == pytest.approx(link_2)
        assert stats["avg_db"] == pytest.approx((link_1 + link_2) / 2)

    def test_two_member_link_noise_limited(self):
        # no interferers: SINR = SNR
        rp = RadioParams()
        f = line_formation([0.0, 2.0])
        expected = 10 * np.log10(rp.tx_power * rp.rho0 / 4.0 / rp.noise_power)
        stats = link_stats(f, 0, rp)
        assert stats["min_db"] == pytest.approx(expected)
        assert stats["avg_db"] == stats["min_db"]

    def test_coincident_member_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            link_stats(line_formation([0.0, 1.0, 0.0]), 0, RadioParams())

    def test_link_stats_aggregates(self):
        rp = RadioParams()
        f = line_formation([0.0, 1.0, 3.0])
        stats = link_stats(f, 0, rp)
        vals = [sinr_db(1, 0, f, rp), sinr_db(2, 0, f, rp)]
        assert stats["avg_db"] == pytest.approx(np.mean(vals))
        assert stats["min_db"] == pytest.approx(min(vals))
        assert stats["min_db"] <= stats["avg_db"]

    def test_link_stats_needs_two(self):
        with pytest.raises(ValueError):
            link_stats(line_formation([0.0]), 0, RadioParams())


@settings(max_examples=200, deadline=None)
@given(xyz=st.lists(st.tuples(*[st.floats(-40.0, 40.0)] * 3), min_size=2, max_size=16),
       alpha=st.floats(1.0, 4.0), noise_dbm=st.floats(-130.0, -60.0), data=st.data())
def test_link_stats_equals_scalar_sinr(xyz, alpha, noise_dbm, data):
    """Every link's SINR equals the scalar per-link formula bit for bit."""
    f = Formation([Pose(np.array(p), 0.0, Sensor.CAMERA) for p in xyz], np.zeros(3))
    receiver = data.draw(st.integers(0, len(xyz) - 1), label="receiver")
    pts = f.positions()
    assume(all(np.linalg.norm(p - pts[receiver]) > 1e-3
               for i, p in enumerate(pts) if i != receiver))
    rp = RadioParams(alpha=alpha, noise_power=dbm_to_watts(noise_dbm))
    vals = [sinr_db(i, receiver, f, rp) for i in range(len(xyz)) if i != receiver]
    stats = link_stats(f, receiver, rp)
    assert stats["avg_db"] == float(np.mean(vals))
    assert stats["min_db"] == float(np.min(vals))


class TestResources:
    def test_lidar_exceeds_camera(self):
        rm = ResourceModel()
        assert comm_resource(Sensor.LIDAR, rm) > comm_resource(Sensor.CAMERA, rm)
        assert sensor_cost(Sensor.LIDAR, rm) > sensor_cost(Sensor.CAMERA, rm)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceModel(bandwidth_lidar=0.5)
        with pytest.raises(ValueError):
            ResourceModel(cost_lidar=0.05)

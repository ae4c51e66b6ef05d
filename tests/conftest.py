import numpy as np
import pytest

from oracles import Pose, Sensor, SphericalPlacement, formation_of, spherical_to_cartesian
from swarmform.geom import Formation, yaw_facing_target
from swarmform.sensing import SensorModels

# The published six-UAV formation: (sensor, azimuth deg, pitch deg) at 10 m.
REFERENCE_ROWS = [
    (Sensor.LIDAR, 40.0, 160.0),
    (Sensor.LIDAR, 130.0, 20.0),
    (Sensor.CAMERA, 0.0, 160.0),
    (Sensor.CAMERA, 100.0, 20.0),
    (Sensor.CAMERA, 50.0, 160.0),
    (Sensor.CAMERA, 140.0, 160.0),
]


def vec3(x, y, z) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def build_reference_formation(target=None) -> Formation:
    target = np.zeros(3) if target is None else np.asarray(target, dtype=float)
    poses = []
    for sensor, beta, delta in REFERENCE_ROWS:
        placement = SphericalPlacement(10.0, np.radians(beta), np.radians(delta))
        position = spherical_to_cartesian(placement, target)
        poses.append(Pose(position, yaw_facing_target(position, target), sensor))
    return formation_of(poses, target)


def slotted(slots, target=None) -> Formation:
    """The camera-only formation whose members sit at `slots` (n, 3), offsets
    from `target` (the origin by default), all at yaw 0: what
    `flight.simulate` flies."""
    slots = np.asarray(slots, dtype=float)
    target = np.zeros(3) if target is None else np.asarray(target, dtype=float)
    return Formation(target + slots, np.zeros(len(slots)), np.zeros(len(slots), bool), target)


@pytest.fixture
def reference_formation() -> Formation:
    return build_reference_formation()


@pytest.fixture
def models() -> SensorModels:
    return SensorModels()


def random_pose(rng, sensor=None, target=None) -> Pose:
    """Random non-degenerate pose facing the target: 3-25 m range, at most
    60 degrees off the horizontal plane."""
    target = np.zeros(3) if target is None else np.asarray(target, dtype=float)
    d = rng.uniform(3.0, 25.0)
    beta = rng.uniform(0.0, 2.0 * np.pi)
    elev = rng.uniform(-np.pi / 3, np.pi / 3)
    position = target + d * np.array(
        [np.cos(elev) * np.cos(beta), np.cos(elev) * np.sin(beta), np.sin(elev)]
    )
    if sensor is None:
        sensor = Sensor.CAMERA if rng.random() < 0.5 else Sensor.LIDAR
    return Pose(position, yaw_facing_target(position, target), sensor)

"""Information-optimal UAV formation design.

Three-stage pipeline: greedy UAV/sensor allocation maximizing the
regularized log-det Fisher information about a target, flip-based
formation reconfiguration that spreads field-of-view coverage without
touching the FIM, and Lyapunov-stable formation flight simulation.
"""

from .alloc import AllocWeights, GridSpec, build_candidates, greedy_allocate
from .config import Scenario, ScenarioError, parse_formation, parse_scenario
from .flight import (
    ApfParams,
    ControlGains,
    FormationPlan,
    SwarmState,
    lyapunov_value,
    metrics,
    simulate,
)
from .fov import FovSpec, coverage, flip, ground_constrain, optimize_formation
from .geom import DegenerateGeometryError, Formation, Pose, Sensor, SphericalPlacement
from .radio import RadioParams, ResourceModel, link_stats
from .sensing import CameraIntrinsics, LidarNoise, SensorModels, logdet_reg, total_fim, uav_fim

__version__ = "0.1.0"

__all__ = [
    "AllocWeights", "ApfParams", "CameraIntrinsics", "ControlGains",
    "DegenerateGeometryError", "Formation", "FormationPlan", "FovSpec",
    "GridSpec", "LidarNoise", "Pose", "RadioParams", "ResourceModel",
    "Scenario", "ScenarioError", "Sensor", "SensorModels", "SphericalPlacement",
    "SwarmState", "build_candidates", "coverage", "flip", "greedy_allocate",
    "ground_constrain", "link_stats", "logdet_reg", "lyapunov_value", "metrics",
    "optimize_formation", "parse_formation", "parse_scenario", "simulate",
    "total_fim", "uav_fim",
]

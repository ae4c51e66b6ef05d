"""Information-optimal UAV formation design.

Three-stage pipeline: greedy UAV/sensor allocation maximizing the
regularized log-det Fisher information about a target, flip-based
formation reconfiguration that spreads field-of-view coverage without
touching the FIM, and Lyapunov-stable formation flight simulation.
"""

from .alloc import AllocWeights, GridSpec, ResourceModel, build_candidates, greedy_allocate
from .config import Scenario, ScenarioError, parse_formation, parse_scenario
from .flight import ControlGains, cube_starts, metrics, simulate
from .fov import FovSpec, coverage, flip, ground_constrain, optimize_formation
from .geom import DegenerateGeometryError, Formation
from .radio import RadioParams, link_stats
from .sensing import SensorModels, logdet_reg, total_fim

__version__ = "0.1.0"

__all__ = [
    "AllocWeights", "ControlGains", "DegenerateGeometryError",
    "Formation", "FovSpec", "GridSpec", "RadioParams", "ResourceModel",
    "Scenario", "ScenarioError", "SensorModels",
    "build_candidates", "coverage", "cube_starts", "flip", "greedy_allocate",
    "ground_constrain", "link_stats", "logdet_reg", "metrics",
    "optimize_formation", "parse_formation", "parse_scenario", "simulate",
    "total_fim",
]

"""Acceptance gate: one test per shipped claim, each printing a single
PASS line on success (run with -s or check captured output on failure).

Reference values marked "frozen" were derived once with the documented
seeds/initialization and are regression guards, not external truths.
"""

import functools
import json
import time
from importlib import resources

import numpy as np
import pytest

from conftest import build_reference_formation, random_pose
from oracles import (
    camera_jacobian,
    camera_project,
    exhaustive_best,
    exhaustive_flip_best,
    formation_of,
    greedy_unpenalized,
    lidar_jacobian,
    lidar_measure,
    Sensor,
    pose_fim,
    sinr,
    subset_logdet,
)
from swarmform import cli
from swarmform.alloc import (
    AllocWeights,
    GridSpec,
    ResourceModel,
    build_candidates,
    greedy_allocate,
)
from swarmform.cli import main
from swarmform.config import parse_scenario
from swarmform.flight import ControlGains, cube_starts, metrics, simulate
from swarmform.fov import (
    _ANGLE_TOL,
    FovSpec,
    coverage,
    flip,
    optimize_formation,
)
from swarmform.radio import RadioParams, link_stats
from swarmform.sensing import SensorModels, fims, logdet_reg, total_fim


def _report(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


def _fd(fn, target, h=1e-6):
    base = np.asarray(fn(target), dtype=float)
    out = np.empty((base.size, 3))
    for a in range(3):
        dt = np.zeros(3)
        dt[a] = h
        out[:, a] = (np.asarray(fn(target + dt)) - np.asarray(fn(target - dt))) / (2 * h)
    return out


def test_criterion_01_jacobians_match_finite_differences(models):
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        pose = random_pose(rng, Sensor.CAMERA)
        jac = camera_jacobian(pose, np.zeros(3), models)
        num = _fd(lambda t: camera_project(pose, t, models), np.zeros(3))
        worst = max(worst, np.abs(jac - num).max() / max(np.abs(num).max(), 1.0))
    for _ in range(500):
        pose = random_pose(rng, Sensor.LIDAR)
        jac = lidar_jacobian(pose, np.zeros(3))
        num = _fd(lambda t: lidar_measure(pose, t), np.zeros(3))
        worst = max(worst, np.abs(jac - num).max() / max(np.abs(num).max(), 1.0))
    elapsed = time.time() - start
    assert worst < 1e-5
    assert elapsed < 5.0
    _report(1, f"1000 poses, worst relative Jacobian error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_flip_preserves_fim(models):
    start = time.time()
    rng = np.random.default_rng(43)
    worst = 0.0
    for sensor in (Sensor.CAMERA, Sensor.LIDAR):
        # per member: each row of the flipped formation against its own row
        f = formation_of([random_pose(rng, sensor) for _ in range(1000)], np.zeros(3))
        f0, f1 = fims(f, models), fims(flip(f), models)
        worst = max(worst, np.abs(f1 - f0).max())
    # consequently the total log-det survives any accepted move set
    f = build_reference_formation()
    opt = optimize_formation(f, FovSpec(), RadioParams())
    drift = abs(logdet_reg(total_fim(opt, models), models.eps)
                - logdet_reg(total_fim(f, models), models.eps))
    elapsed = time.time() - start
    assert worst < 1e-9
    assert drift < 1e-6
    assert elapsed < 5.0
    _report(2, f"2000 flips, max FIM change {worst:.1e}; log-det drift {drift:.1e}")


def test_criterion_03_reference_formation_logdet(capsys):
    start = time.time()
    path = str(resources.files("swarmform") / "scenarios" / "reference_formation.json")
    assert main(["eval-fim", "--formation", path]) == 0
    value = float(capsys.readouterr().out)
    elapsed = time.time() - start
    if abs(value - 16.48) > 0.5:
        pytest.fail(
            "convention audit: eval-fim returned "
            f"{value:.4f} for the six reference poses (expected 16.48 +/- 0.5). "
            "Check (a) noise entries are treated as standard deviations and "
            "squared into variances, (b) pitch > 90 deg flips the horizontal "
            "direction, (c) yaw faces the target, (d) eps = 1e-6."
        )
    assert elapsed < 1.0
    with capsys.disabled():
        _report(3, f"eval-fim log-det {value:.4f} (within 16.48 +/- 0.5)")


def test_criterion_04_greedy_structure(models):
    start = time.time()
    candidates = build_candidates(np.zeros(3), GridSpec(), FovSpec().kappa)
    result = greedy_allocate(candidates, AllocWeights(), ResourceModel(), models)
    elapsed = time.time() - start
    assert len(result.formation) == 6
    lidar = int(np.count_nonzero(result.formation.lidar))
    assert lidar == 2
    gains = np.array(result.gains)
    assert np.all(np.diff(gains) <= 1e-9), "marginal gains must be non-increasing"
    assert elapsed < 2.0
    _report(4, f"greedy picked 6 UAVs (2 lidar, 4 camera), log-det "
               f"{result.logdet:.4f}, diminishing gains, in {elapsed:.2f}s")


def test_criterion_05_greedy_approximation_bound(models):
    start = time.time()
    rng = np.random.default_rng(44)
    f0 = logdet_reg(np.zeros((3, 3)), models.eps)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(6, 17))
        k = int(rng.integers(2, 5))
        cands = [pose_fim(random_pose(rng), np.zeros(3), models) for _ in range(n)]
        _, opt = exhaustive_best(cands, k)
        _, val = greedy_unpenalized(cands, k)
        assert val - f0 >= (1 - 1 / np.e) * (opt - f0) - 1e-9
        checked += 1
    elapsed = time.time() - start
    assert checked == 50
    assert elapsed < 60.0
    _report(5, f"greedy met the (1 - 1/e) bound on 50 instances in {elapsed:.1f}s")


def test_criterion_06_monotone_submodular_sampling(models):
    start = time.time()
    rng = np.random.default_rng(45)
    pool = [pose_fim(random_pose(rng), np.zeros(3), models) for _ in range(12)]
    for _ in range(200):
        idx = rng.permutation(11)
        s_size = int(rng.integers(0, 4))
        t_size = s_size + int(rng.integers(0, 4))
        S = [pool[i] for i in idx[:s_size]]
        T = [pool[i] for i in idx[:t_size]]
        v = pool[11]
        f_s, f_t = subset_logdet(S), subset_logdet(T)
        assert f_t >= f_s - 1e-9, "monotonicity violated"
        gain_s = subset_logdet(S + [v]) - f_s
        gain_t = subset_logdet(T + [v]) - f_t
        assert gain_s >= gain_t - 1e-9, "submodularity violated"
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(6, f"200 sampled (S subset T, v) triples monotone + submodular in {elapsed:.1f}s")


def test_criterion_07_formation_optimization(models):
    start = time.time()
    spec, radio = FovSpec(), RadioParams()
    f = build_reference_formation()
    g0 = coverage(f, spec).gamma_metric
    s0 = link_stats(f, radio)["min_db"]
    ld0 = logdet_reg(total_fim(f, models), models.eps)
    opt = optimize_formation(f, spec, radio)
    g1 = coverage(opt, spec).gamma_metric
    s1 = link_stats(opt, radio)["min_db"]
    assert g1 > g0, "coverage must strictly increase"
    assert s1 > s0, "minimum link SINR must rise"
    assert logdet_reg(total_fim(opt, models), models.eps) == pytest.approx(ld0, abs=1e-6)
    assert g1 == pytest.approx(exhaustive_flip_best(f, spec, radio))
    # a second, independent <= 12-UAV instance against the oracle
    rng = np.random.default_rng(46)
    crowd = formation_of([random_pose(rng) for _ in range(9)], np.zeros(3))
    opt2 = optimize_formation(crowd, spec, radio)
    assert coverage(opt2, spec).gamma_metric == pytest.approx(
        exhaustive_flip_best(crowd, spec, radio))
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(7, f"coverage {g0:.2f} -> {g1:.2f}, min SINR {s0:.2f} -> {s1:.2f} dB, "
               f"log-det preserved, oracle-equal, in {elapsed:.1f}s")


def test_criterion_08_ground_constraint(models):
    start = time.time()
    f = build_reference_formation()
    spec, radio = FovSpec(), RadioParams()
    opt = optimize_formation(f, spec, radio)
    g = optimize_formation(f, spec, radio, ground=True)
    assert (g.positions[:, 2] >= f.target[2]).all()
    floor = min(spec.eta_min_db, link_stats(f, radio)["min_db"])
    assert link_stats(g, radio)["min_db"] >= floor - _ANGLE_TOL
    ld_air = logdet_reg(total_fim(opt, models), models.eps)
    ld_ground = logdet_reg(total_fim(g, models), models.eps)
    degradation = ld_air - ld_ground
    elapsed = time.time() - start
    assert 0.0 <= degradation < 0.5
    assert elapsed < 5.0
    _report(8, f"upper half-space enforced; log-det {ld_air:.4f} -> {ld_ground:.4f} "
               f"(degradation {degradation:.4f} < 0.5)")


def test_criterion_09_lyapunov_decrease_and_convergence():
    start = time.time()
    f = build_reference_formation()
    gains = ControlGains(k1=4.0, k2=1.5, kp=10.0)
    p0 = np.stack([np.random.default_rng(seed).uniform(-15.0, 15.0, (6, 3))
                   for seed in range(20)])
    traj = simulate((p0, np.zeros_like(p0)), f, "log", gains, np.zeros(3), 0.01, 60.0)
    worst_step = float(np.diff(traj.lyapunov, axis=1).max())
    errs = metrics(traj).avg_final_pos_err
    elapsed = time.time() - start
    assert worst_step <= 1e-6, f"Lyapunov increased by {worst_step:.2e} in a step"
    assert max(errs) < 0.1, f"final mean position error {max(errs):.4f} >= 0.1 m"
    assert elapsed < 60.0
    _report(9, f"20 runs x 60s: max Lyapunov step {worst_step:.1e}, "
               f"worst final error {max(errs):.2e} m, in {elapsed:.1f}s")


@functools.cache
def _benchmark():
    """(flight config, formation, target velocity, start arrays) of the
    bundled flight benchmark; run `run` starts from seed [fl.seed, run]."""
    scenario = parse_scenario(resources.files("swarmform") / "scenarios"
                              / "flight_benchmark.json")
    f = build_reference_formation(scenario.target.position)
    fl = scenario.flight
    starts = cube_starts(f, fl.init_cube_half_width_m, fl.seed, fl.runs)
    return fl, f, scenario.target.velocity, starts


# Criteria 10a and 10b read the same 60 rollouts; fly them once per session.
@functools.cache
def _benchmark_means():
    fl, f, vt, starts = _benchmark()
    out = {}
    for ctrl in ("log", "quad", "apf"):
        m = metrics(simulate(starts, f, ctrl, fl.gains, vt, fl.dt_s, fl.horizon_s))
        out[ctrl] = {
            "dist": float(np.mean(m.avg_distance)),
            "ferr": float(np.mean(m.avg_final_pos_err)),
        }
    return out


# Frozen references from the bundled benchmark (seeds [0, run], 20 runs).
_FROZEN_DIST = {"log": 20.58, "quad": 75.63, "apf": 26.61}


def test_criterion_10a_controller_ranking_avg_distance():
    start = time.time()
    means = _benchmark_means()
    d = {c: means[c]["dist"] for c in means}
    elapsed = time.time() - start
    assert d["log"] < d["apf"] < d["quad"], f"distance ordering violated: {d}"
    for ctrl, ref in _FROZEN_DIST.items():
        assert abs(d[ctrl] - ref) <= 0.3 * ref, \
            f"{ctrl} mean distance {d[ctrl]:.2f} outside +/-30% of frozen {ref}"
    assert elapsed < 120.0
    _report(10, f"avg-distance ordering log < APF < quadratic "
                f"({d['log']:.1f} < {d['apf']:.1f} < {d['quad']:.1f} m) in {elapsed:.1f}s")


def test_criterion_10b_controller_ranking_final_pos_err():
    """Final position error: quadratic < APF on the benchmark, and the log
    law converges on its moving target.

    The log law's per-edge force saturates at k1/2 by design, which is
    what bounds its control authority and energy. From the benchmark's
    30 m starts it therefore closes large errors more slowly than the
    linear quadratic law, whose 20 s final error is already ~0, so no
    correct log law is below it there. What the method promises for the
    log law's final error is convergence: criterion 9's claim, checked
    here on the moving target with the same 20 starts flown to criterion
    9's 60 s horizon and held to criterion 9's bounds.
    """
    means = _benchmark_means()
    e = {c: means[c]["ferr"] for c in means}
    assert e["quad"] < e["apf"], f"quadratic < APF leg violated: {e}"
    start = time.time()
    fl, f, vt, starts = _benchmark()
    traj = simulate(starts, f, "log", fl.gains, vt, fl.dt_s, 60.0)
    worst_step = float(np.diff(traj.lyapunov, axis=1).max())
    errs = metrics(traj).avg_final_pos_err
    elapsed = time.time() - start
    assert worst_step <= 1e-6, f"Lyapunov increased by {worst_step:.2e} in a step"
    assert max(errs) < 0.1, f"log final mean position error {max(errs):.4f} >= 0.1 m at 60 s"
    assert elapsed < 60.0
    _report(10, f"final error at 20 s: quadratic {e['quad']:.3f} < APF {e['apf']:.3f} m "
                f"(log {e['log']:.3f} m); log on the moving target, 20 runs x 60 s: "
                f"max Lyapunov step {worst_step:.1e}, worst final error "
                f"{max(errs):.2e} m, in {elapsed:.1f}s")


def test_criterion_11_paper_headline_ledger():
    """The abstract's three headline claims, paper vs measured on the
    bundled `paper_default` scenario (allocation, then reconfiguration).

    Definitions, each the plain reading of the claim, not one picked to
    land on the paper's number:

    - FOV coverage: the relative change of Gamma (total coverage intensity
      times integrity) from the allocated formation to the reconfigured
      one, Gamma_after / Gamma_before - 1. Paper: +25.0%.
    - Communication signal strength: the relative change of the mean
      linear SINR (a power ratio, not dB) over the links of every member
      into the fusion receiver, member 0. Paper: +104.2%.
    - Energy: the relative change of flight energy. Paper: -47.2%. No
      energy metric exists yet, so this row is not measured.

    Two more SINR readings print beside the ledger, each taken from the
    formation report's "Before" and "After" sections; the paper gives
    neither:

    - minimum SINR: the lowest SINR in dB over the same links, the
      report's "Min. SINR (dB)";
    - mean SINR in dB: the mean over the same links of each link's SINR
      in dB, the report's "Avg. SINR (dB)". Averaging in dB weighs every
      link alike, so one strong link cannot carry it as it carries the
      mean linear SINR.

    Only the coverage row is asserted. The other two print as known gaps:
    the SINR row does not reproduce (flips move members away from the hub),
    and the energy row waits for an energy metric. No SINR reading is
    asserted: the two extra readings were chosen after their numbers were
    seen.
    """
    scenario = parse_scenario(resources.files("swarmform") / "scenarios"
                              / "paper_default.json")
    allocated, _ = cli._stage_allocate(scenario)
    reconfigured, doc = cli._stage_formation(scenario, allocated)
    g0, g1 = doc["Before"]["Gamma"], doc["After"]["Gamma"]

    def mean_sinr(f):
        return float(np.mean([sinr(i, 0, f, scenario.radio) for i in range(1, len(f))]))

    s0, s1 = mean_sinr(allocated), mean_sinr(reconfigured)
    rows = [
        ("FOV coverage (Gamma)", "+25.0%", f"{g1 / g0 - 1:+.1%} ({g0:.3f} -> {g1:.3f})", "match"),
        ("signal strength (mean linear SINR)", "+104.2%",
         f"{s1 / s0 - 1:+.1%} ({s0:.3f} -> {s1:.3f})", "known gap"),
        ("energy", "-47.2%", "none (no energy metric yet)", "known gap"),
    ]
    print()
    for claim, paper, measured, status in rows:
        print(f"[criterion 11] {claim}: paper {paper}, measured {measured}: {status}")
    for reading, key in (("minimum SINR", "Min. SINR (dB)"),
                         ("mean SINR in dB", "Avg. SINR (dB)")):
        print(f"[criterion 11] {reading}: {doc['Before'][key]:.2f} -> {doc['After'][key]:.2f} dB "
              "(not in the paper; not asserted)")
    assert f"{g1 / g0 - 1:+.1%}" == "+25.0%"
    assert (round(g0, 3), round(g1, 3)) == (22.684, 28.355)
    _report(11, f"coverage gain {g1 / g0 - 1:+.1%} matches the paper's +25.0%; "
                "SINR and energy rows printed as known gaps")

"""Self-tests of the benchmark's generator, output checks and tracing.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from swarmform import cli  # noqa: E402
from swarmform.config import parse_scenario  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_parses(name, tmp_path):
    docs = [workloads.scenario(name, seed, SRC) for seed in (3, 3, 4)]
    assert docs[0] == docs[1]
    if name != "fly_fleet":   # fly_fleet's seed goes to --seed-override
        assert docs[0]["target"] != docs[2]["target"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(docs[0]))
    sc = parse_scenario(path)
    assert sc.target.velocity.any() == (name == "fly_fleet")


@pytest.fixture(scope="module")
def small_fly(tmp_path_factory):
    """Output files of a short, real pipeline call on a stationary target,
    and a swarm_wide-style workload whose counts match it."""
    out = tmp_path_factory.mktemp("fly")
    doc = workloads.bundled(SRC, "paper_default")
    doc["flight"]["horizon_s"] = 2.0
    (out / "s.json").write_text(json.dumps(doc))
    assert cli.main(["pipeline", "--scenario", str(out / "s.json"), "--out-dir", str(out)]) == 0
    w = dataclasses.replace(workloads.WORKLOADS["swarm_wide"], uavs=6)
    return w, {n: (out / n).read_bytes() for n in workloads.outputs(w)}


def test_clean_outputs_pass(small_fly):
    w, blobs = small_fly
    problems, report, digests = workloads.check_call(w, blobs, {})
    assert problems == []
    assert report["Allocation"]["UAV count"] == 6
    assert workloads.check_call(w, blobs, digests)[0] == []


def _with_report(blobs, edit):
    report = json.loads(blobs["report.json"])
    edit(report)
    return dict(blobs, **{"report.json": json.dumps(report).encode()})


@pytest.mark.parametrize("edit, expected", [
    (lambda r: r["Formation"]["After"].update({"log-det FIM": r["Formation"]["After"]["log-det FIM"] + 1e-6}),
     "flip changed log-det"),
    (lambda r: r["Formation"]["After"].update(Gamma=r["Formation"]["Before"]["Gamma"] - 1.0),
     "Gamma fell"),
    (lambda r: r["Formation"]["After"].update({"Min. SINR (dB)": -1e3}), "below floor"),
    (lambda r: r["Allocation"].update({"UAV count": 5}), "UAV count"),
    (lambda r: r["Allocation"].update(Candidates=1), "candidate count"),
    (lambda r: r["Flight"]["Mean"].update({"Avg. Distance (m)": float("nan")}), "non-finite"),
])
def test_corrupted_report_fails(small_fly, edit, expected):
    w, blobs = small_fly
    problems = workloads.check_call(w, _with_report(blobs, edit), {})[0]
    assert any(expected in p for p in problems), problems


def test_rising_lyapunov_fails(small_fly):
    w, blobs = small_fly
    lines = blobs["fly_trace.csv"].decode().splitlines()
    prev = float(lines[49].rsplit(",", 1)[1])
    lines[50] = f"{lines[50].rsplit(',', 1)[0]},{prev + 1e-5!r}"
    bad = dict(blobs, **{"fly_trace.csv": ("\n".join(lines) + "\n").encode()})
    assert any("V rose" in p for p in workloads.check_call(w, bad, {})[0])
    # the same trace is fine where the target moves and V may rise
    moving = dataclasses.replace(w, lyapunov_monotone=False)
    assert not any("V rose" in p for p in workloads.check_call(moving, bad, {})[0])


def test_changed_bytes_fail(small_fly):
    w, blobs = small_fly
    _, _, digests = workloads.check_call(w, blobs, {})
    changed = _with_report(blobs, lambda r: r.update(Extra=1))
    problems = workloads.check_call(w, changed, digests)[0]
    assert problems == ["report.json differs from the first iteration's"]


def test_distance_order():
    w = workloads.WORKLOADS["fly_fleet"]
    reports = {c: {"Flight": {"Mean": {"Avg. Distance (m)": d}}}
               for c, d in (("log", 1.0), ("apf", 2.0), ("quad", 3.0))}
    assert workloads.check_iteration(w, reports) == []
    reports["apf"]["Flight"]["Mean"]["Avg. Distance (m)"] = 0.5
    assert workloads.check_iteration(w, reports)


def _span(name, start, end, parent, iteration=0):
    return tracing.Span(name, float(start), float(end), parent, iteration)


def test_self_time_on_hand_built_tree():
    spans = [
        _span(tracing.ROOT, 0, 10, -1),                  # 0
        _span("fov.optimize_formation", 1, 4, 0),         # 1
        _span("radio.link_stats", 2, 3, 1),               # 2
        _span("flight.simulate.log", 5, 9, 0),            # 3
        _span("flight.metrics", 8, 9.5, 0),               # 4 overlaps 3
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - (3 + 4.5), 2, 1, 4, 1.5])
    layers = tracing.iteration_layers(spans, {"flight.uav_steps": 4})
    assert layers["cli.self_s"] == pytest.approx(2.5)
    assert layers["trace.coverage"] == pytest.approx(0.75)
    assert layers["flight.us_per_uav_step"] == pytest.approx(1e6)
    assert layers["fov.patterns_evaluated"] == 0
    assert layers["radio.link_stats_calls"] == 1


def test_tracer_records_and_restores():
    module = types.SimpleNamespace(f=lambda x: x + 1, g=lambda x: module.f(x) * 2)
    original = module.f, module.g
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.iteration = 7

    def install(t):
        t.wrap(module, "f", "inner", lambda t, r: t.count("f.out", r))
        t.wrap(module, "g", "outer")

    with tracer.installed(install):
        assert module.g(1) == 4
    assert (module.f, module.g) == original
    assert [(s.name, s.parent, s.iteration) for s in tracer.spans] == [
        ("outer", -1, 7), ("inner", 0, 7)]
    assert tracer.counters[7]["f.out"] == 2
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]

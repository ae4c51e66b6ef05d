"""In-memory spans around the public functions `swarmform.cli` and
`swarmform.fov` call, and the per-layer metrics derived from them.

The tracer wraps module attributes from outside (no library code changes)
and puts the originals back when its `installed()` block ends, so only
traced iterations pay for the wrappers. A span is recorded per call: name,
start, end, parent span and iteration id. Counts taken at the same
boundaries (candidates, greedy rounds, rollout bytes) go to `counters`.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT = "cli.pipeline"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    iteration: int


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.iteration = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.iteration))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def count(self, name: str, value: int = 1) -> None:
        self.counters[self.iteration][name] += value

    def wrap(self, module, attr: str, name=None, on_result=None) -> None:
        """Replace `module.attr` by a call that records a span, unless `name`
        is None, and then `on_result(tracer, result)`, if given.
        `name` is a span name or a function of the call's arguments."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        namer = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            span_name = namer(*args, **kwargs)
            if span_name is None:
                result = original(*args, **kwargs)
            else:
                with self.span(span_name):
                    result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self, install):
        """Run `install(self)` to wrap the boundaries, restore on exit."""
        try:
            install(self)
            yield self
        finally:
            self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _inside(spans: list[Span], i: int, ancestor: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == ancestor:
            return True
        p = spans[p].parent
    return False


def iteration_layers(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one iteration's spans and counters."""
    selfs = self_times(spans)
    self_by = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        self_by[s.name] += selfs[i]
        calls[s.name] += 1
    searches = sum(1 for s in spans if s.name == "fov.optimize_formation")
    ls_in = sum(1 for i, s in enumerate(spans)
                if s.name == "radio.link_stats" and _inside(spans, i, "fov.optimize_formation"))
    cov_in = sum(1 for i, s in enumerate(spans)
                 if s.name == "fov.coverage" and _inside(spans, i, "fov.optimize_formation"))
    wall = sum(s.end - s.start for s in spans if s.name == ROOT)
    simulate = {c: self_by[f"flight.simulate.{c}"] for c in ("log", "quad", "apf")}
    uav_steps = counters.get("flight.uav_steps", 0)
    return {
        "config.parse_scenario_s": self_by["config.parse_scenario"],
        "alloc.build_candidates_s": self_by["alloc.build_candidates"],
        "alloc.greedy_allocate_s": self_by["alloc.greedy_allocate"],
        "alloc.candidates": counters.get("alloc.candidates", 0),
        "alloc.greedy_rounds": counters.get("alloc.greedy_rounds", 0),
        "fov.optimize_formation_s": self_by["fov.optimize_formation"],
        "fov.coverage_s": self_by["fov.coverage"],
        # every searched pattern costs one SINR check; the first checks the input
        "fov.patterns_evaluated": max(0, ls_in - searches),
        "fov.feasible_ratio": cov_in / ls_in if ls_in else 0.0,
        "radio.link_stats_s": self_by["radio.link_stats"],
        "radio.link_stats_calls": calls["radio.link_stats"],
        "sensing.total_fim_s": self_by["sensing.total_fim"],
        "flight.simulate_s": sum(simulate.values()),
        **{f"flight.simulate_s.{c}": t for c, t in simulate.items()},
        "flight.simulate_calls": sum(calls[f"flight.simulate.{c}"] for c in simulate),
        "flight.us_per_uav_step": 1e6 * sum(simulate.values()) / uav_steps if uav_steps else 0.0,
        "flight.metrics_s": self_by["flight.metrics"],
        "kernels.bytes_out": counters.get("kernels.bytes_out", 0),
        "cli.self_s": self_by[ROOT],
        "cli.trace_bytes": counters.get("cli.trace_bytes", 0),
        "cli.report_bytes": counters.get("cli.report_bytes", 0),
        "trace.coverage": 1.0 - self_by[ROOT] / wall if wall else 0.0,
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over traced iterations of each per-layer metric."""
    rows = []
    first = 0
    spans = tracer.spans
    while first < len(spans):
        it = spans[first].iteration
        last = first
        while last < len(spans) and spans[last].iteration == it:
            last += 1
        # an iteration's spans are contiguous; re-index parents within it
        local = [Span(s.name, s.start, s.end, s.parent - first if s.parent >= 0 else -1, it)
                 for s in spans[first:last]]
        rows.append(iteration_layers(local, tracer.counters.get(it, {})))
        first = last
    if not rows:
        return {}
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

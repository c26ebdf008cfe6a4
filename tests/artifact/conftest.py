"""Shared fixtures: one cached profile per (benchmark, faults) pair.

Profiling is deterministic (simulated clock, seeded injection), so each
configuration is profiled once per session and shared across tests.
"""

from __future__ import annotations

import pytest

from repro.pipeline import (
    aggregate_stage,
    analyze_stage,
    attribute_stage,
    collect_stage,
    compile_stage,
    postmortem_stage,
)
from repro.run_config import RunConfig
from repro.tooling.profiler import ProfileResult, Profiler

#: Small-but-representative configs for the paper's three benchmarks.
BENCHMARKS = ("minimd", "clomp", "lulesh")

#: A plan exercising every degradation channel (tolerant-mode runs).
FAULT_SPEC = "drop=0.05,truncate=0.1:3,tagloss=0.1,strip=0.1,seed=42"

NUM_THREADS = 4
THRESHOLD = 4999


def benchmark_setup(name: str) -> tuple[str, str, dict]:
    """(source, filename, config) for one benchmark."""
    if name == "minimd":
        from repro.bench.programs import minimd

        return (
            minimd.build_source(optimized=False),
            "minimd.chpl",
            minimd.config_for(num_bins=6, per_bin=4, steps=3),
        )
    if name == "clomp":
        from repro.bench.programs import clomp

        return (
            clomp.build_source(optimized=False),
            "clomp.chpl",
            clomp.config_for(num_parts=4, zones_per_part=6, timesteps=3),
        )
    if name == "lulesh":
        from repro.bench.programs import lulesh

        return (
            lulesh.build_source(),
            "lulesh.chpl",
            lulesh.config_for(edge_elems=4, max_steps=2),
        )
    raise ValueError(name)


_CACHE: dict = {}


def profile_benchmark(
    name: str, faults: str | None = None, batch_size: int = RunConfig.batch_size
):
    """Profiles one benchmark (cached per configuration)."""
    key = (name, faults, batch_size)
    if key not in _CACHE:
        source, filename, config = benchmark_setup(name)
        run = RunConfig(
            config=config, num_threads=NUM_THREADS, threshold=THRESHOLD,
            faults=faults, batch_size=batch_size,
        )
        _CACHE[key] = Profiler(source, run, filename=filename).profile()
    return _CACHE[key]


def materialized_benchmark(name: str, faults: str | None = None):
    """The reference the streaming driver is tested against:
    ``collect_stage`` without a sink (the monitor retains the stream),
    the whole stream degraded at once, then ``postmortem_stage``,
    ``attribute_stage`` and ``aggregate_stage`` (cached like
    :func:`profile_benchmark`)."""
    key = ("materialized", name, faults)
    if key not in _CACHE:
        source, filename, config = benchmark_setup(name)
        module = compile_stage(source, filename)
        static = analyze_stage(module)
        coll = collect_stage(
            module, config=config, num_threads=NUM_THREADS, threshold=THRESHOLD
        )
        monitor = coll.monitor
        samples = monitor.samples
        injector = None
        if faults:
            from repro.resilience.faults import FaultPlan
            from repro.resilience.inject import FaultInjector

            injector = FaultInjector(FaultPlan.parse(faults), module=module)
            samples = injector.degrade_samples(samples)
        pm = postmortem_stage(module, samples, options=static.options)
        attribution = attribute_stage(static, pm)
        report = aggregate_stage(
            filename,
            pm,
            attribution,
            wall_seconds=coll.run_result.wall_seconds,
            dataset_bytes=monitor.dataset_size_bytes(),
            stackwalk_cycles=monitor.overhead.stackwalk_cycles_total,
            monitor_quarantine=monitor.quarantine_by_reason(),
        )
        _CACHE[key] = ProfileResult(
            module=module,
            static_info=static,
            monitor=monitor,
            run_result=coll.run_result,
            postmortem=pm,
            attribution=attribution,
            report=report,
            interpreter=coll.interpreter,
            fault_stats=injector.stats if injector is not None else None,
        )
    return _CACHE[key]


@pytest.fixture(params=BENCHMARKS)
def benchmark_name(request):
    return request.param

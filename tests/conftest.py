"""Shared test helpers: compile/run/profile shortcuts with small,
deterministic settings."""

from __future__ import annotations

import pytest

from repro.compiler.lower import compile_source
from repro.runtime.interpreter import Interpreter, RunResult
from repro.sampling.monitor import Monitor
from repro.run_config import RunConfig
from repro.sampling.pmu import PMUConfig
from repro.tooling.profiler import ProfileResult, Profiler


def compile_src(source: str, filename: str = "test.chpl"):
    """Source → verified module."""
    return compile_source(source, filename)


def run_src(
    source: str,
    config: dict | None = None,
    num_threads: int = 4,
    filename: str = "test.chpl",
) -> RunResult:
    """Compile and execute; returns the RunResult."""
    module = compile_source(source, filename)
    return Interpreter(module, config=config, num_threads=num_threads).run()


def output_of(source: str, config: dict | None = None, num_threads: int = 4) -> list[str]:
    return run_src(source, config=config, num_threads=num_threads).output


def profile_src(
    source: str,
    config: dict | None = None,
    num_threads: int = 4,
    threshold: int = 997,
    filename: str = "test.chpl",
    tap=None,
) -> ProfileResult:
    run = RunConfig(config=config, num_threads=num_threads, threshold=threshold)
    return Profiler(source, run, filename=filename).profile(tap=tap)


def sample_src(source: str, **kwargs) -> tuple[ProfileResult, list]:
    """``profile_src`` plus the run's raw sample stream, collected
    through the profiler's tap: (result, samples)."""
    samples: list = []
    return profile_src(source, tap=samples.extend, **kwargs), samples


@pytest.fixture
def small_profile():
    """Factory fixture for profiling small programs."""
    return profile_src

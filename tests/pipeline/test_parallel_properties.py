"""Property tests (hypothesis): *any* contiguous split of the sample
stream, consumed part by part with per-part attributions merged,
equals the one-shot post-mortem — clean and under FaultInjector
degradation, arbitrary uneven splits — and a ``Profiler`` run cut into
1–8 batches reports exactly what the materialized reference reports."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import aggregate_stage, attribute_stage, postmortem_stage
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

from .conftest import (
    FAULT_SPEC,
    NUM_THREADS,
    THRESHOLD,
    benchmark_setup,
    collected,
    consume_in_parts,
)

_SERIAL: dict = {}


def serial_baseline(faults):
    if faults not in _SERIAL:
        module, static, samples, _ = collected("minimd", faults)
        pm = postmortem_stage(module, samples, options=static.options)
        _SERIAL[faults] = (pm, attribute_stage(static, pm))
    return _SERIAL[faults]


@settings(max_examples=25, deadline=None)
@given(
    faults=st.sampled_from([None, FAULT_SPEC]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=7),
)
def test_any_contiguous_split_merges_to_the_serial_result(faults, fractions):
    """Hand-picked (arbitrarily uneven, possibly empty) contiguous parts
    through one streaming consumer, each part's delta attribution merged
    with ``merge_attributions``, reproduce the one-shot result exactly."""
    module, static, samples, _ = collected("minimd", faults)
    cuts = sorted(int(f * len(samples)) for f in fractions)
    bounds = [0] + cuts + [len(samples)]
    parts = [samples[a:b] for a, b in zip(bounds, bounds[1:])]
    assert [s for part in parts for s in part] == samples

    pm, attribution = consume_in_parts(module, static, parts)
    serial_pm, serial_attr = serial_baseline(faults)
    assert pm == serial_pm
    assert attribution == serial_attr


_REFERENCE: dict = {}


def reference_report(faults):
    """``aggregate_stage`` over the one-shot post-mortem of the same
    (degraded) stream: the materialized reference composition."""
    if faults not in _REFERENCE:
        _, _, _, wall = collected("minimd", faults)
        pm, attribution = serial_baseline(faults)
        _REFERENCE[faults] = aggregate_stage(
            "minimd.chpl", pm, attribution, wall_seconds=wall
        )
    return _REFERENCE[faults]


def profiler(faults, batch_size):
    source, filename, config = benchmark_setup("minimd")
    run = RunConfig(
        config=config, num_threads=NUM_THREADS, threshold=THRESHOLD,
        faults=faults, batch_size=batch_size,
    )
    return Profiler(source, run, filename=filename)


@settings(max_examples=16, deadline=None)
@given(
    shards=st.integers(1, 8),
    faults=st.sampled_from([None, FAULT_SPEC]),
)
def test_shard_counts_one_to_eight(shards, faults):
    """The full streaming pipeline with the stream cut into every batch
    count from one to eight, against the materialized reference."""
    # Every run collects the clean stream; degradation comes after.
    n_collected = len(collected("minimd")[2])
    batch = math.ceil(n_collected / shards)
    streamed = profiler(faults, batch).profile()
    report = reference_report(faults)
    assert streamed.monitor.n_samples == n_collected
    assert streamed.report.rows == report.rows
    assert streamed.report.unknown_by_reason == report.unknown_by_reason
    assert streamed.report.quarantine_by_reason == report.quarantine_by_reason
    assert streamed.attribution == serial_baseline(faults)[1]

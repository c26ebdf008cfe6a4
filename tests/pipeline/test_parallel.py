"""The invariants locale-parallel profiling rests on.

The paper parallelizes post-mortem across locales (step 3) and merges
the per-locale results (step 4).  That only holds together if a
locale's profile is a function of its sample stream alone:

* **same stream** — the streaming consumer, fed the *identical*
  (possibly degraded) stream in any number of contiguous batches, with
  each batch's delta attribution merged by ``merge_attributions``,
  equals the one-shot post-mortem and attribution down to every field;
* **cross run** — repeated ``Profiler`` runs in one process collect
  the same stream and persist and render byte-identical artifacts and
  views;
* **merge** — locale shards merge to the same report whether they are
  merged at once or in stages.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.artifact import artifact_bytes, merge_snapshots, snapshot_from_result
from repro.blame.attribution import merge_attributions
from repro.pipeline import (
    VIEWS,
    aggregate_stage,
    analyze_stage,
    attribute_stage,
    compile_stage,
    postmortem_stage,
    render_stage,
)
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

from .conftest import (
    FAULT_SPEC,
    NUM_THREADS,
    THRESHOLD,
    benchmark_setup,
    collected,
    consume_in_parts,
    split_evenly,
)

#: The first Profiler run per configuration (the cross-run reference).
_FIRST: dict = {}
#: One compiled module per benchmark: every run of it shares its
#: instruction ids, so streams and artifacts compare across runs.
_MODULES: dict = {}


def profile(name: str, faults: str | None = None, tap=None):
    source, filename, config = benchmark_setup(name)
    if name not in _MODULES:
        _MODULES[name] = compile_stage(source, filename)
    run = RunConfig(
        config=config, num_threads=NUM_THREADS, threshold=THRESHOLD,
        faults=faults,
    )
    return Profiler(_MODULES[name], run).profile(tap=tap)


def first_run(name: str, faults: str | None = None):
    """(result, raw samples) of the first run of a configuration."""
    key = (name, faults)
    if key not in _FIRST:
        samples = []
        _FIRST[key] = profile(name, faults, tap=samples.extend), samples
    return _FIRST[key]


class TestSameStreamEquality:
    """One-shot vs batch-by-batch over the identical degraded stream."""

    @pytest.mark.parametrize("faults", [None, FAULT_SPEC],
                             ids=["clean", "faulted"])
    @pytest.mark.parametrize("batches", [1, 2, 3, 4, 5, 8])
    def test_postmortem_and_attribution_exact(self, batches, faults):
        module, static, samples, _ = collected("minimd", faults)
        serial_pm = postmortem_stage(module, samples, options=static.options)
        serial_attr = attribute_stage(static, serial_pm)
        parts = split_evenly(samples, batches)
        assert sum(len(p) for p in parts) == len(samples)
        pm, attribution = consume_in_parts(module, static, parts)
        assert pm == serial_pm
        assert attribution == serial_attr

    def test_empty_stream_merges_as_identities(self):
        """Empty batches contribute nothing; no division by the zero
        sample count anywhere in aggregation or rendering."""
        module, static, samples, wall = collected("minimd")
        pm, attribution = consume_in_parts(module, static, [[], [], []])
        assert pm == postmortem_stage(module, [], options=static.options)
        assert attribution.total_samples == 0 and not attribution.rows

        full = attribute_stage(
            static, postmortem_stage(module, samples, options=static.options)
        )
        assert merge_attributions([attribution, full, attribution]) == full

        report = aggregate_stage(
            "minimd.chpl", pm, attribution, wall_seconds=wall
        )
        assert report.stats.total_raw_samples == 0
        assert all(r.blame == 0.0 for r in report.rows)
        empty = SimpleNamespace(report=report, module=module, postmortem=pm)
        for view in ("data", "code", "hybrid"):
            assert render_stage(empty, view)


class TestCrossRunByteIdentity:
    """Repeated runs in one process: stream, artifact and views match."""

    @pytest.mark.parametrize(
        "name,faults,runs",
        [
            ("lulesh", None, 2),
            ("lulesh", None, 4),
            ("minimd", FAULT_SPEC, 2),
            ("minimd", FAULT_SPEC, 3),
        ],
    )
    def test_artifact_and_views(self, name, faults, runs):
        first, first_samples = first_run(name, faults)
        ref = snapshot_from_result(first, canonical_timings=True)
        for _ in range(runs - 1):
            samples = []
            again = profile(name, faults, tap=samples.extend)
            assert samples == first_samples
            snap = snapshot_from_result(again, canonical_timings=True)
            assert artifact_bytes(snap) == artifact_bytes(ref)
            for view in VIEWS:
                assert render_stage(snap, view) == render_stage(ref, view)

    def test_shard_snapshots_remerge_to_the_main_snapshot(self):
        """Locale shards merged in two stages (pairs first, then the
        pair merges) give the report a single merge gives."""
        from repro.tooling.multilocale import profile_locales

        source = """
config const localeId = 0;
config const numLocales = 1;
config const n = 120;
var A: [0..#n] real;
forall i in 0..#n {
  if i % numLocales == localeId {
    A[i] = i * 1.5;
  }
}
"""
        res = profile_locales(
            source, 4, RunConfig(num_threads=2, threshold=997),
            filename="sharded.chpl",
        )
        shards = res.snapshots
        staged = merge_snapshots(
            [
                merge_snapshots(shards[:2], program="sharded.chpl"),
                merge_snapshots(shards[2:], program="sharded.chpl"),
            ],
            program="sharded.chpl",
        )
        assert staged.report.rows == res.merged_snapshot.report.rows
        assert staged.report.stats == res.merged_snapshot.report.stats
        for view in ("data", "code", "hybrid"):
            assert render_stage(staged, view) == render_stage(
                res.merged_snapshot, view
            )


class TestParallelAnalyze:
    """Step 1 analyses each function independently and is a plain
    function of the module: two analyses of one module agree."""

    def test_blame_sets_identical_on_cold_caches(self):
        from repro.compiler.lower import compile_source

        source, filename, _ = benchmark_setup("minimd")
        module = compile_source(source, filename)
        first = analyze_stage(module)
        second = analyze_stage(module)
        assert second is not first
        assert second.module is module
        assert list(second.functions) == list(module.functions)
        assert second.global_aliases == first.global_aliases
        for name, a in first.functions.items():
            b = second.functions[name]
            assert a.blame_sets.by_var == b.blame_sets.by_var, name

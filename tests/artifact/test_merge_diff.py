"""Merging and diffing snapshots/artifacts."""

from __future__ import annotations

import dataclasses

import pytest

from repro.artifact import (
    diff_snapshots,
    merge_snapshots,
    read_artifact,
    render_blame_diff,
    snapshot_from_result,
    write_artifact,
)
from repro.errors import ArtifactError
from repro.pipeline import render_stage
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

from .conftest import benchmark_setup, profile_benchmark


def snap(locale_id=0, sha="a" * 64):
    result = profile_benchmark("minimd")
    return snapshot_from_result(
        result, source_sha256=sha, locale_id=locale_id
    )


def worker_failed_snap(locale_id, lost):
    """A snapshot as the retired worker pool wrote it after a shard's
    worker exhausted its retries: ``worker-failed`` unknown provenance
    plus the pool's counters in the fault-stats record."""
    s = snap(locale_id)
    report = dataclasses.replace(
        s.report,
        stats=dataclasses.replace(s.report.stats, unknown_samples=lost),
        unknown_by_reason={"worker-failed": lost},
    )
    postmortem = dataclasses.replace(
        s.postmortem,
        unknown=[("worker-failed", i) for i in range(lost)],
    )
    return dataclasses.replace(
        s,
        report=report,
        postmortem=postmortem,
        fault_stats={
            "worker_tasks": 4, "worker_retries": 2, "worker_crashes": 2,
            "degraded_shards": 1, "degraded_shard_samples": lost,
        },
    )


class TestMerge:
    def test_single_snapshot_is_the_identity(self):
        s = snap()
        assert merge_snapshots([s]) is s

    def test_single_with_missing_locales_is_not_identity(self):
        s = snap()
        merged = merge_snapshots([s], missing_locales=(1,))
        assert merged is not s
        assert merged.report.missing_locales == (1,)

    def test_empty_merge_refused(self):
        with pytest.raises(ArtifactError, match="no artifacts"):
            merge_snapshots([])

    def test_two_locales_sum(self):
        a, b = snap(locale_id=0), snap(locale_id=1)
        merged = merge_snapshots([a, b], program="minimd.chpl")
        assert merged.meta.kind == "merged"
        assert merged.meta.locale_id == -1
        assert (
            merged.report.stats.user_samples
            == a.report.stats.user_samples + b.report.stats.user_samples
        )
        assert merged.postmortem.n_raw == a.postmortem.n_raw * 2
        assert len(merged.postmortem.instances) == 2 * len(
            a.postmortem.instances
        )

    def test_mixed_sources_refused(self):
        a = snap(sha="a" * 64)
        b = snap(locale_id=1, sha="b" * 64)
        with pytest.raises(ArtifactError, match="different sources"):
            merge_snapshots([a, b])

    def test_merged_artifact_round_trips(self, tmp_path):
        # Locale 1 comes from an artifact the retired worker pool wrote
        # after losing a shard: it still reads, merges and renders, its
        # loss reported in the generic <unknown> footer line.
        legacy = tmp_path / "legacy.cbp"
        write_artifact(str(legacy), worker_failed_snap(1, lost=3))
        merged = merge_snapshots(
            [snap(0), read_artifact(str(legacy))],
            program="minimd.chpl", missing_locales=(2,),
        )
        path = tmp_path / "merged.cbp"
        write_artifact(str(path), merged)
        loaded = read_artifact(str(path))
        assert loaded.meta.kind == "merged"
        assert loaded.report.missing_locales == (2,)
        assert loaded.fault_stats["degraded_shard_samples"] == 3
        for view in ("data", "code", "hybrid"):
            assert render_stage(loaded, view) == render_stage(merged, view)
        footer = [
            line for line in render_stage(loaded, "data").splitlines()
            if "unattributable samples in <unknown>" in line
        ]
        assert len(footer) == 1 and "worker-failed: 3" in footer[0]

    def test_fault_stats_sum(self):
        a, b = snap(0), snap(1)
        fs = {
            "examined": 10, "dropped": 1, "corrupted": 2, "truncated": 3,
            "tags_lost": 0, "stripped": 1, "stripped_functions": ["f"],
        }
        a = dataclasses.replace(a, fault_stats=dict(fs))
        b = dataclasses.replace(
            b, fault_stats={**fs, "stripped_functions": ["g"]}
        )
        merged = merge_snapshots([a, b])
        assert merged.fault_stats["examined"] == 20
        assert merged.fault_stats["truncated"] == 6
        assert merged.fault_stats["stripped_functions"] == ["f", "g"]

    def test_fault_stats_preserve_unknown_counters(self):
        """Counters outside the known set (newer injector modes) must be
        summed, not silently dropped; non-numeric values and bools have
        no meaningful sum and are dropped."""
        a, b = snap(0), snap(1)
        a = dataclasses.replace(
            a,
            fault_stats={
                "examined": 5, "jitter": 3, "enabled": True, "note": "x",
            },
        )
        b = dataclasses.replace(
            b, fault_stats={"examined": 7, "jitter": 4, "skew": 1.5}
        )
        merged = merge_snapshots([a, b])
        assert merged.fault_stats["examined"] == 12
        assert merged.fault_stats["jitter"] == 7
        assert merged.fault_stats["skew"] == 1.5
        assert "enabled" not in merged.fault_stats
        assert "note" not in merged.fault_stats
        # Known counters lead in stable order even when absent from the
        # inputs; unknown ones follow in first-seen order.
        keys = list(merged.fault_stats)
        assert keys[:6] == [
            "examined", "dropped", "corrupted", "truncated", "tags_lost",
            "stripped",
        ]
        assert keys.index("jitter") < keys.index("skew")

    def test_missing_locales_deduped_and_sorted(self):
        a, b = snap(0), snap(1)
        merged = merge_snapshots([a, b], missing_locales=(3, 2, 3, 2))
        assert merged.report.missing_locales == (2, 3)

    def test_missing_locales_union_with_premerged_inputs(self):
        """An input that is itself a merge already carries coverage
        gaps; re-merging unions them with the caller's instead of
        losing or duplicating them."""
        inner = merge_snapshots(
            [snap(0), snap(1)], program="minimd.chpl", missing_locales=(4,)
        )
        outer = merge_snapshots(
            [inner, snap(2)], program="minimd.chpl", missing_locales=(4, 5)
        )
        assert outer.report.missing_locales == (4, 5)

    def test_empty_merge_message_dedupes_missing(self):
        with pytest.raises(ArtifactError, match=r"\[1, 2\]"):
            merge_snapshots([], missing_locales=(2, 1, 2))

    def test_matches_multilocale_harness(self, tmp_path):
        """`repro merge` over the per-locale shards reproduces the
        in-process multi-locale merged report."""
        from repro.tooling.multilocale import profile_locales

        source = """
config const localeId = 0;
config const numLocales = 1;
config const n = 90;
var A: [0..#n] real;
forall i in 0..#n {
  if i % numLocales == localeId {
    A[i] = i * 1.5;
  }
}
"""
        res = profile_locales(
            source,
            2,
            RunConfig(num_threads=2, threshold=997),
            filename="sharded.chpl",
            artifact_dir=str(tmp_path),
        )
        shards = [
            read_artifact(str(tmp_path / f"locale{i}.cbp")) for i in range(2)
        ]
        offline = merge_snapshots(shards, program="sharded.chpl")
        assert render_stage(offline, "data") == render_stage(
            res.merged_snapshot, "data"
        )
        ondisk = read_artifact(str(tmp_path / "merged.cbp"))
        assert render_stage(ondisk, "data") == render_stage(offline, "data")


class TestDiff:
    @pytest.fixture(scope="class")
    def pair(self):
        source, filename, config = benchmark_setup("minimd")
        from repro.bench.programs import minimd

        original = profile_benchmark("minimd")
        optimized = Profiler(
            minimd.build_source(optimized=True),
            RunConfig(config=config, num_threads=4, threshold=4999),
            filename=filename,
        ).profile()
        return (
            snapshot_from_result(original),
            snapshot_from_result(optimized),
        )

    def test_rows_sorted_by_shift_magnitude(self, pair):
        rows = diff_snapshots(*pair)
        assert rows, "expected at least one differing variable"
        deltas = [abs(r.delta) for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_optimization_moves_blame_down(self, pair):
        rows = diff_snapshots(*pair)
        assert rows[0].delta < 0  # the hottest shift is an improvement

    def test_min_delta_filters(self, pair):
        all_rows = diff_snapshots(*pair)
        some = diff_snapshots(*pair, min_delta=0.10)
        assert len(some) < len(all_rows)
        assert all(abs(r.delta) >= 0.10 for r in some)

    def test_self_diff_is_empty_above_zero(self, pair):
        a, _ = pair
        assert diff_snapshots(a, a, min_delta=1e-12) == []

    def test_render_shape(self, pair):
        rows = diff_snapshots(*pair)
        text = render_blame_diff(rows, "original", "optimized", top=5)
        assert "Blame shift: original -> optimized" in text
        assert "pp" in text
        # top=5 -> header + separator + at most 5 rows
        assert len(text.splitlines()) <= 8

"""Artifact round-trip: views rendered from a loaded ``.cbp`` must be
byte-identical to the live render, on all three benchmarks, in both
strict (clean telemetry) and tolerant (degraded telemetry) modes."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.artifact import (
    artifact_bytes,
    read_artifact,
    snapshot_from_result,
    write_artifact,
)
from repro.pipeline import render_stage

from .conftest import FAULT_SPEC, profile_benchmark

VIEWS = ("data", "code", "hybrid", "html")

GOLDEN_DIR = Path(__file__).parent / "golden"


def roundtrip(result, tmp_path, name="run.cbp"):
    snapshot = snapshot_from_result(result)
    path = tmp_path / name
    write_artifact(str(path), snapshot)
    return snapshot, read_artifact(str(path))


class TestCleanRoundTrip:
    @pytest.mark.parametrize("view", VIEWS)
    def test_view_byte_identical(self, benchmark_name, view, tmp_path):
        result = profile_benchmark(benchmark_name)
        _, loaded = roundtrip(result, tmp_path)
        assert render_stage(loaded, view) == render_stage(result, view)

    def test_reencode_is_stable(self, benchmark_name, tmp_path):
        result = profile_benchmark(benchmark_name)
        snapshot, loaded = roundtrip(result, tmp_path)
        assert artifact_bytes(loaded) == artifact_bytes(snapshot)

    def test_counts_survive(self, benchmark_name, tmp_path):
        result = profile_benchmark(benchmark_name)
        _, loaded = roundtrip(result, tmp_path)
        pm = result.postmortem
        assert loaded.postmortem.n_user == pm.n_user
        assert loaded.postmortem.n_raw == pm.n_raw
        assert loaded.postmortem.n_runtime == pm.n_runtime
        assert loaded.report.stats == result.report.stats
        assert len(loaded.postmortem.instances) == len(pm.instances)
        assert loaded.meta.kind == "profile"

    def test_instances_survive_exactly(self, benchmark_name, tmp_path):
        result = profile_benchmark(benchmark_name)
        _, loaded = roundtrip(result, tmp_path)
        assert loaded.postmortem.instances == result.postmortem.instances

    def test_catalog_answers_like_the_module(self, benchmark_name, tmp_path):
        result = profile_benchmark(benchmark_name)
        _, loaded = roundtrip(result, tmp_path)
        for f in result.module.functions.values():
            got = loaded.module.get_function(f.name)
            assert got is not None
            assert got.source_name == f.source_name
            assert got.outlined_from == f.outlined_from
            assert got.is_artificial == f.is_artificial
        assert loaded.module.get_function("no-such-function") is None


class TestTolerantRoundTrip:
    """Degraded runs: provenance, fault stats, and recovered paths all
    survive the disk trip and the views still match byte for byte."""

    @pytest.mark.parametrize("view", VIEWS)
    def test_view_byte_identical(self, benchmark_name, view, tmp_path):
        result = profile_benchmark(benchmark_name, faults=FAULT_SPEC)
        _, loaded = roundtrip(result, tmp_path)
        assert render_stage(loaded, view) == render_stage(result, view)

    def test_degradation_provenance_survives(self, benchmark_name, tmp_path):
        result = profile_benchmark(benchmark_name, faults=FAULT_SPEC)
        snapshot, loaded = roundtrip(result, tmp_path)
        assert (
            loaded.postmortem.unknown_by_reason()
            == snapshot.postmortem.unknown_by_reason()
        )
        assert (
            loaded.postmortem.quarantine_by_reason()
            == snapshot.postmortem.quarantine_by_reason()
        )
        assert loaded.fault_stats == snapshot.fault_stats
        assert loaded.fault_stats["examined"] > 0

    def test_quarantine_rate_matches_live(self, benchmark_name, tmp_path):
        result = profile_benchmark(benchmark_name, faults=FAULT_SPEC)
        _, loaded = roundtrip(result, tmp_path)
        assert loaded.report.stats.quarantine_rate == result.report.stats.quarantine_rate


class TestGolden:
    """The data-centric view of each benchmark is pinned to a golden
    file, and the artifact path must reproduce it exactly — catching
    both profile regressions and encode/decode drift."""

    def golden_path(self, name: str) -> Path:
        return GOLDEN_DIR / f"{name}_data_view.txt"

    def test_live_render_matches_golden(self, benchmark_name):
        result = profile_benchmark(benchmark_name)
        expected = self.golden_path(benchmark_name).read_text()
        assert render_stage(result, "data") + "\n" == expected

    def test_artifact_render_matches_golden(self, benchmark_name, tmp_path):
        result = profile_benchmark(benchmark_name)
        _, loaded = roundtrip(result, tmp_path)
        expected = self.golden_path(benchmark_name).read_text()
        assert render_stage(loaded, "data") + "\n" == expected

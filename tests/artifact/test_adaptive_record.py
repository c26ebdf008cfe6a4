"""The optional ``a`` (adaptive decision trail) artifact record:
presence, byte-stable round-trip, live-vs-replay view identity, and the
forward-minor tolerance contract that lets older readers skip it."""

from __future__ import annotations

import pytest

from repro.artifact.format import (
    artifact_bytes,
    read_artifact,
    write_artifact,
)
from repro.artifact.model import snapshot_from_result
from repro.pipeline.stages import render_stage
from repro.run_config import AdaptiveConfig, RunConfig
from repro.sampling.dataset import check_line, crc_line
from repro.tooling.profiler import Profiler

SOURCE = """
config const n = 400;
config const iters = 20;
var A: [0..#n] real;
var B: [0..#n] real;
var total = 0.0;
for it in 0..#iters {
  forall i in 0..#n {
    A[i] = A[i] + i * 2.0;
  }
  forall i in 0..#n {
    B[i] = B[i] + A[i] * 0.5;
  }
  for i in 0..#n {
    total += A[i];
  }
}
"""


def _profile(adaptive=None, batch_size=RunConfig.batch_size):
    run = RunConfig(
        num_threads=4, threshold=997, batch_size=batch_size, adaptive=adaptive
    )
    return Profiler(SOURCE, run, filename="toy.chpl").profile()


@pytest.fixture(scope="module")
def adaptive_result():
    result = _profile(AdaptiveConfig(ci_width=0.05), batch_size=64)
    assert result.stopped_early  # the artifact under test is truncated
    return result


@pytest.fixture(scope="module")
def plain_result():
    return _profile()


class TestAdaptiveRecord:
    def test_record_present_and_counted(self, adaptive_result, tmp_path):
        snapshot = snapshot_from_result(adaptive_result)
        lines = artifact_bytes(snapshot).decode().splitlines()
        kinds = [check_line(ln)[0] for ln in lines]
        assert "a" in kinds
        assert kinds[-1] == "z"
        _, footer = check_line(lines[-1])
        assert footer["records"] == len(lines)  # footer counts `a` too

    def test_roundtrip_byte_identical(self, adaptive_result, tmp_path):
        snapshot = snapshot_from_result(adaptive_result)
        path = str(tmp_path / "adaptive.cbp")
        write_artifact(path, snapshot)
        loaded = read_artifact(path)
        assert artifact_bytes(loaded) == artifact_bytes(snapshot)
        assert loaded.adaptive == adaptive_result.adaptive.as_dict()

    @pytest.mark.parametrize("view", ["data", "hybrid", "html"])
    def test_views_byte_identical_live_vs_replay(
        self, adaptive_result, tmp_path, view
    ):
        path = str(tmp_path / "adaptive.cbp")
        write_artifact(path, snapshot_from_result(adaptive_result))
        loaded = read_artifact(path)
        assert render_stage(loaded, view) == render_stage(
            adaptive_result, view
        )

    def test_adaptive_footer_actually_renders(self, adaptive_result):
        text = render_stage(adaptive_result, "data")
        assert "~ adaptive: stopped early" in text


class TestForwardCompat:
    def test_plain_artifact_has_no_a_record(self, plain_result):
        lines = (
            artifact_bytes(snapshot_from_result(plain_result))
            .decode()
            .splitlines()
        )
        assert all(check_line(ln)[0] != "a" for ln in lines)

    def test_unknown_optional_kind_is_skipped(self, plain_result, tmp_path):
        """A reader from before a new optional record kind existed must
        read right past it — the same contract that lets pre-adaptive
        readers open adaptively-stopped artifacts."""
        snapshot = snapshot_from_result(plain_result)
        lines = artifact_bytes(snapshot).decode().splitlines()
        # Splice a future optional record in where `a` would sit
        # (before the footer) and fix the footer's record count.
        future = crc_line("y", {"from": "a-future-version"})
        _, footer = check_line(lines[-1])
        footer["records"] += 1
        doctored = lines[:-1] + [future, crc_line("z", footer)]
        path = tmp_path / "future.cbp"
        path.write_text("\n".join(doctored) + "\n")
        loaded = read_artifact(str(path))
        assert loaded.report.rows == snapshot.report.rows
        for view in ("data", "hybrid"):
            assert render_stage(loaded, view) == render_stage(snapshot, view)

    def test_merge_drops_the_trail(self, adaptive_result, tmp_path):
        """Merging is defined over the mandatory sections; a per-run
        decision trail has no meaning for the union, so a real (multi-
        input) merge carries none.  (The single-input merge stays the
        identity it has always been, trail included.)"""
        from repro.artifact import merge_snapshots

        snapshot = snapshot_from_result(adaptive_result)
        assert merge_snapshots([snapshot]).adaptive == snapshot.adaptive
        merged = merge_snapshots([snapshot, snapshot])
        assert merged.adaptive is None

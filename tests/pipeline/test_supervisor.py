"""Artifacts written by the retired supervised worker pool stay readable.

When a pool worker exhausted its retries, the pool folded that shard's
busy samples into ``<unknown>`` with ``worker-failed`` provenance and
stored its counters (``worker_*``, ``degraded_shard*``) in the
fault-stats record.  ``golden/worker_failed.cbp`` is such a file, as the
pool wrote it::

    repro-profile minimd.chpl --threads 4 --threshold 4999 \\
        --config numBins=6 perBin=4 steps=3 neighborEvery=1 \\
        --workers 4 --parallel-backend inline \\
        --inject-faults worker-dead=1 --worker-retries 1 -o worker_failed.cbp

(shard 1 of 4 lost: 32 busy samples).  The serial tool must still read,
re-write, merge and render it, reporting the loss in the generic
``<unknown>`` footer line.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.artifact import (
    artifact_bytes,
    merge_snapshots,
    read_artifact,
    snapshot_from_result,
    write_artifact,
)
from repro.pipeline import render_stage
from repro.run_config import RunConfig
from repro.sampling.dataset import source_digest
from repro.tooling.cli import main as cli_main
from repro.tooling.profiler import Profiler

from .conftest import NUM_THREADS, THRESHOLD, benchmark_setup

GOLDEN = Path(__file__).parent / "golden" / "worker_failed.cbp"

#: Busy samples of the lost shard, as the pool recorded them.
LOST = 32


@pytest.fixture(scope="module")
def legacy():
    return read_artifact(str(GOLDEN))


class TestGracefulDegradation:
    """The lost shard's ledger, footer and counters, as read today."""

    def test_shard_folds_into_unknown_with_provenance(self, legacy):
        report = legacy.report
        assert report.unknown_by_reason == {"worker-failed": LOST}
        assert report.stats.unknown_samples == LOST
        provenance = legacy.postmortem.unknown
        assert len(provenance) == LOST
        assert {reason for reason, _ in provenance} == {"worker-failed"}

    def test_sample_ledger_is_conserved(self, legacy):
        """user + runtime + unknown + quarantined == raw, in the file and
        after merging it with a fresh serial run of the same program."""
        source, filename, config = benchmark_setup("minimd")
        run = RunConfig(config=config, num_threads=NUM_THREADS, threshold=THRESHOLD)
        fresh = Profiler(source, run, filename=filename).profile()
        merged = merge_snapshots(
            [
                legacy,
                snapshot_from_result(
                    fresh, source_sha256=source_digest(source), locale_id=1
                ),
            ],
            program=filename,
        )
        for snap in (legacy, merged):
            st = snap.report.stats
            assert (
                st.user_samples + st.runtime_samples
                + st.unknown_samples + st.quarantined_samples
                == st.total_raw_samples
            )
        assert merged.report.stats.total_raw_samples == (
            legacy.report.stats.total_raw_samples
            + fresh.report.stats.total_raw_samples
        )
        assert merged.report.unknown_by_reason == {"worker-failed": LOST}

    def test_unknown_bucket_carries_the_blame(self, legacy):
        rows = {r.name: r for r in legacy.report.rows}
        assert "<unknown>" in rows
        assert rows["<unknown>"].samples >= LOST
        assert rows["<unknown>"].blame > 0.0

    def test_every_view_shows_the_worker_failed_footer(self, legacy):
        # The code-centric view never prints footers, by design.
        for view in ("data", "hybrid", "html"):
            text = render_stage(legacy, view)
            assert f"worker-failed: {LOST}" in text, view
            assert "whose worker failed" not in text, view

    def test_fault_stats_persist_in_the_artifact(self, legacy, tmp_path):
        fs = legacy.fault_stats
        assert fs["degraded_shards"] == 1
        assert fs["degraded_shard_samples"] == 45
        assert fs["worker_crashes"] == 2  # worker-retries 1 -> two attempts
        assert fs["worker_tasks"] == 4
        path = tmp_path / "again.cbp"
        write_artifact(str(path), legacy)
        assert read_artifact(str(path)).fault_stats == fs

    def test_degraded_artifact_roundtrips(self, legacy, tmp_path):
        # Today's writer reproduces the pool's file byte for byte.
        assert artifact_bytes(legacy) == GOLDEN.read_bytes()
        path = tmp_path / "degraded.cbp"
        write_artifact(str(path), legacy)
        back = read_artifact(str(path))
        assert back.report.unknown_by_reason == legacy.report.unknown_by_reason
        for view in ("data", "code", "hybrid"):
            assert render_stage(back, view) == render_stage(legacy, view)


class TestCLI:
    def test_degraded_run_without_gate_exits_0(self, capsys):
        rc = cli_main(["view", str(GOLDEN), "--view", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"<unknown> (worker-failed: {LOST})" in out

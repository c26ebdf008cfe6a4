"""Dataset persistence + offline analysis tests (the two-process
step-2 → step-3 workflow).  The recorded fixture is a v1 dataset, the
plain JSONL earlier versions wrote: it must still read.  What
``--save-samples`` writes now is the journal, which
tests/resilience/test_journal.py and tests/tooling/test_analyze_cli.py
cover."""

import json

import pytest

from repro.compiler.lower import compile_source
from repro.sampling.dataset import load_samples, scan_journal, source_digest
from repro.tooling.analyze import DatasetMismatch, analyze_dataset
from repro.tooling.cli import main as cli_main
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler

SRC = """
var A: [0..49] real;
proc main() {
  forall i in 0..49 { A[i] = sqrt(i * 1.0) + i * 0.25; }
  writeln("ok");
}
"""


def v1_record(sample) -> dict:
    """One sample as a v1 dataset line spells it."""
    record = {
        "i": sample.index,
        "t": sample.thread_id,
        "k": sample.task_id,
        "s": [list(frame) for frame in sample.stack],
        "ip": sample.leaf_iid,
    }
    if sample.is_idle:
        record["idle"] = True
    if sample.spawn_tag is not None:
        record["tag"] = sample.spawn_tag
        record["pre"] = [list(frame) for frame in sample.pre_spawn_stack or ()]
    return record


def record(tmp_path, source=SRC, threshold=311):
    """Profiles ``source`` and writes its raw samples as a v1 dataset:
    a header line, then one JSON line per sample."""
    module = compile_source(source, "prog.chpl", fresh_ids=True)
    samples = []
    res = Profiler(module, RunConfig(num_threads=4, threshold=threshold)).profile(
        tap=samples.extend
    )
    path = tmp_path / "run.jsonl"
    header = {
        "version": 1,
        "program": "prog.chpl",
        "source_sha256": source_digest(source),
        "threshold": threshold,
        "num_threads": 4,
        "locale_id": 0,
    }
    lines = [header, *(v1_record(s) for s in samples)]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return res, samples, str(path)


class TestRoundTrip:
    def test_samples_survive_save_load(self, tmp_path):
        res, recorded, path = record(tmp_path)
        header, samples = load_samples(path)
        assert header.threshold == 311
        assert len(samples) == res.monitor.n_samples
        assert samples == recorded  # RawSample is a frozen dataclass

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_samples(str(p))

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            load_samples(str(p))


class TestOfflineAnalysis:
    def test_offline_report_matches_online(self, tmp_path):
        res, _samples, path = record(tmp_path)
        module, pm, report = analyze_dataset(path, SRC, "prog.chpl")
        # Same samples, recompiled module with identical ids → the
        # blame report agrees with the in-process one.
        assert report.blame_of("A") == pytest.approx(res.report.blame_of("A"))
        assert pm.n_user == res.postmortem.n_user

    def test_source_hash_mismatch_refused(self, tmp_path):
        _res, _samples, path = record(tmp_path)
        with pytest.raises(DatasetMismatch):
            analyze_dataset(path, SRC + "\n// edited", "prog.chpl")

    def test_fresh_ids_are_deterministic(self):
        m1 = compile_source(SRC, "p.chpl", fresh_ids=True)
        ids1 = [i.iid for _f, i in m1.all_instructions()]
        m2 = compile_source(SRC, "p.chpl", fresh_ids=True)
        ids2 = [i.iid for _f, i in m2.all_instructions()]
        assert ids1 == ids2


class TestCLIWorkflow:
    def test_record_then_analyze_via_clis(self, tmp_path, capsys):
        src_file = tmp_path / "prog.chpl"
        src_file.write_text(SRC)
        ds = tmp_path / "run.jsonl"

        rc = cli_main(
            [str(src_file), "--threads", "4", "--threshold", "311",
             "--save-samples", str(ds)]
        )
        assert rc == 0
        _samples, scan = scan_journal(str(ds))  # --save-samples journals
        assert scan.intact and scan.n_good > 0
        capsys.readouterr()

        from repro.tooling.analyze import main as analyze_main

        rc = analyze_main([str(ds), "--source", str(src_file), "--view", "all"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Data-centric view" in out
        assert "A" in out

    def test_analyze_rejects_wrong_source(self, tmp_path, capsys):
        src_file = tmp_path / "prog.chpl"
        src_file.write_text(SRC)
        ds = tmp_path / "run.jsonl"
        assert cli_main([str(src_file), "--save-samples", str(ds)]) == 0
        capsys.readouterr()

        other = tmp_path / "other.chpl"
        other.write_text("proc main() { }")
        from repro.tooling.analyze import main as analyze_main

        assert analyze_main([str(ds), "--source", str(other)]) == 1
        assert "error" in capsys.readouterr().err

"""Journaled dataset: checksums, corrupt-tail detection, resume."""

import json

import pytest

from repro.errors import DatasetCorruptError
from repro.sampling.dataset import (
    DatasetHeader,
    DatasetJournal,
    crc_line,
    load_journal,
    load_samples,
    sample_line,
    scan_journal,
)
from repro.sampling.records import RawSample


def _header():
    return DatasetHeader(
        program="t.chpl", source_sha256="ab" * 32, threshold=997, num_threads=4
    )


def _samples(n):
    return [
        RawSample(
            index=i,
            thread_id=i % 2,
            task_id=0,
            stack=(("f", 10 + i % 3), ("main", 1)),
            leaf_iid=10 + i % 3,
            spawn_tag=None,
            pre_spawn_stack=None,
        )
        for i in range(n)
    ]


class TestRoundtrip:
    def test_write_and_load(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with DatasetJournal(path, _header()) as j:
            j.extend(_samples(100))
        header, samples, scan = load_journal(path)
        assert header.program == "t.chpl" and header.version == 2
        assert samples == _samples(100)
        assert scan.intact and scan.n_good == 100

    def test_load_samples_detects_journal_format(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with DatasetJournal(path, _header()) as j:
            j.extend(_samples(10))
        header, samples = load_samples(path)
        assert len(samples) == 10 and header.threshold == 997

    def test_empty_journal_has_header_only(self, tmp_path):
        path = str(tmp_path / "empty.journal")
        DatasetJournal(path, _header()).close()
        _, samples, scan = load_journal(path)
        assert samples == [] and scan.intact


class TestCorruptTail:
    def _write(self, tmp_path, n=50):
        path = str(tmp_path / "run.journal")
        with DatasetJournal(path, _header()) as j:
            j.extend(_samples(n))
        return path

    def test_torn_final_line_detected(self, tmp_path):
        path = self._write(tmp_path)
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(lines[:-1])
            f.write(lines[-1][: len(lines[-1]) // 2])  # torn write
        samples, scan = scan_journal(path)
        assert len(samples) == 49
        assert scan.n_corrupt == 1 and not scan.intact
        assert scan.error

    def test_bitflip_mid_file_stops_at_damage(self, tmp_path):
        path = self._write(tmp_path)
        with open(path) as f:
            lines = f.readlines()
        # Flip a digit inside record 20's payload (the record whose
        # sample index is 19); locate it rather than hardcode a line.
        k = next(i for i, ln in enumerate(lines) if '"i": 19' in ln or '"i":19' in ln)
        assert k == 20  # header + 19 good records precede it
        lines[k] = lines[k].replace('"i": 19', '"i": 91').replace('"i":19', '"i":91')
        with open(path, "w") as f:
            f.writelines(lines)
        samples, scan = scan_journal(path)
        assert len(samples) == 19  # good prefix only
        assert scan.n_corrupt == 31  # damaged record + everything after

    def test_strict_load_raises_on_damage(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "a") as f:
            f.write('{"c": 1, "s": {"garbage": true}}\n')
        with pytest.raises(DatasetCorruptError):
            load_journal(path, strict=True)

    def test_damaged_header_is_unrecoverable(self, tmp_path):
        path = self._write(tmp_path)
        with open(path) as f:
            lines = f.readlines()
        lines[0] = lines[0].replace("t.chpl", "x.chpl")
        with open(path, "w") as f:
            f.writelines(lines)
        with pytest.raises(DatasetCorruptError):
            scan_journal(path)


class TestResume:
    def test_resume_after_torn_tail(self, tmp_path):
        path = str(tmp_path / "run.journal")
        first, rest = _samples(80)[:50], _samples(80)[50:]
        with DatasetJournal(path, _header(), flush_every=10) as j:
            j.extend(first)
        # Simulate the kill: tear the last record.
        with open(path, "rb+") as f:
            f.seek(-7, 2)
            f.truncate()
        journal, recovered = DatasetJournal.resume(path)
        assert recovered == first[:49]  # lost exactly the torn record
        journal.extend(rest)
        journal.close()
        _, samples, scan = load_journal(path)
        assert scan.intact
        assert samples == first[:49] + rest

    def test_resume_on_intact_journal_loses_nothing(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with DatasetJournal(path, _header()) as j:
            j.extend(_samples(30))
        journal, recovered = DatasetJournal.resume(path)
        journal.close()
        assert recovered == _samples(30)

    def test_reserialized_record_is_rejected(self, tmp_path):
        # The checksum covers the payload bytes as written, so a record
        # re-serialized with another key order is damage, not a match.
        path = str(tmp_path / "run.journal")
        with DatasetJournal(path, _header()) as j:
            j.extend(_samples(3))
        with open(path) as f:
            lines = f.readlines()
        d = json.loads(lines[1])
        reordered = {"s": d["s"], "c": d["c"]}
        lines[1] = json.dumps(reordered) + "\n"
        with open(path, "w") as f:
            f.writelines(lines)
        _, samples, scan = load_journal(path)
        assert not scan.intact and samples == [] and scan.n_corrupt == 3
        with pytest.raises(DatasetCorruptError):
            load_journal(path, strict=True)


def _sample_to_json(s):
    """The sample record as the dict the journal once dumped per record
    (``crc_line("s", ...)``): the byte-identity reference for
    ``sample_line``."""
    out = {
        "i": s.index,
        "t": s.thread_id,
        "k": s.task_id,
        "s": [[f, iid] for f, iid in s.stack],
        "ip": s.leaf_iid,
    }
    if s.is_idle:
        out["idle"] = True
    if s.spawn_tag is not None:
        out["tag"] = s.spawn_tag
        out["pre"] = [[f, iid] for f, iid in (s.pre_spawn_stack or ())]
    return out


class TestRecordSerializer:
    """``sample_line`` writes the record schema directly; every line must
    equal the key-sorted ``json.dumps`` framing of the record's dict."""

    @staticmethod
    def _reference(sample):
        return crc_line("s", _sample_to_json(sample))

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"is_idle": True, "task_id": -1, "stack": (("__sched_yield", -1),)},
            {"spawn_tag": 7, "pre_spawn_stack": (("main", 3), ("f", 2))},
            {"spawn_tag": 0, "pre_spawn_stack": None},
            {"spawn_tag": 3, "pre_spawn_stack": ()},
            {"stack": ()},
            {"stack": (("é\"\\\n", 1),)},
            {"leaf_iid": -7, "stack": (("__stripped_00002a", 42),)},
        ],
    )
    def test_matches_sorted_json_framing(self, fields):
        base = dict(
            index=4, thread_id=1, task_id=2, stack=(("f", 12), ("main", 1)),
            leaf_iid=12, spawn_tag=None, pre_spawn_stack=None,
        )
        sample = RawSample(**{**base, **fields})
        assert sample_line(sample, {}) == self._reference(sample)

    def test_profiled_stream_matches(self):
        from repro.bench.programs import clomp
        from repro.run_config import RunConfig
        from repro.tooling.profiler import Profiler

        samples = []
        Profiler(
            clomp.build_source(), RunConfig(threshold=499, num_threads=4)
        ).profile(tap=samples.extend)
        assert any(s.is_idle for s in samples)
        assert any(s.spawn_tag is not None for s in samples)
        quoted = {}
        assert [sample_line(s, quoted) for s in samples] == [
            self._reference(s) for s in samples
        ]

"""Columnar decode and CRC framing.

A freshly read artifact keeps its instance section as columns: the
views read ``n_user`` and per-path counts straight off them, and the
:class:`~repro.blame.postmortem.Instance` list is built only when
something walks it.  Every record is checksummed over its payload bytes
exactly as :func:`~repro.sampling.dataset.crc_line` wrote them.
"""

from __future__ import annotations

import json

import pytest

from repro.artifact import (
    artifact_bytes,
    read_artifact,
    snapshot_from_result,
    write_artifact,
)
from repro.blame.postmortem import Instance, count_paths
from repro.errors import ArtifactError, DatasetCorruptError
from repro.sampling.dataset import (
    DatasetHeader,
    DatasetJournal,
    check_line,
    crc_line,
)
from repro.tooling.cli import main as cli_main

from .conftest import FAULT_SPEC, materialized_benchmark, profile_benchmark

FAULTS = (None, FAULT_SPEC)


def written(tmp_path, name, faults):
    """Path of a freshly written artifact of one benchmark run."""
    path = tmp_path / "run.cbp"
    write_artifact(str(path), snapshot_from_result(profile_benchmark(name, faults)))
    return path


@pytest.fixture()
def count_instances(monkeypatch):
    """Counts :class:`Instance` constructions from here on."""
    calls = [0]
    init = Instance.__init__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counting)
    return calls


class TestColumnarDecode:
    @pytest.mark.parametrize("faults", FAULTS)
    def test_path_counts_match_the_instances(self, benchmark_name, faults, tmp_path):
        pm = read_artifact(str(written(tmp_path, benchmark_name, faults))).postmortem
        counts = pm.path_counts()
        want = count_paths(pm.instances)
        assert list(counts.items()) == list(want.items())

    @pytest.mark.parametrize("faults", FAULTS)
    def test_n_user_is_the_instance_count(self, benchmark_name, faults, tmp_path):
        pm = read_artifact(str(written(tmp_path, benchmark_name, faults))).postmortem
        n_user = pm.n_user
        assert n_user == len(pm.instances) > 0

    @pytest.mark.parametrize("faults", FAULTS)
    def test_view_all_builds_no_instance(
        self, benchmark_name, faults, tmp_path, count_instances, capsys
    ):
        path = str(written(tmp_path, benchmark_name, faults))
        count_instances[0] = 0
        assert cli_main(["view", path, "--view", "all"]) == 0
        assert "Code-centric view" in capsys.readouterr().out
        assert count_instances[0] == 0
        # The counter is live: walking the instances builds them all.
        snapshot = read_artifact(path)
        assert len(snapshot.postmortem.instances) == count_instances[0] > 0

    @pytest.mark.parametrize("faults", FAULTS)
    def test_reencode_gives_the_file_bytes(self, benchmark_name, faults, tmp_path):
        path = written(tmp_path, benchmark_name, faults)
        assert artifact_bytes(read_artifact(str(path))) == path.read_bytes()


def artifact_lines(name: str, faults: str | None) -> list[bytes]:
    snapshot = snapshot_from_result(profile_benchmark(name, faults))
    return artifact_bytes(snapshot).splitlines()


def reframings(line: bytes) -> list[bytes]:
    """``line`` re-serialized in other layouts under the same CRC value:
    every one carries the same record, but not the bytes the CRC covers
    in the layout :func:`crc_line` writes."""
    rec = json.loads(line)
    crc = rec["c"]
    (kind,) = [k for k in rec if k != "c"]
    payload = rec[kind]
    out = [
        json.dumps(rec).encode(),  # default ", " / ": " separators
        json.dumps({kind: payload, "c": crc}, separators=(",", ":")).encode(),
        f'{{"c":{crc},"{kind}":{json.dumps(payload)}}}'.encode(),
    ]
    if isinstance(payload, dict) and len(payload) > 1:
        unsorted = json.dumps(
            dict(reversed(list(payload.items()))), separators=(",", ":")
        )
        out.append(f'{{"c":{crc},"{kind}":{unsorted}}}'.encode())
    return [r for r in out if r != line]


class TestFraming:
    @pytest.mark.parametrize("faults", FAULTS)
    def test_every_artifact_record_checks(self, benchmark_name, faults):
        for line in artifact_lines(benchmark_name, faults):
            check_line(line)
            check_line(line.decode())

    def test_every_journal_and_sealed_record_checks(self, benchmark_name, tmp_path):
        monitor = materialized_benchmark(benchmark_name).monitor
        sealed = monitor.sealed_stream().splitlines()
        assert sealed
        for line in sealed:
            assert check_line(line)[0] == "s"
        path = str(tmp_path / "run.journal")
        header = DatasetHeader("p.chpl", "ab" * 32, threshold=997, num_threads=4)
        with DatasetJournal(path, header) as journal:
            journal.extend(monitor.samples)
        with open(path, "rb") as f:
            lines = f.read().splitlines()
        assert len(lines) == len(sealed) + 1
        assert [check_line(ln)[0] for ln in lines] == ["h"] + ["s"] * len(sealed)

    def test_crc_line_output_checks(self):
        for payload in ({}, [], {"b": [1, None], "a": "xé"}, [[0, -1], "\n"]):
            assert check_line(crc_line("q", payload)) == ("q", payload)

    def test_reserialized_records_are_rejected(self, benchmark_name):
        for line in artifact_lines(benchmark_name, None):
            variants = reframings(line)
            assert variants
            for variant in variants:
                with pytest.raises(DatasetCorruptError):
                    check_line(variant)

    def test_artifact_with_a_reserialized_record_is_rejected(
        self, benchmark_name, tmp_path
    ):
        lines = artifact_lines(benchmark_name, None)
        for n in (0, 5, len(lines) - 1):  # header, instances, footer
            for variant in reframings(lines[n]):
                path = tmp_path / "reframed.cbp"
                path.write_bytes(b"\n".join(lines[:n] + [variant] + lines[n + 1:]) + b"\n")
                with pytest.raises(ArtifactError, match=f"record {n + 1}"):
                    read_artifact(str(path))

"""Damaged artifacts must be rejected with the typed
:class:`~repro.errors.ArtifactError` — never a traceback from deep
inside the decoder, and never a silently wrong profile."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.artifact import (
    CBP_VERSION,
    read_artifact,
    snapshot_from_result,
    write_artifact,
)
from repro.errors import ArtifactError, ArtifactVersionError, ReproError
from repro.sampling.dataset import crc_line
from repro.tooling.cli import main as cli_main

from .conftest import profile_benchmark


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    result = profile_benchmark("minimd")
    path = tmp_path_factory.mktemp("cbp") / "base.cbp"
    write_artifact(str(path), snapshot_from_result(result))
    return path


def damaged(tmp_path, lines: list[str]) -> str:
    path = tmp_path / "damaged.cbp"
    path.write_text("\n".join(lines) + "\n" if lines else "")
    return str(path)


class TestFraming:
    def test_error_type_is_typed_and_a_value_error(self):
        assert issubclass(ArtifactError, ReproError)
        assert issubclass(ArtifactError, ValueError)
        assert issubclass(ArtifactVersionError, ArtifactError)

    def test_clean_artifact_reads(self, artifact_path):
        snapshot = read_artifact(str(artifact_path))
        assert snapshot.report.stats.user_samples > 0

    def test_empty_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="empty"):
            read_artifact(damaged(tmp_path, []))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            read_artifact(str(tmp_path / "nope.cbp"))

    def test_not_an_artifact(self, tmp_path):
        with pytest.raises(ArtifactError):
            read_artifact(damaged(tmp_path, ["just some text", "more text"]))


class TestTruncation:
    def test_missing_footer(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        with pytest.raises(ArtifactError, match="truncated"):
            read_artifact(damaged(tmp_path, lines[:-1]))

    def test_missing_interior_record(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        del lines[3]
        with pytest.raises(ArtifactError, match="truncated"):
            read_artifact(damaged(tmp_path, lines))

    def test_header_only(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        with pytest.raises(ArtifactError, match="truncated"):
            read_artifact(damaged(tmp_path, lines[:1]))


class TestBitFlips:
    def test_every_record_is_crc_protected(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        for n in range(len(lines)):
            flipped = list(lines)
            # Flip one character inside the payload (past the CRC field).
            line = flipped[n]
            k = line.rindex(":") + 2
            flipped[n] = line[:k] + ("X" if line[k] != "X" else "Y") + line[k + 1:]
            with pytest.raises(ArtifactError):
                read_artifact(damaged(tmp_path, flipped))

    def test_crc_failure_names_the_record(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        lines[2] = lines[2][:-2] + '"}'
        with pytest.raises(ArtifactError, match="record 3"):
            read_artifact(damaged(tmp_path, lines))


def reframe(kind: str, payload) -> str:
    """A validly-checksummed record with attacker-chosen payload, for
    reaching the structural checks behind the CRC gate."""
    return crc_line(kind, payload)


def with_payload(lines: list[str], kind: str, edit) -> list[str]:
    """``lines`` with the ``kind`` record's payload passed through
    ``edit`` (which mutates it in place) and validly re-framed."""
    out = list(lines)
    for n, line in enumerate(out):
        rec = json.loads(line)
        if kind in rec:
            edit(rec[kind])
            out[n] = reframe(kind, rec[kind])
            return out
    raise AssertionError(f"no {kind!r} record")


class TestStructure:
    def header_payload(self, artifact_path) -> dict:
        line = artifact_path.read_text().splitlines()[0]
        rec = json.loads(line)
        assert zlib.crc32(json.dumps(rec["h"], separators=(",", ":"), sort_keys=True).encode()) == rec["c"]
        return rec["h"]

    def test_bad_magic(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        header = self.header_payload(artifact_path)
        header["magic"] = "not-cbp"
        lines[0] = reframe("h", header)
        with pytest.raises(ArtifactError, match="magic"):
            read_artifact(damaged(tmp_path, lines))

    def test_future_version_is_a_version_error(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        header = self.header_payload(artifact_path)
        header["version"] = CBP_VERSION + 1
        lines[0] = reframe("h", header)
        with pytest.raises(ArtifactVersionError, match="version"):
            read_artifact(damaged(tmp_path, lines))

    def test_duplicate_record(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        lines.insert(2, lines[1])
        # Patch the footer count so the duplicate check (not the
        # truncation check) is what fires.
        lines[-1] = reframe("z", {"records": len(lines)})
        with pytest.raises(ArtifactError, match="duplicate"):
            read_artifact(damaged(tmp_path, lines))

    def test_footer_count_mismatch(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        lines[-1] = reframe("z", {"records": len(lines) + 7})
        with pytest.raises(ArtifactError, match="truncated"):
            read_artifact(damaged(tmp_path, lines))

    def test_dangling_string_index(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        # Shrink the string table to one entry: everything else dangles.
        lines[1] = reframe("t", ["only-entry"])
        with pytest.raises(ArtifactError):
            read_artifact(damaged(tmp_path, lines))

    def test_inconsistent_instance_columns(self, artifact_path, tmp_path):
        lines = artifact_path.read_text().splitlines()
        bad = {"ix": [0, 1], "th": [0], "st": [], "lo": [], "gl": [], "tg": [], "rc": []}
        for n, line in enumerate(lines):
            if json.loads(line).get("i") is not None:
                lines[n] = reframe("i", bad)
                break
        with pytest.raises(ArtifactError, match="inconsistent"):
            read_artifact(damaged(tmp_path, lines))

    def test_unknown_optional_record_is_ignored(self, artifact_path, tmp_path):
        """Forward-minor tolerance: an extra optional section from a
        newer writer does not break this reader."""
        lines = artifact_path.read_text().splitlines()
        lines.insert(-1, reframe("x", {"some": "future section"}))
        lines[-1] = reframe("z", {"records": len(lines)})
        snapshot = read_artifact(damaged(tmp_path, lines))
        assert snapshot.report.stats.user_samples > 0

    def assert_rejected(self, tmp_path, lines, capsys, match):
        """``read_artifact`` raises the typed error at read time, and
        ``view`` exits 1 with a one-line message, naming the path once,
        instead of a trace."""
        path = damaged(tmp_path, lines)
        with pytest.raises(ArtifactError, match=match):
            read_artifact(path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["view", path, "--view", "all"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro-profile: {path}: ") and err.count(path) == 1
        assert "Traceback" not in err

    def test_negative_string_index(self, artifact_path, tmp_path, capsys):
        # A negative index must not wrap around to the table's tail.
        lines = artifact_path.read_text().splitlines()

        def edit(rep):
            rep["rows"]["nm"][0] = -1

        lines = with_payload(lines, "b", edit)
        self.assert_rejected(tmp_path, lines, capsys, "dangling string index -1")

    def test_negative_stack_id(self, artifact_path, tmp_path, capsys):
        lines = artifact_path.read_text().splitlines()

        def edit(cols):
            cols["st"][0] = -1

        lines = with_payload(lines, "i", edit)
        self.assert_rejected(tmp_path, lines, capsys, "dangling stack id -1")

    def test_out_of_range_location_id(self, artifact_path, tmp_path, capsys):
        lines = artifact_path.read_text().splitlines()
        n_locations = len(json.loads(lines[4])["l"])

        def edit(cols):
            cols["lo"][-1] = n_locations

        lines = with_payload(lines, "i", edit)
        self.assert_rejected(
            tmp_path, lines, capsys, f"dangling location id {n_locations}"
        )

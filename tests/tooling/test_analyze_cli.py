"""The journal survives a kill, and `repro-analyze` handles damaged or
missing input: a torn tail is analyzed up to its verified prefix, a
damaged header or a missing file is one line on stderr, never a
traceback."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import DatasetCorruptError
from repro.sampling.dataset import scan_journal
from repro.tooling.analyze import main as analyze_main
from repro.tooling.cli import main as cli_main

SOURCE = """
config const n = 150;
var A: [0..#n] real;
forall i in 0..#n {
  A[i] = i * 2.0;
}
"""


@pytest.fixture()
def recorded(tmp_path, capsys):
    """(source path, journal path) of one complete journaled run."""
    src = tmp_path / "prog.chpl"
    src.write_text(SOURCE)
    journal = tmp_path / "run.journal"
    rc = cli_main(
        [
            "profile", str(src), "--threads", "2", "--threshold", "97",
            "--save-samples", str(journal), "--view", "none",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    return str(src), str(journal)


@pytest.fixture(scope="module")
def killed(tmp_path_factory):
    """(source path, journal path, records verified before the kill) of
    a journaled CLOMP profile SIGKILLed while it was still collecting."""
    from repro.bench.programs import clomp

    work = tmp_path_factory.mktemp("killed")
    src = work / "clomp.chpl"
    src.write_text(clomp.build_source())
    journal = work / "run.journal"
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro.tooling.cli", "profile", str(src),
            "--config", "timesteps=8", "--save-samples", str(journal),
            "--view", "none",
        ],
        env={
            **os.environ,
            "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
        },
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        verified = 0
        while verified < 64 and time.monotonic() < deadline:
            assert child.poll() is None, "the run ended before the kill"
            try:
                verified = scan_journal(str(journal))[1].n_good
            except (FileNotFoundError, DatasetCorruptError):
                pass  # not created, or its header not written yet
            time.sleep(0.02)
        assert verified >= 64
    finally:
        child.kill()  # SIGKILL, mid-collection
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL
    return str(src), str(journal), verified


def test_sigkilled_journal_keeps_a_verified_prefix(killed):
    _src, journal, verified = killed
    samples, scan = scan_journal(journal)  # raises if the header is damaged
    assert scan.header.program.endswith("clomp.chpl")
    assert samples and scan.n_good >= verified
    assert [s.index for s in samples] == list(range(len(samples)))


def test_analyze_sigkilled_journal(killed, capsys):
    src, journal, _verified = killed
    assert analyze_main([journal, "--source", src]) == 0
    out = capsys.readouterr().out
    assert "Data-centric view" in out
    assert "records lost to a torn tail]" in out


def test_torn_tail_analyzes_the_verified_prefix(recorded, capsys):
    src, journal = recorded
    with open(journal, "rb") as f:
        data = f.read()
    n_records = data.count(b"\n") - 1
    with open(journal, "wb") as f:
        f.write(data[:-9])  # the kill tore the last record
    assert analyze_main([journal, "--source", src]) == 0
    out = capsys.readouterr().out
    assert (
        f"[{n_records - 1} journal records verified, "
        "1 records lost to a torn tail]"
    ) in out
    assert f"[{n_records - 1} samples loaded" in out


def test_damaged_header_is_one_line_exit_1(recorded, capsys):
    src, journal = recorded
    with open(journal, "rb") as f:
        data = f.read()
    with open(journal, "wb") as f:
        f.write(data.replace(b"prog.chpl", b"prog.chpX", 1))
    assert analyze_main([journal, "--source", src]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "checksum mismatch" in err


@pytest.mark.parametrize("missing", ["dataset", "source"])
def test_missing_file_is_one_line_exit_2(recorded, tmp_path, missing, capsys):
    src, journal = recorded
    absent = str(tmp_path / "absent")
    argv = [absent if missing == "dataset" else journal,
            "--source", absent if missing == "source" else src]
    assert analyze_main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "No such file" in err


@pytest.mark.parametrize("top", ["0", "-1"])
def test_top_below_one_exits_2(recorded, top, capsys):
    src, journal = recorded
    with pytest.raises(SystemExit) as exc:
        analyze_main([journal, "--source", src, "--top", top])
    assert exc.value.code == 2
    assert f"--top must be >= 1 (got {top})" in capsys.readouterr().err

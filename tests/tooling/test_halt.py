"""A program that calls ``halt()``: ``profile`` and ``advise --profile``
keep the truncated run's artifact and views, then report the halt as
one stderr line and exit 1, ahead of ``--fail-on-quarantine-rate``."""

from __future__ import annotations

import pytest

from repro.tooling.cli import main as cli_main

HALT_MAIN = 'proc main() { writeln("before"); halt("stop here"); writeln("after"); }\n'

HALT_WORKER = """
proc main() {
  forall i in 0..9 {
    if i == 5 then halt("worker halt");
  }
}
"""

#: Halts after a forall that samples densely; with corrupted samples
#: it also trips a quarantine-rate gate of 1%.
HALT_AFTER_WORK = """
config const n = 400;
var A: [0..#n] real;
proc main() {
  forall i in 0..#n { A[i] = i * 2.0; }
  var t = 0.0;
  for i in 0..#n { t += A[i]; }
  writeln(t);
  if n > 0 then halt("done early");
}
"""

RUN = ["--threads", "2", "--threshold", "97"]
QUARANTINE = ["--inject-faults", "corrupt=0.5,seed=3", "--fail-on-quarantine-rate", "0.01"]


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _profile(in_tmp, program, *extra):
    (in_tmp / "prog.chpl").write_text(program)
    return cli_main(["profile", "prog.chpl", "-o", "run.cbp", *RUN, *extra])


@pytest.mark.parametrize(
    "program, message",
    [(HALT_MAIN, "stop here"), (HALT_WORKER, "worker halt")],
    ids=["main", "forall-worker"],
)
def test_halt_exits_1_with_one_line_and_a_readable_artifact(
    in_tmp, capsys, program, message
):
    assert _profile(in_tmp, program, "--show-output") == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"repro-profile: prog.chpl: halted: {message}"]
    assert "Data-centric view" in out
    assert cli_main(["view", "run.cbp"]) == 0
    assert "Data-centric view" in capsys.readouterr().out


def test_halted_output_stops_at_the_halt(in_tmp, capsys):
    _profile(in_tmp, HALT_MAIN, "--show-output")
    out = capsys.readouterr().out
    assert "before" in out and "after" not in out


def test_halt_takes_precedence_over_the_quarantine_gate(in_tmp, capsys):
    assert _profile(in_tmp, HALT_AFTER_WORK, *QUARANTINE, "--view", "none") == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["repro-profile: prog.chpl: halted: done early"]
    # Without the halt the same run trips the gate.
    assert _profile(in_tmp, HALT_AFTER_WORK, *QUARANTINE, "--view", "none",
                    "--config", "n=0") == 3


def test_program_that_does_not_halt_exits_0(in_tmp, capsys):
    program = HALT_MAIN.replace('halt("stop here"); ', "")
    assert _profile(in_tmp, program) == 0
    assert capsys.readouterr().err == ""


def test_advise_profile_reports_the_halt(in_tmp, capsys):
    (in_tmp / "prog.chpl").write_text(HALT_WORKER)
    assert cli_main(["advise", "prog.chpl", "--profile", *RUN]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == ["repro-advise: prog.chpl: halted: worker halt"]
    assert "Advisor report" in out

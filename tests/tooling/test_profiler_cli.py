"""Profiler facade + CLI tests."""

import pytest

from repro.blame.report import build_rows
from repro.pipeline import compile_stage
from repro.run_config import RunConfig
from repro.tooling.cli import _parse_config, main as cli_main
from repro.tooling.profiler import Profiler, run_only

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src

SRC = """
config const n: int = 30;
var A: [0..99] real;
proc main() {
  forall i in 0..n-1 { A[i] = sqrt(i * 1.0); }
  writeln("done");
}
"""

RUN = RunConfig(threshold=311)


class TestProfiler:
    def test_full_pipeline_produces_report(self):
        res = Profiler(SRC, RUN).profile()
        assert res.report.rows
        assert res.report.stats.user_samples > 0
        assert res.run_result.output == ["done"]

    def test_accepts_precompiled_module(self):
        m = compile_src(SRC)
        res = Profiler(m, RUN).profile()
        assert res.report.rows

    def test_config_passthrough(self):
        res = Profiler(SRC, RunConfig(config={"n": 5}, threshold=311)).profile()
        assert res.run_result.output == ["done"]

    def test_fast_mode_runs(self):
        fast = RunConfig(threshold=311, fast=True)
        res = Profiler(SRC, fast).profile()
        assert res.run_result.output == ["done"]
        # A caller's Module may be profiled again unoptimized, so
        # fast=True with one is refused instead of lowering it in place.
        m = compile_stage(SRC, "fast_module.chpl")
        n_instrs = len(list(m.all_instructions()))
        with pytest.raises(ValueError, match="compile_stage"):
            Profiler(m, fast)
        with pytest.raises(ValueError, match="compile_stage"):
            run_only(m, fast)
        assert len(list(m.all_instructions())) == n_instrs

    def test_min_blame_filter(self):
        # min_blame is a presentation cut over the run's rows.
        res = Profiler(SRC, RUN).profile()
        few_rows = build_rows(res.attribution, min_blame=0.3)
        assert len(few_rows) <= len(res.report.rows)
        assert all(r.blame >= 0.3 for r in few_rows)

    def test_run_only_is_faster_path(self):
        r = run_only(SRC)
        assert r.output == ["done"]

    def test_overhead_stats(self):
        res = Profiler(SRC, RUN).profile()
        s = res.report.stats
        assert s.total_raw_samples == s.user_samples + s.runtime_samples
        assert s.dataset_bytes > 0
        assert s.postmortem_seconds >= 0


class TestCLI:
    def test_parse_config(self):
        cfg = _parse_config(["n=5", "scale=1.5", "flag=true", "name=abc"])
        assert cfg == {"n": 5, "scale": 1.5, "flag": True, "name": "abc"}

    def test_parse_config_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad --config entry 'oops'"):
            _parse_config(["oops"])

    def test_cli_end_to_end(self, tmp_path, capsys):
        f = tmp_path / "prog.chpl"
        f.write_text(SRC)
        rc = cli_main(
            [str(f), "--threads", "4", "--threshold", "311", "--view", "all",
             "--config", "n=10", "--show-output"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Data-centric view" in out
        assert "Code-centric view" in out
        assert "blame point" in out
        assert "done" in out

    def test_cli_fast_flag(self, tmp_path, capsys):
        f = tmp_path / "prog.chpl"
        f.write_text(SRC)
        assert cli_main([str(f), "--fast", "--view", "data"]) == 0
        assert "Data-centric view" in capsys.readouterr().out

    def test_cli_html_output(self, tmp_path, capsys):
        f = tmp_path / "prog.chpl"
        f.write_text(SRC)
        out_html = tmp_path / "report.html"
        rc = cli_main(
            [str(f), "--threads", "4", "--threshold", "311", "--html", str(out_html)]
        )
        assert rc == 0
        assert out_html.exists()
        text = out_html.read_text()
        assert "data-centric (variable blame)" in text

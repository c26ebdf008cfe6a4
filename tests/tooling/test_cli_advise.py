"""``advise`` subcommand tests: dispatch, exit-status CI gate, JSON
output, rule/severity filtering, and benchmark resolution."""

import json

import pytest

from repro.blame.static_info import ModuleBlameInfo
from repro.tooling.cli import advise_main, main as cli_main

RACY = """
var total: int;
proc main() {
  forall i in 1..100 {
    total = total + i;
  }
  writeln(total);
}
"""

CLEAN = """
var A: [1..100] int;
proc main() {
  forall i in 1..100 {
    A[i] = i;
  }
  writeln(A[1]);
}
"""


@pytest.fixture
def racy_file(tmp_path):
    f = tmp_path / "racy.chpl"
    f.write_text(RACY)
    return str(f)


@pytest.fixture
def clean_file(tmp_path):
    f = tmp_path / "clean.chpl"
    f.write_text(CLEAN)
    return str(f)


class TestDispatch:
    def test_main_routes_advise_subcommand(self, clean_file, capsys):
        rc = cli_main(["advise", clean_file])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_legacy_positional_profile_still_works(self, clean_file, capsys):
        rc = cli_main([clean_file, "--threads", "2", "--threshold", "311"])
        assert rc == 0
        assert "Data-centric view" in capsys.readouterr().out


class TestExitGate:
    def test_race_exits_nonzero(self, racy_file, capsys):
        rc = advise_main([racy_file])
        assert rc == 1
        out = capsys.readouterr().out
        assert "forall-race" in out
        assert "total" in out

    def test_clean_exits_zero(self, clean_file):
        assert advise_main([clean_file]) == 0

    def test_warnings_do_not_gate(self, capsys):
        # MiniMD original is full of warnings but has no errors.
        assert advise_main(["--benchmark", "minimd:original"]) == 0
        assert "zippered-iteration" in capsys.readouterr().out

    def test_hidden_errors_still_gate(self, racy_file, capsys):
        # Display filtering must not weaken the CI contract.
        rc = advise_main([racy_file, "--min-severity", "error"])
        assert rc == 1


class TestJsonOutput:
    def test_json_contract(self, racy_file, capsys):
        rc = advise_main([racy_file, "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        (d,) = [x for x in payload if x["rule"] == "forall-race"]
        assert d["severity"] == "error"
        assert d["variables"] == ["total"]
        assert d["line"] > 0

    def test_json_empty_list_when_clean(self, clean_file, capsys):
        assert advise_main([clean_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []


class TestSelection:
    def test_rules_subset(self, capsys):
        rc = advise_main(
            ["--benchmark", "minimd:original", "--rules", "zippered-iteration"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "zippered-iteration" in out
        assert "loop-domain-remap" not in out

    def test_min_severity_filters_display(self, capsys):
        advise_main(["--benchmark", "lulesh:original", "--min-severity", "warning"])
        out = capsys.readouterr().out
        assert "param-unroll" not in out
        assert "tuple-temporaries" in out


class TestBenchmarkResolution:
    def test_optimized_minimd_is_clean(self, capsys):
        assert advise_main(["--benchmark", "minimd:optimized"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_spmv_original_fires_comm_advice(self, capsys):
        assert advise_main(["--benchmark", "spmv:original"]) == 0
        out = capsys.readouterr().out
        assert "remote-access-batching" in out
        assert "aggregation-candidate" in out

    COMM_RULES = [
        "remote-access-batching",
        "aggregation-candidate",
        "indirection-hoist",
    ]

    def test_spmv_optimized_is_quiet(self, capsys):
        assert (
            advise_main(
                ["--benchmark", "spmv:optimized", "--rules", *self.COMM_RULES]
            )
            == 0
        )
        assert "no findings" in capsys.readouterr().out

    def test_spmv_dense_variant_resolves(self, capsys):
        assert (
            advise_main(
                ["--benchmark", "spmv:dense", "--rules", *self.COMM_RULES]
            )
            == 0
        )
        assert "no findings" in capsys.readouterr().out

    def test_mttkrp_original_fires_hoist(self, capsys):
        assert advise_main(["--benchmark", "mttkrp"]) == 0
        assert "indirection-hoist" in capsys.readouterr().out

    def test_unknown_spmv_variant_rejected(self):
        with pytest.raises(SystemExit):
            advise_main(["--benchmark", "spmv:blocked"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            advise_main(["--benchmark", "hpl"])

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            advise_main(["--benchmark", "minimd:fastest"])

    def test_source_and_benchmark_mutually_exclusive(self, clean_file):
        with pytest.raises(SystemExit):
            advise_main([clean_file, "--benchmark", "minimd"])

    def test_neither_source_nor_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            advise_main([])


class TestProfileIntegration:
    def test_profile_ranks_and_prints_hybrid(self, capsys, monkeypatch):
        # The advisor reuses the profile's analysis: one build per run.
        builds = []
        init = ModuleBlameInfo.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModuleBlameInfo, "__init__", counting_init)
        rc = advise_main(
            [
                "--benchmark",
                "minimd:original",
                "--profile",
                "--threads",
                "2",
                "--threshold",
                "4999",
            ]
        )
        assert rc == 0
        assert len(builds) == 1
        out = capsys.readouterr().out
        assert "Hybrid view" in out
        assert "advice [" in out
        assert "[blame" in out
        # A bad knob exits 2 with a usage line before anything runs.
        with pytest.raises(SystemExit) as exc:
            advise_main(["--benchmark", "clomp", "--profile", "--threads", "0"])
        assert exc.value.code == 2
        assert "--threads must be >= 1" in capsys.readouterr().err

"""Blame-guided ranker tests: variable ↔ blame-row matching (including
``->name[...]`` path rows) and profile-driven reordering."""

from repro.analysis import Severity, analyze_module, rank_findings
from repro.analysis.diagnostics import Finding
from repro.analysis.ranker import attach_blame, blame_for_variables
from repro.bench.programs import minimd
from repro.blame.report import BlameReport, BlameRow, RunStats
from repro.run_config import RunConfig
from repro.tooling.profiler import Profiler


def row(name, blame, is_path=False, context="main"):
    return BlameRow(
        name=name,
        type_str="real",
        blame=blame,
        context=context,
        samples=int(blame * 1000),
        is_path=is_path,
    )


def report_of(*rows):
    return BlameReport(program="t.chpl", rows=list(rows), stats=RunStats())


def mk(variables, severity=Severity.WARNING, line=1):
    return Finding(
        rule="zippered-iteration",
        severity=severity,
        message="m",
        file="t.chpl",
        line=line,
        function="main",
        variables=tuple(variables),
    )


class TestMatching:
    def test_exact_name(self):
        rep = report_of(row("Pos", 0.4))
        assert blame_for_variables(rep, ("Pos",)) == 0.4

    def test_path_row_prefix(self):
        rep = report_of(row("->Bins[i].f", 0.3, is_path=True))
        assert blame_for_variables(rep, ("Bins",)) == 0.3

    def test_no_false_prefix_match(self):
        # "Pos" must not match the unrelated variable "Position".
        rep = report_of(row("->Position[i]", 0.9, is_path=True))
        assert blame_for_variables(rep, ("Pos",)) is None

    def test_max_over_variables_and_rows(self):
        rep = report_of(
            row("A", 0.1), row("->A[i]", 0.5, is_path=True), row("B", 0.3)
        )
        assert blame_for_variables(rep, ("A", "B")) == 0.5

    def test_attach_preserves_unmatched(self):
        f = attach_blame(mk(("nope",)), report_of(row("A", 0.5)))
        assert f.blame is None

    def test_attach_without_variables_is_identity(self):
        f = mk(())
        assert attach_blame(f, report_of(row("A", 0.5))) is f


class TestRanking:
    def test_blame_orders_within_severity(self):
        rep = report_of(row("hot", 0.8), row("cold", 0.01))
        low = mk(("cold",), line=1)
        high = mk(("hot",), line=2)
        ranked = rank_findings([low, high], rep)
        assert [f.variables[0] for f in ranked] == ["hot", "cold"]
        assert ranked[0].blame == 0.8

    def test_severity_still_dominates_blame(self):
        rep = report_of(row("hot", 0.9))
        warn = mk(("hot",), severity=Severity.WARNING)
        err = mk((), severity=Severity.ERROR, line=9)
        ranked = rank_findings([warn, err], rep)
        assert ranked[0].severity is Severity.ERROR


class TestEndToEnd:
    def test_minimd_findings_pick_up_measured_blame(self):
        result = Profiler(
            minimd.build_source(optimized=False),
            RunConfig(num_threads=4),
            filename="minimd.chpl",
        ).profile()
        findings = analyze_module(result.module)
        ranked = rank_findings(findings, result.report)
        blamed = [f for f in ranked if f.blame is not None]
        # The zippered/slice findings name RealPos/Bins/Pos, all of
        # which carry measured blame in the paper's Table II analogue.
        assert blamed, "no finding matched a measured blame row"
        assert max(f.blame for f in blamed) > 0.0

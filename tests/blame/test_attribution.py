"""Dynamic attribution tests: isBlamed, interprocedural bubbling, exit
variables, transfer-function path composition, aggregation."""

import pytest

from repro.blame.aggregate import merge_reports
from repro.blame.postmortem import process_samples
from repro.blame.report import BlameReport, BlameRow, RunStats, path_type
from repro.chapel.types import REAL, ArrayType, RecordType, TupleType

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import profile_src


class TestDirectBlame:
    def test_hot_global_dominates(self):
        src = """
var A: [0..59] real;
proc main() {
  forall i in 0..59 {
    A[i] = sqrt(i * 1.0) * 2.0 + cos(i * 0.5);
  }
  writeln(A[0]);
}
"""
        res = profile_src(src, threshold=211)
        top = res.report.rows[0]
        assert top.name in ("A", "->A[i]")
        assert res.report.blame_of("A") > 0.5
        assert res.report.row_for("A").context == "main"

    def test_local_variable_context(self):
        src = """
proc work(): real {
  var acc = 0.0;
  for i in 1..400 {
    acc += i * 0.5;
  }
  return acc;
}
proc main() { writeln(work()); }
"""
        res = profile_src(src, threshold=211)
        row = res.report.row_for("acc")
        assert row is not None and row.context == "work"
        assert row.blame > 0.4

    def test_unrelated_variable_not_blamed(self):
        src = """
var HOT: [0..59] real;
var COLD: [0..59] real;
proc main() {
  COLD[0] = 1.0;
  for t in 1..8 {
    forall i in 0..59 {
      HOT[i] = sqrt(i * 1.0) + i * 2.0 + t;
    }
  }
}
"""
        res = profile_src(src, threshold=211)
        assert res.report.blame_of("HOT") > 0.5
        # COLD keeps only its (one-time) allocation + single write.
        assert res.report.blame_of("COLD") < 0.2

    def test_inclusive_blame_can_exceed_100_percent(self):
        src = """
var A: [0..39] real;
var B: [0..39] real;
proc main() {
  forall i in 0..39 {
    A[i] = i * 1.5 + sin(i * 1.0);
    B[i] = A[i] * 2.0;
  }
}
"""
        res = profile_src(src, threshold=211)
        total = res.report.blame_of("A") + res.report.blame_of("B")
        assert total > 1.0  # the paper: totals routinely exceed 100%


class TestBubbling:
    def test_ref_formal_maps_to_caller_local(self):
        src = """
proc fill(ref t: 8*real, e: int) {
  for param k in 0..7 {
    t[k] = e * 1.0 + k + sqrt(k * 1.0 + 1.0);
  }
}
var SINK: [0..99] real;
proc main() {
  forall e in 0..99 {
    var b_x: 8*real;
    fill(b_x, e);
    var s = 0.0;
    for param k in 0..7 { s += b_x[k]; }
    SINK[e] = s;
  }
}
"""
        res = profile_src(src, threshold=211)
        row = res.report.row_for("b_x")
        assert row is not None
        assert row.context == "main"
        assert row.blame > 0.1

    def test_return_value_blames_receiver(self):
        src = """
proc expensive(x: real): real {
  var acc = 0.0;
  for i in 1..40 { acc += sqrt(x + i); }
  return acc;
}
var R: [0..19] real;
proc main() {
  forall i in 0..19 {
    R[i] = expensive(i * 1.0);
  }
}
"""
        res = profile_src(src, threshold=211)
        # samples inside `expensive` bubble through $ret to R
        assert res.report.blame_of("R") > 0.3

    def test_class_field_paths_compose_across_calls(self):
        src = """
record Zone { var value: real; }
class Part { var residue: real; var zoneArray: [?] Zone; }
var parts: [0..3] Part;
proc update(p: Part) {
  for j in 0..29 {
    p.zoneArray[j].value = p.zoneArray[j].value * 0.5 + 1.0;
  }
}
proc main() {
  for i in 0..3 {
    var z: [0..29] Zone;
    parts[i] = new Part(0.0, z);
  }
  for t in 1..15 {
    forall i in 0..3 { update(parts[i]); }
  }
}
"""
        res = profile_src(src, threshold=311)
        assert res.report.blame_of("parts") > 0.5
        assert res.report.blame_of("->parts[i].zoneArray[j].value") > 0.4
        # hierarchy rows agree in ordering
        assert res.report.blame_of("parts") >= res.report.blame_of(
            "->parts[i].zoneArray[j].value"
        )

    def test_globals_recorded_once_under_main(self):
        src = """
var G: [0..49] real;
proc level2() {
  forall i in 0..49 { G[i] = G[i] + sqrt(i * 1.0); }
}
proc level1() { level2(); }
proc main() {
  for t in 1..4 { level1(); }
}
"""
        res = profile_src(src, threshold=211)
        rows = [r for r in res.report.rows if r.name == "G"]
        assert len(rows) == 1
        assert rows[0].context == "main"
        assert rows[0].blame <= 1.0


class TestTemporaries:
    def test_temps_hidden_by_default(self):
        src = """
proc main() {
  var x = 3;
  select x { when 3 { writeln("three"); } }
  var s = 0.0;
  for i in 1..200 { s += i * 1.0; }
}
"""
        res = profile_src(src, threshold=211)
        assert all(not r.name.startswith("_") for r in res.report.rows)

    def test_temps_trackable_when_requested(self):
        from repro.blame.report import build_rows

        src = """
var A: [0..29] real;
proc main() {
  forall i in 0..29 { A[i] = i * 2.0; }
}
"""
        res = profile_src(src, threshold=211)
        rows = build_rows(res.attribution, include_temps=True)
        assert any(r.name.startswith("_") for r in rows)


class TestReportStructures:
    def test_rows_sorted_descending(self):
        src = """
var A: [0..49] real;
proc main() {
  forall i in 0..49 { A[i] = i * 1.0 + sqrt(i + 1.0); }
}
"""
        res = profile_src(src, threshold=211)
        samples = [r.samples for r in res.report.rows]
        assert samples == sorted(samples, reverse=True)

    def test_path_type(self):
        zone = RecordType("Zone", (("value", REAL),))
        part = RecordType(
            "Part", (("zoneArray", ArrayType(zone, 1)),), is_class=True
        )
        arr = ArrayType(part, 1)
        p = (("index",), ("cfield", "zoneArray"), ("index",), ("field", "value"))
        assert path_type(arr, p) == REAL
        assert path_type(TupleType((REAL, REAL)), (("index",),)) == REAL
        assert path_type(REAL, (("field", "x"),)) is None

    def test_merge_reports(self):
        row = BlameRow("v", "real", 0.5, "main", 10, False)
        s1 = RunStats(user_samples=20, total_raw_samples=25)
        s2 = RunStats(user_samples=20, total_raw_samples=30)
        r1 = BlameReport("p", [row], s1, locale_id=0)
        r2 = BlameReport(
            "p", [BlameRow("v", "real", 1.0, "main", 20, False)], s2, locale_id=1
        )
        merged = merge_reports([r1, r2])
        assert merged.stats.user_samples == 40
        assert merged.rows[0].samples == 30
        assert merged.rows[0].blame == pytest.approx(0.75)

    def test_merge_single_passthrough(self):
        r = BlameReport("p", [], RunStats())
        assert merge_reports([r]) is r

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_reports([])

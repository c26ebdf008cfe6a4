"""Interpreter behavior tests: program semantics, arrays/records/
domains at runtime, parallelism, errors, determinism, run-result edge
cases, and the runtime package's module-level state."""

import ast
import pathlib

import pytest

from repro.runtime.builtins import ProgramHalt
from repro.runtime.interpreter import ExecutionError, Interpreter
from repro.runtime.values import RuntimeError_
from repro.compiler.lower import compile_source
from repro.sampling.monitor import Monitor
from repro.sampling.pmu import PMUConfig

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import output_of, run_src


class TestArrays:
    def test_array_init_and_sum(self):
        src = """
var A: [0..9] int;
proc main() {
  for i in 0..9 { A[i] = i; }
  writeln(+ reduce A);
}
"""
        assert output_of(src) == ["45"]

    def test_2d_array(self):
        src = """
var D: domain(2) = {0..2, 0..2};
var M: [D] real;
proc main() {
  forall (i, j) in D { M[i, j] = i * 3.0 + j; }
  writeln(M[2, 2], M[0, 1]);
}
"""
        assert output_of(src) == ["8.0 1.0"]

    def test_negative_bounds(self):
        src = """
var G: [0-2..2] int;
proc main() {
  for i in 0-2..2 { G[i] = i * i; }
  writeln(G[0-2], G[0], G[2]);
}
"""
        assert output_of(src) == ["4 0 4"]

    def test_array_copy_semantics_on_var_init(self):
        src = """
var A: [0..3] int;
proc main() {
  for i in 0..3 { A[i] = i; }
  var B = A;
  B[0] = 99;
  writeln(A[0], B[0]);
}
"""
        assert output_of(src) == ["0 99"]

    def test_slice_alias_semantics(self):
        src = """
var A: [0..9] int;
proc main() {
  var S = A[3..5];
  S[4] = 42;
  writeln(A[4]);
}
"""
        assert output_of(src) == ["42"]

    def test_array_assignment_copies_elements(self):
        src = """
var A: [0..2] int;
var B: [0..2] int;
proc main() {
  for i in 0..2 { A[i] = i + 1; }
  B = A;
  A[0] = 77;
  writeln(B[0], B[1], B[2]);
}
"""
        assert output_of(src) == ["1 2 3"]

    def test_reindex_view(self):
        src = """
var A: [0..4] real;
proc main() {
  var V = A.reindex({100..104});
  V[102] = 3.5;
  writeln(A[2]);
}
"""
        assert output_of(src) == ["3.5"]

    def test_out_of_bounds_raises(self):
        src = """
var A: [0..4] int;
proc main() { A[7] = 1; }
"""
        with pytest.raises(ExecutionError, match="out of bounds"):
            run_src(src)

    def test_array_of_arrays(self):
        src = """
var Rows: [0..2] [0..3] real;
proc main() {
  for i in 0..2 {
    var row: [0..3] real;
    for j in 0..3 { row[j] = i * 10.0 + j; }
    Rows[i] = row;
  }
  writeln(Rows[1][2]);
}
"""
        with pytest.raises(ExecutionError):
            # inner descriptors default to nil: assigning into Rows[i]
            # requires element copy into a nil array
            run_src(src)


class TestRecordsAndClasses:
    def test_record_value_semantics(self):
        src = """
record P { var x: real; var y: real; }
proc main() {
  var a = new P(1.0, 2.0);
  var b = a;
  b.x = 99.0;
  writeln(a.x, b.x);
}
"""
        assert output_of(src) == ["1.0 99.0"]

    def test_class_reference_semantics(self):
        src = """
class C { var v: int; }
proc main() {
  var a = new C(5);
  var b = a;
  b.v = 42;
  writeln(a.v);
}
"""
        assert output_of(src) == ["42"]

    def test_record_defaults_fill_missing_args(self):
        src = """
record R { var a: int; var b: real; var c: bool; }
proc main() {
  var r = new R(7);
  writeln(r.a, r.b, r.c);
}
"""
        assert output_of(src) == ["7 0.0 false"]

    def test_nil_class_field_access_raises(self):
        src = """
class C { var v: int; }
var g: C = nilC();
proc nilC(): C { var arr: [0..0] C; return arr[0]; }
proc main() { writeln(g.v); }
"""
        with pytest.raises(ExecutionError, match="nil"):
            run_src(src)

    def test_array_of_records(self):
        src = """
record Zone { var value: real; }
var Z: [0..3] Zone;
proc main() {
  Z[2].value = 8.5;
  writeln(Z[2].value, Z[1].value);
}
"""
        assert output_of(src) == ["8.5 0.0"]

    def test_record_elements_are_distinct(self):
        src = """
record Zone { var value: real; }
var Z: [0..3] Zone;
proc main() {
  Z[0].value = 1.0;
  writeln(Z[1].value);
}
"""
        assert output_of(src) == ["0.0"]


class TestTuples:
    def test_tuple_arithmetic(self):
        src = """
proc main() {
  var a = (1.0, 2.0, 3.0);
  var b = (10.0, 20.0, 30.0);
  var c = a + b * 2.0;
  writeln(c[0], c[1], c[2]);
}
"""
        assert output_of(src) == ["21.0 42.0 63.0"]

    def test_tuple_value_semantics(self):
        src = """
proc main() {
  var a = (1.0, 2.0);
  var b = a;
  b[0] = 9.0;
  writeln(a[0]);
}
"""
        assert output_of(src) == ["1.0"]

    def test_nested_tuple_write(self):
        src = """
proc main() {
  var h: 2*(3*real);
  h[1][2] = 5.5;
  writeln(h[1][2], h[0][0]);
}
"""
        assert output_of(src) == ["5.5 0.0"]

    def test_dynamic_tuple_index(self):
        src = """
proc main() {
  var t = (10, 20, 30);
  var s = 0;
  for i in 0..2 { s += t[i]; }
  writeln(s);
}
"""
        assert output_of(src) == ["60"]

    def test_tuple_index_out_of_range(self):
        src = "proc main() { var t = (1, 2); var i = 5; writeln(t[i]); }"
        with pytest.raises(ExecutionError, match="out of range"):
            run_src(src)


class TestParallelism:
    def test_forall_covers_all_indices(self):
        src = """
var A: [0..99] int;
proc main() {
  forall i in 0..99 { A[i] = i; }
  writeln(+ reduce A);
}
"""
        assert output_of(src, num_threads=8) == ["4950"]

    def test_coforall_one_task_per_index(self):
        src = """
var A: [0..3] int;
proc main() {
  coforall t in 0..3 { A[t] = t * 10; }
  writeln(A[0], A[1], A[2], A[3]);
}
"""
        assert output_of(src) == ["0 10 20 30"]

    def test_nested_forall(self):
        src = """
var D: domain(2) = {0..3, 0..3};
var M: [D] int;
proc main() {
  forall i in 0..3 {
    forall j in 0..3 { M[i, j] = i + j; }
  }
  writeln(+ reduce M);
}
"""
        assert output_of(src) == ["48"]

    def test_zippered_forall(self):
        src = """
var A: [0..9] real;
var B: [0..9] real;
proc main() {
  forall i in 0..9 { A[i] = i * 1.0; }
  forall (b, a) in zip(B, A) { b = a * 2.0; }
  writeln(+ reduce B);
}
"""
        assert output_of(src) == ["90.0"]

    def test_empty_forall(self):
        src = """
proc main() {
  forall i in 5..4 { writeln("never"); }
  writeln("done");
}
"""
        assert output_of(src) == ["done"]

    def test_results_independent_of_thread_count(self):
        src = """
var A: [0..49] real;
proc main() {
  forall i in 0..49 { A[i] = sqrt(i * 1.0); }
  writeln(+ reduce A);
}
"""
        outs = {tuple(output_of(src, num_threads=n)) for n in (1, 3, 12)}
        assert len(outs) == 1


class TestErrorsAndHalt:
    def test_division_by_zero(self):
        src = "proc main() { var z = 0; writeln(5 / z); }"
        with pytest.raises(ExecutionError, match="division by zero"):
            run_src(src)

    def test_halt(self):
        src = 'proc main() { halt("boom"); }'
        r = run_src(src)
        assert r.halted and "boom" in r.halt_message

    def test_assert_true_passes_and_fails(self):
        assert output_of('proc main() { assertTrue(1 < 2); writeln("ok"); }') == ["ok"]
        with pytest.raises(ExecutionError, match="assertion failed"):
            run_src('proc main() { assertTrue(2 < 1, "nope"); }')

    def test_error_carries_stack(self):
        src = """
proc inner() { var z = 0; writeln(1 / z); }
proc outer() { inner(); }
proc main() { outer(); }
"""
        with pytest.raises(ExecutionError) as exc:
            run_src(src)
        msg = str(exc.value)
        assert "inner" in msg and "outer" in msg and "main" in msg


class TestDeterminismAndStats:
    SRC = """
var A: [0..29] real;
proc main() {
  forall i in 0..29 { A[i] = i * 0.5 + sin(i * 1.0); }
  writeln(+ reduce A);
}
"""

    def test_repeat_runs_identical(self):
        r1 = run_src(self.SRC, num_threads=6)
        r2 = run_src(self.SRC, num_threads=6)
        assert r1.output == r2.output
        assert r1.wall_seconds == r2.wall_seconds
        assert r1.instructions_executed == r2.instructions_executed

    def test_stats_populated(self):
        r = run_src(self.SRC, num_threads=6)
        assert r.wall_seconds > 0
        assert r.total_cycles > 0
        assert r.instructions_executed > 0
        assert 0 < r.cpu_utilization <= 1.0

    def test_heap_tracks_allocations(self):
        r = run_src("var A: [0..999] real;\nproc main() { }")
        assert r.heap.allocation_count >= 1
        assert r.heap.total_bytes >= 8000

    def test_timer_monotone(self):
        src = """
proc main() {
  var t0 = getCurrentTime();
  var s = 0.0;
  for i in 1..500 { s += i * 0.5; }
  var t1 = getCurrentTime();
  if t1 > t0 { writeln("monotone"); } else { writeln("broken"); }
}
"""
        assert output_of(src) == ["monotone"]


class TestBuiltins:
    def test_math(self):
        src = "proc main() { writeln(sqrt(16.0), abs(0 - 3), max(2, 9), min(2.5, 1.5)); }"
        assert output_of(src) == ["4.0 3 9 1.5"]

    def test_to_int_to_real(self):
        assert output_of("proc main() { writeln(toInt(3.7), toReal(2)); }") == ["3 2.0"]

    def test_max_task_par(self):
        assert output_of("proc main() { writeln(maxTaskPar()); }", num_threads=7) == ["7"]

    def test_write_then_writeln_joins(self):
        src = 'proc main() { write("a"); writeln("b"); writeln("c"); }'
        assert output_of(src) == ["ab", "c"]


THRESHOLD = 997
THREADS = 4

SRC = """
config const n = 160;
var A: [0..n-1] real;
proc main() {
  forall i in 0..n-1 {
    var acc = 0.0;
    for j in 0..7 { acc += i * 1.0 + j; }
    A[i] = acc;
  }
  var total = 0.0;
  for i in 0..n-1 { total += A[i]; }
  writeln(total);
}
"""


def _module():
    return compile_source(SRC, "ckpt.chpl")


def _serial(module):
    monitor = Monitor(PMUConfig(threshold=THRESHOLD))
    interp = Interpreter(
        module,
        num_threads=THREADS,
        monitor=monitor,
        sample_threshold=THRESHOLD,
    )
    return monitor, interp.run()


class TestRunResultEdges:
    """S2: build_run_result on runs that never (or barely) executed."""

    def test_fresh_interpreter_builds_a_zeroed_result(self):
        # The adaptive driver may unwind before the first quantum; the
        # result must reflect "nothing ran", not raise.
        interp = Interpreter(_module(), num_threads=THREADS)
        result = interp.build_run_result()
        assert result.wall_seconds == 0.0
        assert result.total_cycles == 0.0
        assert result.idle_cycles == 0.0
        assert result.busy_cycles == 0.0
        assert result.output == []

    def test_no_threads_builds_a_zeroed_result(self):
        interp = Interpreter(_module(), num_threads=THREADS)
        interp.scheduler.threads = []
        result = interp.build_run_result()
        assert result.wall_seconds == 0.0
        assert result.cpu_utilization == 1.0


RUNTIME_DIR = (
    pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "runtime"
)

#: Module-level names in src/repro/runtime that are allowed to hold
#: container values.  Everything here is write-once (built at import,
#: only ever read) — a new entry needs the same justification.
ALLOWED_MODULE_CONTAINERS = {
    ("__init__.py", "__all__"),
    ("builtins.py", "BUILTINS"),
    ("engine.py", "_TRANSFERS"),
    ("engine.py", "_CMP_FNS"),
    ("engine.py", "_ARITH_FNS"),
}


class TestRuntimeModuleState:
    """S1: the runtime package holds no hidden cross-run state."""

    def test_no_unexpected_module_level_containers(self):
        offenders = []
        for path in sorted(RUNTIME_DIR.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None or isinstance(value, ast.Constant):
                    continue
                for tgt in targets:
                    name = getattr(tgt, "id", None)
                    if name is None:
                        continue
                    if isinstance(
                        value,
                        (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.Call),
                    ) and (path.name, name) not in ALLOWED_MODULE_CONTAINERS:
                        # Calls to immutable constructors are fine.
                        if (
                            isinstance(value, ast.Call)
                            and getattr(value.func, "id", "")
                            in ("frozenset", "CostModel", "attrgetter")
                        ):
                            continue
                        offenders.append(f"{path.name}:{node.lineno} {name}")
        assert offenders == []

    def test_default_cost_model_is_immutable(self):
        from repro.runtime.costmodel import DEFAULT_COST_MODEL

        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.store = 999  # type: ignore[misc]

    def test_id_counters_are_per_scheduler(self):
        from repro.runtime.tasking import Scheduler

        a, b = Scheduler(num_threads=2), Scheduler(num_threads=2)
        assert a.next_task_id() == b.next_task_id()
        assert a.next_spawn_tag() == b.next_spawn_tag()

    def test_collection_twice_in_one_process_is_byte_identical(self):
        # The end-to-end S1 regression: with per-instance counters,
        # repeating a collection inside one process reproduces the
        # stream byte for byte (task ids and all).
        module = _module()
        first, first_result = _serial(module)
        second, second_result = _serial(module)
        assert first.sealed_stream() == second.sealed_stream()
        assert first_result.output == second_result.output
        assert (
            first_result.instructions_executed
            == second_result.instructions_executed
        )

"""Fast-engine vs generic-loop equivalence.

The fast engine (register-only steps run in straight-line stretches
with their accounting held in locals) must be observationally
identical to ``_run_quantum_generic``: same program output, same cycle
counts, same instruction counts, and a bit-for-bit identical sample
stream — including under skid and skid compensation, and in the
idle-heavy regimes where threads outnumber tasks.  ``TestStretchEdges``
checks the edges of a stretch: a step that raises, a sample that stops
the run, skid, icache penalties, tuple arithmetic and lazily created
global cells.

Every comparison shares ONE compiled module between both runs:
instruction ids come from a process-global counter, so separately
compiled copies of the same source get offset iids and cannot be
compared sample-for-sample.
"""

import pytest

from repro.compiler.lower import compile_source
from repro.ir import instructions as I
from repro.runtime.interpreter import ExecutionError, Interpreter
from repro.sampling.monitor import Monitor, StopSampling
from repro.sampling.pmu import PMUConfig

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))


MIXED_SRC = """
record Pt { var x: real; var y: real; }
var G: [0..63] real;
var total: real;
proc bump(ref p: Pt, s: real) {
  p.x = p.x + s;
  p.y = p.y - s / 2.0;
}
proc main() {
  var p: Pt;
  for i in 0..63 { G[i] = i * 1.5; }
  forall i in 0..63 {
    G[i] = G[i] * 2.0 + i % 3;
  }
  for i in 0..31 {
    bump(p, G[i]);
  }
  var acc = 0.0;
  for (i, g) in zip(0..63, G) { acc = acc + g * (i + 1); }
  total = acc + p.x * p.y;
  writeln(total);
}
"""

SPAWN_HEAVY_SRC = """
var A: [0..127] int;
proc main() {
  coforall t in 0..7 {
    for i in 0..15 { A[t * 16 + i] = t * i; }
  }
  var s = 0;
  for i in 0..127 { s = s + A[i]; }
  writeln(s);
}
"""


def run_with(module, engine, *, config=None, num_threads=4, threshold=None,
             skid=0, skid_compensation=False):
    monitor = Monitor(PMUConfig(threshold=threshold)) if threshold else None
    interp = Interpreter(
        module,
        config=config,
        num_threads=num_threads,
        monitor=monitor,
        sample_threshold=threshold,
        skid=skid,
        skid_compensation=skid_compensation,
        engine=engine,
    )
    result = interp.run()
    stream = (
        [(s.thread_id, s.leaf_iid, tuple(s.stack)) for s in monitor.samples]
        if monitor
        else None
    )
    return result, stream


def assert_equivalent(module, **kwargs):
    fast, fast_stream = run_with(module, "fast", **kwargs)
    gen, gen_stream = run_with(module, "generic", **kwargs)
    assert fast.output == gen.output
    assert fast.total_cycles == gen.total_cycles
    assert fast.idle_cycles == gen.idle_cycles
    assert fast.busy_cycles == gen.busy_cycles
    assert fast.instructions_executed == gen.instructions_executed
    assert fast_stream == gen_stream


class TestEngineEquivalence:
    def test_mixed_program_no_sampling(self):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        assert_equivalent(module)

    def test_mixed_program_sampled(self):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        assert_equivalent(module, threshold=97)

    def test_sampled_with_skid(self):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        assert_equivalent(module, threshold=97, skid=3)

    def test_sampled_with_skid_compensation(self):
        module = compile_source(MIXED_SRC, "mixed.chpl")
        assert_equivalent(module, threshold=97, skid=3, skid_compensation=True)

    def test_idle_heavy_many_threads(self):
        # More threads than tasks: most scheduler picks are idle ticks,
        # exercising the batched idle-stretch path and its idle samples.
        module = compile_source(SPAWN_HEAVY_SRC, "spawny.chpl")
        assert_equivalent(module, num_threads=12, threshold=53)

    def test_single_thread(self):
        module = compile_source(SPAWN_HEAVY_SRC, "spawny.chpl")
        assert_equivalent(module, num_threads=1, threshold=101)


class TestEngineErrors:
    def test_division_by_zero_message_matches(self):
        src = """
proc main() {
  var d = 0;
  writeln(1.0 / d);
}
"""
        module = compile_source(src, "err.chpl")
        msgs = []
        for engine in ("fast", "generic"):
            with pytest.raises(ExecutionError) as exc:
                Interpreter(module, num_threads=2, engine=engine).run()
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]

    def test_out_of_bounds_message_matches(self):
        src = """
var A: [0..3] int;
proc main() {
  for i in 0..9 { A[i] = i; }
}
"""
        module = compile_source(src, "oob.chpl")
        msgs = []
        for engine in ("fast", "generic"):
            with pytest.raises(ExecutionError) as exc:
                Interpreter(module, num_threads=2, engine=engine).run()
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]

    def test_faulting_instruction_counted_identically(self):
        src = """
proc main() {
  var d = 0;
  var x = 5 / d;
}
"""
        module = compile_source(src, "fault.chpl")
        counts = []
        for engine in ("fast", "generic"):
            interp = Interpreter(module, num_threads=2, engine=engine)
            with pytest.raises(ExecutionError):
                interp.run()
            counts.append(interp.instructions_executed)
        assert counts[0] == counts[1]


class TestEngineSelection:
    def test_fast_is_default(self):
        module = compile_source("proc main() { writeln(1); }", "tiny2.chpl")
        interp = Interpreter(module, num_threads=1)
        assert interp._fast_engine is not None
        assert interp.run().output == ["1"]

    def test_generic_engine_chosen_by_name_alone(self):
        # `engine=` alone picks the loop: "generic" never builds the
        # fast engine and runs the reference dispatch loop.
        module = compile_source("proc main() { writeln(1); }", "tiny4.chpl")
        interp = Interpreter(module, num_threads=1, engine="generic")
        assert interp._fast_engine is None
        assert interp.run().output == ["1"]

    @pytest.mark.parametrize("name", ["Fast", "fast ", "closure", ""])
    def test_unknown_engine_name_rejected(self, name):
        # A misspelt name must not silently run the (slower) oracle.
        module = compile_source("proc main() { writeln(1); }", "tiny3.chpl")
        with pytest.raises(ValueError, match="unknown engine"):
            Interpreter(module, num_threads=1, engine=name)


#: Straight-line padding: 120 register-only instructions in main's
#: entry block, so whatever follows it runs deep inside a stretch that
#: has already crossed a quantum boundary (64 instructions).
PAD = "\n".join(f"  acc = acc * 1.5 + {k}.0;" for k in range(30))


def stretch_program(pre, last, decls="", pad=PAD):
    return f"""{decls}
proc main() {{
  var acc = 0.0;
{pre}
{pad}
{last}
  writeln(acc);
}}
"""


#: Source-level faults, one per raising register-only step kind:
#: (setup statements, faulting statement, module declarations).
RAISING = {
    "integer division": ("  var d = 0;", "  var x = 5 / d;", ""),
    "integer modulo": ("  var d = 0;", "  var x = 5 % d;", ""),
    "real division": ("  var d = 0.0;", "  acc = acc / d;", ""),
    "real modulo": ("  var d = 0.0;", "  acc = acc % d;", ""),
    "tuple element index": ("  var t = (1, 2, 3);\n  var k = 3;", "  acc = acc + t[k];", ""),
    "tuple value index": ("  var k = 3;", "  acc = acc + (1, 2, 3)[k];", ""),
    "field through nil": (
        "  var c = new C();",
        "  acc = acc + c.d.x;",
        "class D { var x: real; }\nclass C { var d: D; }",
    ),
    "rank-1 bounds": ("  var A: [0..3] real;\n  var k = 9;", "  acc = acc + A[k];", ""),
    "rank-2 bounds": ("  var B: [0..3, 0..3] real;\n  var k = 9;", "  acc = acc + B[1, k];", ""),
}


def _main_instrs(module, cls):
    fn = module.get_function("main")
    return [i for b in fn.blocks for i in b.instructions if isinstance(i, cls)]


def _acc_cell(module):
    """main's ``acc`` slot: an address, so neither a tuple nor an array."""
    return _main_instrs(module, I.Alloca)[0].result


#: Faults no type-checked source produces, made by pointing the last
#: instruction of a kind in main at a bad operand.
PATCHED = {
    "register before definition": (
        "  var k = 1.0;", "  acc = acc + k;", I.BinOp, "lhs",
        lambda module, old: I.Register(old.type),
    ),
    "tuple element base": (
        "  var t = (1, 2, 3);\n  var k = 1;", "  acc = acc + t[k];", I.TupleElemAddr, "base",
        lambda module, old: _acc_cell(module),
    ),
    "tuple value base": (
        "  var k = 1;", "  acc = acc + (1, 2, 3)[k];", I.TupleGet, "tup",
        lambda module, old: _acc_cell(module),
    ),
    "array base": (
        "  var A: [0..3] real;\n  var k = 1;", "  acc = acc + A[k];", I.ElemAddr, "base",
        lambda module, old: _acc_cell(module),
    ),
}


def run_state(module, engine, *, threshold=7, skid=0, sink=None, num_threads=2):
    """Runs ``module`` to completion, to an error or to a sink's
    ``StopSampling``; returns everything observable afterwards."""
    monitor = None
    if threshold:
        monitor = Monitor(PMUConfig(threshold=threshold), sink=sink, batch_size=1)
    interp = Interpreter(
        module, num_threads=num_threads, monitor=monitor, sample_threshold=threshold,
        skid=skid, engine=engine,
    )
    try:
        interp.run()
        error = None
    except (ExecutionError, StopSampling) as exc:
        error = (type(exc).__name__, str(exc))
    threads = [
        (t.clock, t.busy_cycles, t.pmu_counter, t.idle_cycles,
         t.task.frame.index if t.task is not None and t.task.frame is not None else None)
        for t in interp.scheduler.threads
    ]
    stream = None
    if monitor is not None and sink is None:
        stream = [(s.thread_id, s.leaf_iid, s.stack) for s in monitor.samples]
    return {
        "error": error,
        "instructions": interp.instructions_executed,
        "threads": threads,
        "stream": stream,
        "samples": monitor.n_accepted if monitor is not None else 0,
        "output": list(interp.output),
        "globals": list(interp.globals_store.items()),
    }


def assert_same_state(module, **kwargs):
    fast = run_state(module, "fast", **kwargs)
    generic = run_state(module, "generic", **kwargs)
    assert fast == generic
    return fast


class TestStretchEdges:
    @pytest.mark.parametrize("case", sorted(RAISING))
    def test_raising_step_inside_stretch(self, case):
        pre, fault, decls = RAISING[case]
        module = compile_source(stretch_program(pre, fault, decls), "fault.chpl")
        state = assert_same_state(module)
        assert state["error"] is not None
        # The fault lands past the padding, after samples were taken.
        assert state["instructions"] > 120 and state["samples"] > 0

    @pytest.mark.parametrize("case", sorted(PATCHED))
    def test_patched_fault_inside_stretch(self, case):
        pre, last, cls, attr, make = PATCHED[case]
        module = compile_source(stretch_program(pre, last), "patched.chpl")
        instr = _main_instrs(module, cls)[-1]
        old = getattr(instr, attr)
        instr.replace_operand(old, make(module, old))
        state = assert_same_state(module)
        assert state["error"] is not None and state["instructions"] > 120

    @pytest.mark.parametrize("stop_at", [1, 9, 17])
    def test_stop_sampling_at_overflow_inside_stretch(self, stop_at):
        def sink(batch):
            if batch[-1].index + 1 >= stop_at:
                raise StopSampling("enough", stop_at)

        module = compile_source(stretch_program("", ""), "stop.chpl")
        state = assert_same_state(module, sink=sink)
        assert state["error"][0] == "StopSampling"
        assert state["samples"] == stop_at

    @pytest.mark.parametrize("skid", [2, 3])
    def test_skid_inside_stretch(self, skid):
        module = compile_source(stretch_program("", ""), "skid.chpl")
        state = assert_same_state(module, skid=skid)
        assert state["error"] is None and state["samples"] > 0

    def test_function_over_icache_budget(self):
        # 250 padding statements: about 1,000 instructions in main, so
        # every one of them is charged a non-integer penalty.
        pad = "\n".join(f"  acc = acc * 1.0625 + {k}.0;" for k in range(250))
        module = compile_source(stretch_program("", "", pad=pad), "big.chpl")
        interp = Interpreter(module, num_threads=2)
        assert interp._penalty(module.get_function("main")) > 1.0
        for threshold in (7, 997):
            assert_same_state(module, threshold=threshold)

    def test_tuple_binop_inside_stretch(self):
        module = compile_source(
            stretch_program(
                "  var p = (1.0, 2.0);",
                "  p = p * 2.0 + (0.5, 0.25);\n  p = 3.0 - p;\n  acc = acc + p[0] * p[1];",
            ),
            "tuples.chpl",
        )
        state = assert_same_state(module)
        assert state["error"] is None

    def test_lazily_created_global_cells(self):
        # f() reads `late` during module init, before its declaration
        # stores to it: the read creates its cell with the default.
        decls = "proc f(): real { return late * 2.0 + 1.0; }\nvar early = f();\nvar late = 3.0;"
        module = compile_source(
            stretch_program("", "  acc = acc + early + late;", decls), "globals.chpl"
        )
        state = assert_same_state(module)
        assert [name for name, _ in state["globals"]] == ["late", "early"]

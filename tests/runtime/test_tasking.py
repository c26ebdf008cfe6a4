"""Tasking layer tests: chunking, spawn records, stack walks, scheduler
determinism, idle accounting."""

import pytest

from repro.runtime.tasking import (
    SCHED_YIELD,
    Frame,
    Scheduler,
    Task,
    chunk_iteration_space,
)
from repro.runtime.values import ArrayChunk, ArrayValue, DomainChunk, DomainValue, RangeValue, RuntimeError_
from repro.chapel.types import REAL

import sys, os
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from conftest import compile_src, run_src, sample_src


def dom1(lo, hi):
    return DomainValue((RangeValue(lo, hi),))


class TestChunking:
    def test_forall_chunks_are_contiguous_cover(self):
        chunks = chunk_iteration_space([RangeValue(0, 99)], "forall", 8)
        assert len(chunks) == 8
        covered = []
        for (c,) in chunks:
            covered.extend(c.indices())
        assert covered == list(range(100))

    def test_forall_fewer_elements_than_tasks(self):
        chunks = chunk_iteration_space([RangeValue(0, 2)], "forall", 12)
        assert len(chunks) == 3

    def test_coforall_one_per_index(self):
        chunks = chunk_iteration_space([RangeValue(0, 4)], "coforall", 12)
        assert len(chunks) == 5
        assert all(c[0].size == 1 for c in chunks)

    def test_domain_chunks(self):
        d = DomainValue((RangeValue(0, 3), RangeValue(0, 3)))
        chunks = chunk_iteration_space([d], "forall", 3)
        total = sum(c[0].size for c in chunks)
        assert total == 16
        assert all(isinstance(c[0], DomainChunk) for c in chunks)

    def test_array_chunks(self):
        d = dom1(0, 9)
        arr = ArrayValue(d, REAL, data=[0.0] * 10)
        chunks = chunk_iteration_space([arr], "forall", 4)
        assert all(isinstance(c[0], ArrayChunk) for c in chunks)
        assert sum(c[0].size for c in chunks) == 10

    def test_zippered_chunks_align(self):
        a = ArrayValue(dom1(0, 9), REAL, data=[0.0] * 10)
        chunks = chunk_iteration_space([a, RangeValue(0, 9)], "forall", 4)
        for ac, rc in chunks:
            assert ac.size == rc.size

    def test_zippered_size_mismatch(self):
        with pytest.raises(RuntimeError_, match="unequal"):
            chunk_iteration_space([RangeValue(0, 9), RangeValue(0, 5)], "forall", 2)

    def test_empty_space(self):
        assert chunk_iteration_space([RangeValue(5, 4)], "forall", 4) == []


class TestScheduler:
    def test_requires_a_thread(self):
        with pytest.raises(RuntimeError_):
            Scheduler(0)

    def test_spawn_tags_unique(self):
        s = Scheduler(2)
        tags = [s.next_spawn_tag() for _ in range(5)]
        assert len(set(tags)) == 5

    def test_pick_thread_min_clock(self):
        s = Scheduler(3)
        s.threads[0].clock = 100.0
        s.threads[1].clock = 20.0
        s.threads[2].clock = 20.0
        assert s.pick_thread() is s.threads[1]  # ties broken by id


class TestIdleStretch:
    def stalled(self):
        sched = Scheduler(2)
        sched.threads[1].task = Task(None)  # busy, at clock 0
        return sched

    @pytest.mark.parametrize("threshold", [None, 100.0])
    def test_idle_threads_tick_past_the_busy_minimum(self, threshold):
        sched = self.stalled()
        sched.threads[1].clock = 95.0
        due = list(sched.idle_stretch(30.0, threshold))
        idle = sched.threads[0]
        assert (idle.clock, idle.idle_cycles) == (120.0, 120.0)
        assert sched.pick_thread() is sched.threads[1]
        # With a threshold the PMU counter counts the ticks, and the
        # tick that reached it is handed back.
        if threshold is None:
            assert due == [] and idle.pmu_counter == 0.0
        else:
            assert due == [idle] and idle.pmu_counter == 120.0

    @pytest.mark.parametrize("cost", [0, 0.0, -30.0])
    def test_a_tick_must_cost_something(self, cost):
        # The idle thread sorts first (thread 0, clock 0): a free tick
        # would spin forever.
        with pytest.raises(ValueError, match="positive cost"):
            list(self.stalled().idle_stretch(cost, None))


class TestRunScopedTaskIds:
    def test_fresh_scheduler_starts_at_zero(self):
        s = Scheduler(num_threads=2)
        assert [s.next_task_id() for _ in range(3)] == [0, 1, 2]

    def test_schedulers_do_not_share_the_counter(self):
        # Task ids used to come from a process-global itertools.count,
        # so a second run in the same process produced different sample
        # streams than the first — repeat runs must be identical.
        a, b = Scheduler(num_threads=2), Scheduler(num_threads=2)
        assert a.next_task_id() == b.next_task_id() == 0

    def test_repeat_profiles_produce_identical_streams(self):
        src = "forall i in 0..#64 { var x = i * 2.0; }"
        _, first = sample_src(src, num_threads=4, threshold=997)
        _, second = sample_src(src, num_threads=4, threshold=997)
        assert first == second


class TestCallingContext:
    """A frame's calling context is built on the first stack walk that
    needs it, kept on that frame alone, and equals the frame walk."""

    def chain(self, depth):
        module = compile_src(
            "proc f(n: int): int { return n; }\nproc main() { writeln(f(1)); }"
        )
        main, f = module.get_function("main"), module.get_function("f")
        frames = [Frame(main, None, None)]
        for k in range(depth):
            frames.append(Frame(f, frames[-1], 1000 + k))
        return frames

    @staticmethod
    def walk(frame):
        out = []
        while frame.caller is not None:
            out.append((frame.caller.function.name, frame.call_iid))
            frame = frame.caller
        return tuple(out)

    def test_a_call_builds_no_context(self):
        frames = self.chain(50)
        assert frames[0].ctx == ()
        assert all(fr.ctx is None for fr in frames[1:])

    def test_context_is_the_walk_and_is_kept_on_the_frame_alone(self):
        frames = self.chain(50)
        leaf = frames[-1]
        ctx = leaf.context()
        assert ctx == self.walk(leaf) and len(ctx) == 50
        assert leaf.ctx is ctx and leaf.context() is ctx
        assert all(fr.ctx is None for fr in frames[1:-1])
        # A deeper frame's walk stops at the nearest kept context.
        deeper = Frame(leaf.function, leaf, 7)
        assert deeper.context() == ((leaf.function.name, 7),) + ctx
        assert deeper.ctx[1:] == ctx
        mid = frames[20]
        assert mid.context() == self.walk(mid)

    def test_stack_walk_is_leaf_plus_context(self):
        frames = self.chain(3)
        leaf = frames[-1]
        task = Task(leaf)
        stack = task.stack_walk()
        assert stack[0] == (leaf.function.name, leaf.block.instructions[0].iid)
        assert stack[1:] == self.walk(leaf)
        assert Task(None).stack_walk() == ()


class TestSpawnInstrumentation:
    """The paper's §IV.B: spawn tags + pre-spawn stacks on samples."""

    SRC = """
var A: [0..39] real;
proc work() {
  forall i in 0..39 { A[i] = sqrt(i * 1.0) + i * i * 0.5 + cos(i * 0.1); }
}
proc main() { work(); }
"""

    def test_worker_samples_carry_spawn_tag_and_prestack(self):
        _, samples = sample_src(self.SRC, threshold=211, num_threads=4)
        worker = [s for s in samples if s.spawn_tag is not None]
        assert worker, "expected samples inside the forall"
        for s in worker:
            assert s.pre_spawn_stack is not None
            funcs = [f for f, _ in s.pre_spawn_stack]
            assert funcs[-1] == "main"
            assert "work" in funcs

    def test_nested_spawn_prestack_reaches_main(self):
        src = """
var D: domain(2) = {0..5, 0..5};
var M: [D] real;
proc main() {
  forall i in 0..5 {
    forall j in 0..5 { M[i, j] = i * j * 1.0 + sqrt(i + j + 1.0); }
  }
}
"""
        _, samples = sample_src(src, threshold=157, num_threads=4)
        nested = [
            s
            for s in samples
            if s.spawn_tag is not None
            and s.pre_spawn_stack
            and any(f.startswith("forall_fn") for f, _ in s.pre_spawn_stack)
        ]
        for s in nested:
            assert s.pre_spawn_stack[-1][0] == "main"

    def test_idle_samples_marked(self):
        _, samples = sample_src(self.SRC, threshold=211, num_threads=12)
        idles = [s for s in samples if s.is_idle]
        for s in idles:
            assert s.stack[0][0] == SCHED_YIELD
            assert s.task_id == -1


class TestCausality:
    def test_wall_time_at_least_serial_fraction(self):
        src = """
proc main() {
  var s = 0.0;
  for i in 1..2000 { s += i * 1.0; }
  writeln(s);
}
"""
        r1 = run_src(src, num_threads=1)
        r12 = run_src(src, num_threads=12)
        # Serial program: thread count must not change wall time much.
        assert abs(r1.wall_seconds - r12.wall_seconds) / r1.wall_seconds < 0.2

    def test_parallel_speedup_observed(self):
        src = """
var A: [0..199] real;
proc main() {
  forall i in 0..199 { A[i] = sqrt(i * 1.0) * cos(i * 1.0) + i * 0.25; }
}
"""
        r1 = run_src(src, num_threads=1)
        r8 = run_src(src, num_threads=8)
        assert r8.wall_seconds < r1.wall_seconds * 0.6

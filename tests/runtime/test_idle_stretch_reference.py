"""Heap-ordered idle stretches against the per-tick ``pick_thread`` loop.

``Interpreter._event_loop`` ticks idle threads in the order
``Scheduler.idle_stretch`` yields them.  ``ReferenceInterpreter`` keeps
the loop it replaced, which calls ``pick_thread`` (a ``min`` over every
thread) after every tick.  Both engines share ``_event_loop``, so the
fast-vs-generic tests in test_engine.py cannot catch a mistake here.

Each case runs one compiled module under both loops and requires the
same sealed sample stream, output and instruction count, and the same
clock, idle and busy cycles and PMU counter on every thread — also
when a sink stops the run in the middle of an idle stretch.
"""

import pytest

from repro.bench.programs import clomp, lulesh, minimd
from repro.compiler.lower import compile_source
from repro.pipeline import stages
from repro.run_config import AdaptiveConfig, RunConfig
from repro.runtime.interpreter import Interpreter
from repro.runtime.tasking import Scheduler
from repro.runtime.values import RuntimeError_
from repro.sampling.monitor import Monitor, StopSampling
from repro.sampling.pmu import PMUConfig
from repro.tooling.profiler import Profiler


class ReferenceInterpreter(Interpreter):
    """The event loop with one ``pick_thread`` per idle tick."""

    def _event_loop(self, main_task):
        sched = self.scheduler
        pick_thread = sched.pick_thread
        run_queue = sched.run_queue
        idle_cost = self.cost_model.idle_quantum
        threshold = self.sample_threshold
        sampling = threshold is not None and self.monitor is not None
        overflow = self._pmu_overflow
        while main_task.state != "done":
            thread = pick_thread()
            if thread.task is None:
                if run_queue:
                    task = run_queue.popleft()
                    task.state = "running"
                    if task.last_clock > thread.clock:
                        delta = task.last_clock - thread.clock
                        thread.idle_cycles += delta
                        thread.clock = task.last_clock
                        self._accrue_pmu(thread, delta, idle=True)
                    thread.task = task
                elif sched.any_running:
                    while thread.task is None:
                        thread.clock += idle_cost
                        thread.idle_cycles += idle_cost
                        if sampling:
                            pmu = thread.pmu_counter + idle_cost
                            thread.pmu_counter = pmu
                            if pmu >= threshold:
                                overflow(thread, True)
                        thread = pick_thread()
                else:
                    raise RuntimeError_(
                        "scheduler stalled: no runnable tasks but main not done"
                    )
            self._run_quantum(thread)


#: A forall over 3 indices: with 12-16 threads most of them idle.
NARROW_FORALL_SRC = """
config const n = 40;
var A: [0..2] real;
proc main() {
  for step in 1..n {
    forall i in 0..2 {
      var acc = 0.0;
      for k in 1..(i + 1) * 6 { acc = acc + k * 0.5; }
      A[i] = A[i] + acc;
    }
  }
  writeln(A[0] + A[1] + A[2]);
}
"""

PROGRAMS = {
    "minimd": (
        minimd.build_source(optimized=False),
        minimd.config_for(num_bins=6, per_bin=4, steps=2),
    ),
    "clomp": (
        clomp.build_source(optimized=False),
        clomp.config_for(num_parts=4, zones_per_part=6, timesteps=2),
    ),
    "lulesh": (lulesh.build_source(), lulesh.config_for(edge_elems=2, max_steps=1)),
    "narrow": (NARROW_FORALL_SRC, {}),
}

_MODULES: dict = {}


def module_of(name):
    if name not in _MODULES:
        _MODULES[name] = compile_source(PROGRAMS[name][0], f"{name}.chpl")
    return _MODULES[name]


def thread_state(interp):
    return [
        (t.thread_id, t.clock, t.idle_cycles, t.busy_cycles, t.pmu_counter)
        for t in interp.scheduler.threads
    ]


def run_result_fields(r):
    return (r.output, r.wall_seconds, r.total_cycles, r.idle_cycles,
            r.busy_cycles, r.instructions_executed)


def run(cls, name, *, num_threads, threshold, skid=0, engine="fast",
        stop_after=None, watch=None):
    """One run.  With ``stop_after`` a sink stops it on that sample;
    ``watch`` sees every sample as it arrives.  Returns everything the
    two loops must agree on."""
    samples = []
    sink = None
    if stop_after is not None or watch is not None:

        def sink(batch):
            samples.extend(batch)
            if watch is not None:
                watch(len(samples), batch[-1])
            if len(samples) == stop_after:
                raise StopSampling("stopped by the test", len(samples))

    monitor = Monitor(PMUConfig(threshold=threshold), sink=sink, batch_size=1)
    interp = cls(
        module_of(name),
        config=PROGRAMS[name][1],
        num_threads=num_threads,
        monitor=monitor,
        sample_threshold=threshold,
        skid=skid,
        engine=engine,
    )
    stopped = False
    try:
        interp.run()
    except StopSampling:
        stopped = True
    return {
        "stream": monitor.sealed_stream(),
        "sunk": samples,
        "stopped": stopped,
        "threads": thread_state(interp),
        "instructions": interp.instructions_executed,
        "output": list(interp.output),
    }


@pytest.fixture
def stretch_probe(monkeypatch):
    """Records whether the last idle stretch was left unfinished (a
    sink stopped the run inside it)."""
    state = {"open": False, "stretches": 0}
    original = Scheduler.idle_stretch

    def probed(self, *args):
        state["open"] = True
        state["stretches"] += 1
        yield from original(self, *args)
        state["open"] = False

    monkeypatch.setattr(Scheduler, "idle_stretch", probed)
    return state


CASES = [
    ("minimd", 12, 31, 0, "fast"),
    ("minimd", 16, 97, 3, "fast"),
    ("clomp", 16, 31, 0, "fast"),
    ("clomp", 12, 53, 2, "generic"),
    ("lulesh", 12, 31, 0, "fast"),
    ("lulesh", 12, 211, 3, "fast"),
    ("narrow", 16, 31, 0, "fast"),
    ("narrow", 12, 37, 4, "generic"),
]


@pytest.mark.parametrize("name,threads,threshold,skid,engine", CASES)
def test_full_run_matches_reference(stretch_probe, name, threads, threshold,
                                    skid, engine):
    kwargs = dict(num_threads=threads, threshold=threshold, skid=skid,
                  engine=engine)
    new = run(Interpreter, name, **kwargs)
    assert stretch_probe["stretches"] > 0
    ref = run(ReferenceInterpreter, name, **kwargs)
    assert new["stream"]  # samples were taken
    assert new == ref


@pytest.mark.parametrize("name", ["narrow", "clomp", "lulesh"])
def test_stop_inside_a_stretch_matches_reference(stretch_probe, name):
    kwargs = dict(num_threads=16, threshold=31)
    # Sample counts at which an idle tick inside a stretch took a sample.
    inside = []
    run(Interpreter, name, **kwargs, watch=lambda n, sample: (
        inside.append(n) if stretch_probe["open"] and sample.is_idle else None
    ))
    assert len(inside) > 40
    for stop_after in (inside[0], inside[6], inside[40], inside[-1]):
        new = run(Interpreter, name, **kwargs, stop_after=stop_after)
        assert new["stopped"] and stretch_probe["open"]
        ref = run(ReferenceInterpreter, name, **kwargs, stop_after=stop_after)
        assert new == ref


def test_adaptive_stop_inside_a_stretch_matches_reference(stretch_probe,
                                                          monkeypatch):
    """The adaptive controller's StopSampling, raised from the sink on a
    round that an idle tick completed, leaves both loops in one state."""
    run = RunConfig(
        config=PROGRAMS["clomp"][1], num_threads=16, threshold=31,
        batch_size=32,
        adaptive=AdaptiveConfig(ci_width=0.2, min_rounds=2, stability_window=2),
    )

    def profile():
        samples = []
        result = Profiler(module_of("clomp"), run).profile(tap=samples.extend)
        return result, samples

    new, new_samples = profile()
    assert new.stopped_early and stretch_probe["open"]
    monkeypatch.setattr(stages, "Interpreter", ReferenceInterpreter)
    ref, ref_samples = profile()
    assert ref.stopped_early
    assert new_samples == ref_samples
    assert thread_state(new.interpreter) == thread_state(ref.interpreter)
    assert run_result_fields(new.run_result) == run_result_fields(ref.run_result)
    assert new.report.rows == ref.report.rows

"""The end-to-end tool: the four-step pipeline of paper Fig. 2.

1. static analysis  → :class:`~repro.blame.static_info.ModuleBlameInfo`
2. execution w/ sampling → :class:`~repro.sampling.monitor.Monitor` raw samples
3. post-mortem processing → instances → attribution
4. data presentation → :class:`~repro.blame.report.BlameReport` (+ views)

The stages themselves live in :mod:`repro.pipeline.stages`;
:class:`Profiler` is the one driver that wires them together.  Steps 2
and 3 overlap: the monitor's sink is the only way samples move, and it
feeds each batch (through the fault injector's degrader when faults
are on) to a :class:`~repro.blame.postmortem.PostmortemConsumer`, or to
an :class:`~repro.sampling.adaptive.AdaptiveController` that may stop
the run early.  At no point is the full ``list[RawSample]`` resident.
An optional ``tap`` sees every raw batch first.

Typical use::

    from repro import Profiler, RunConfig
    result = Profiler(source, RunConfig(config={"n": 8})).profile()
    for row in result.report.top(5):
        print(row.name, f"{row.percent:.1f}%", row.context)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..blame.attribution import AttributionResult
from ..blame.postmortem import PostmortemConsumer, PostmortemResult
from ..blame.report import BlameReport
from ..blame.static_info import ModuleBlameInfo
from ..ir.module import Module
from ..pipeline.stages import (
    aggregate_stage,
    analyze_stage,
    attribute_stage,
    collect_stage,
    compile_stage,
)
from ..run_config import RunConfig
from ..runtime.interpreter import Interpreter, RunResult
from ..sampling.monitor import Monitor


@dataclass
class ProfileResult:
    """Everything one profiled run produced."""

    module: Module
    static_info: ModuleBlameInfo
    monitor: Monitor
    run_result: RunResult
    postmortem: PostmortemResult
    attribution: AttributionResult
    report: BlameReport
    #: The interpreter that executed the run (exposes globals_store and
    #: the heap — the HPCToolkit baseline reads allocation sizes there).
    interpreter: "Interpreter | None" = None
    #: What fault injection did to this run (None on clean runs).
    fault_stats: "object | None" = None
    #: Decision trail of an adaptive run
    #: (:class:`~repro.sampling.adaptive.AdaptiveTrail`; None otherwise).
    adaptive: "object | None" = None

    @property
    def stopped_early(self) -> bool:
        """Did adaptive mode halt collection before the workload ended?"""
        return self.adaptive is not None and self.adaptive.stopped_early

    @property
    def wall_seconds(self) -> float:
        return self.run_result.wall_seconds


class Profiler:
    """Front door to the blame pipeline: one program, one
    :class:`~repro.run_config.RunConfig`.

    The run config carries the paper's experimental knobs: the PMU
    overflow ``threshold``, the worker-thread count (their 12-core
    Xeon), and the compilation mode (``fast=True`` approximates
    ``--fast``; the paper profiles *without* it — see §V's discussion
    of why).  ``fast`` applies to source text only: a precompiled
    ``Module`` is profiled as given, and ``fast=True`` with one raises
    ``ValueError`` (use ``compile_stage(source, name, fast=True)``).
    """

    def __init__(
        self,
        source: str | Module,
        run: RunConfig = RunConfig(),
        filename: str = "program.chpl",
    ) -> None:
        self.run = run
        if isinstance(source, Module):
            _reject_fast_module(run.fast)
            self.module = source
            self.program_name = source.name
        else:
            self.module = compile_stage(source, filename, run.fast)
            self.program_name = filename

    def _injector(self):
        faults = self.run.faults
        if faults is None or getattr(faults, "is_clean", True):
            return None
        from ..resilience.inject import FaultInjector

        return FaultInjector(faults, module=self.module)

    def profile(self, tap=None) -> ProfileResult:
        """Runs the pipeline end to end, streaming.

        The monitor hands sample batches of ``run.batch_size`` to one
        sink as they fill, so at most that many samples are resident.
        The sink first passes each raw batch to ``tap`` (when given),
        then through the fault injector's degrader (when faults are on)
        into a tolerant :class:`~repro.blame.postmortem.PostmortemConsumer`,
        which counts idle samples without keeping them.  ``tap`` is how
        ``--save-samples`` journals records while the program runs, and
        how in-process callers that need the raw stream collect it::

            samples = []
            result = profiler.profile(tap=samples.extend)

        With ``run.adaptive`` set, the batches feed an
        :class:`~repro.sampling.adaptive.AdaptiveController` instead,
        one round per batch: it attributes each round incrementally and
        stops the run early once the blame ranking is statistically
        settled — see :mod:`repro.sampling.adaptive`.  Composes with
        fault injection (degraded telemetry widens the intervals,
        delaying the stop).
        """
        run = self.run
        # Step 1 — static analysis.
        static_info = analyze_stage(self.module, options=run.blame_options)
        injector = self._injector()
        degrade = injector.degrader() if injector is not None else None
        consumer = PostmortemConsumer(
            self.module, options=static_info.options, tolerant=True
        )
        controller = None
        if run.adaptive is not None:
            from ..sampling.adaptive import AdaptiveController

            controller = AdaptiveController(
                run, static_info, consumer, degrade=degrade,
                program=self.program_name,
            )
            feed = controller.sink
        else:
            def feed(batch):
                consumer.feed(degrade(batch) if degrade is not None else batch)
        pm_seconds = 0.0

        def sink(batch):
            nonlocal pm_seconds
            if tap is not None:
                tap(batch)
            t0 = time.perf_counter()
            try:
                feed(batch)
            finally:
                pm_seconds += time.perf_counter() - t0

        # Step 2 — execution; step 3 runs inside the sink as batches fill.
        coll = collect_stage(
            self.module,
            config=run.config,
            num_threads=run.num_threads,
            threshold=run.threshold,
            skid=run.skid,
            skid_compensation=run.skid_compensation,
            sink=sink,
            batch_size=run.batch_size,
        )
        t0 = time.perf_counter()
        if controller is not None:
            pm, attribution = controller.finish()
        else:
            pm = consumer.finish()
            attribution = attribute_stage(static_info, pm)
        pm_seconds += time.perf_counter() - t0

        # Step 4 — report assembly.
        monitor = coll.monitor
        report = aggregate_stage(
            self.program_name,
            pm,
            attribution,
            wall_seconds=coll.run_result.wall_seconds,
            dataset_bytes=monitor.dataset_size_bytes(),
            stackwalk_cycles=monitor.overhead.stackwalk_cycles_total,
            postmortem_seconds=pm_seconds,
        )
        return ProfileResult(
            module=self.module,
            static_info=static_info,
            monitor=monitor,
            run_result=coll.run_result,
            postmortem=pm,
            attribution=attribution,
            report=report,
            interpreter=coll.interpreter,
            fault_stats=injector.stats if injector is not None else None,
            adaptive=controller.trail if controller is not None else None,
        )


def run_only(
    source: str | Module,
    run: RunConfig = RunConfig(),
    filename: str = "program.chpl",
) -> RunResult:
    """Executes a program without profiling (for timing comparisons —
    the paper's original-vs-optimized speedup tables)."""
    if isinstance(source, Module):
        _reject_fast_module(run.fast)
        module = source
    else:
        module = compile_stage(source, filename, run.fast)
    return Interpreter(
        module, config=run.config, num_threads=run.num_threads
    ).run()


def _reject_fast_module(fast: bool) -> None:
    """``--fast`` lowering rewrites a module in place, and a caller may
    profile its module again or hand it to other profilers, so a
    caller's module is never lowered here."""
    if fast:
        raise ValueError(
            "fast=True needs source text; for a Module, compile it with "
            "compile_stage(source, name, fast=True)"
        )

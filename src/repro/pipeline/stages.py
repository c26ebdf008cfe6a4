"""The profiling pipeline as explicit, separately-invokable stages.

The paper's Fig. 2 tool is a four-step pipeline; this module spells it
out as six narrow functions so each seam is a real API instead of a
region inside ``Profiler.profile()``:

    compile_stage     source text      → IR module
    analyze_stage     module           → static blame info (step 1)
    collect_stage     module           → monitor + run result (step 2)
    postmortem_stage  raw samples      → consolidated instances (step 3)
    attribute_stage   instances        → per-variable blame (step 3)
    aggregate_stage   blame + counts   → BlameReport (step 4)
    render_stage      report/snapshot  → one view's text (step 4;
                                         defined in :mod:`repro.views`)

:class:`~repro.tooling.profiler.Profiler` is the one streaming driver:
``collect_stage`` with a sink that feeds post-mortem batch by batch,
then ``aggregate_stage``.  The materialized composition — ``collect_stage``
without a sink, then ``postmortem_stage``, ``attribute_stage`` and
``aggregate_stage`` — is the reference the driver is tested against,
and the shape of offline analysis (``repro-analyze``).

The ``.cbp`` artifact is the serialized contract
between ``aggregate_stage`` and ``render_stage``: ``render_stage``
accepts anything exposing ``report`` / ``module`` / ``postmortem`` —
a live :class:`~repro.tooling.profiler.ProfileResult` or a loaded
:class:`~repro.artifact.model.ProfileSnapshot` — and produces
byte-identical text for both.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..blame.attribution import AttributionResult, BlameAttributor
from ..blame.postmortem import PostmortemResult, process_samples
from ..blame.report import BlameReport, RunStats, build_rows
from ..blame.static_info import ModuleBlameInfo
from ..compiler.lower import compile_source
from ..ir.module import Module
from ..run_config import RunConfig
from ..runtime.interpreter import Interpreter, RunResult
from ..sampling.monitor import Monitor, StopSampling
from ..sampling.pmu import PMUConfig
from ..sampling.records import RawSample
from ..views import VIEWS, render_stage  # noqa: F401  re-exported: step 4b

def compile_stage(
    source: str, filename: str = "program.chpl", fast: bool = False
) -> Module:
    """Source text → IR module, ``--fast``-lowered when ``fast``.

    Every call compiles afresh and draws new instruction ids from the
    process-wide counters.  Runs that must compare streams or artifacts
    share one compiled module: pass it to each ``Profiler``.
    """
    module = compile_source(source, filename)
    if fast:
        from ..compiler.passes import run_fast_pipeline

        run_fast_pipeline(module)
    return module


def analyze_stage(
    module: Module, options: "object | None" = None
) -> ModuleBlameInfo:
    """Step 1 — static blame analysis (pre-run, sample-independent).

    A plain function of the module: each call analyzes afresh, as the
    paper's tool does once per program before execution.
    """
    return ModuleBlameInfo(module, options=options)


@dataclass
class Collection:
    """What one monitored execution produced."""

    monitor: Monitor
    interpreter: Interpreter
    run_result: RunResult


def collect_stage(
    module: Module,
    config: dict[str, object] | None = None,
    num_threads: int = RunConfig.num_threads,
    threshold: int = RunConfig.threshold,
    skid: int = 0,
    skid_compensation: bool = False,
    sink=None,
    batch_size: int = RunConfig.batch_size,
) -> Collection:
    """Step 2 — execution under the monitor.

    Without a ``sink`` the monitor retains the whole stream in
    ``monitor.samples``, which :func:`postmortem_stage` consumes.  With
    one, samples stream out in batches of ``batch_size`` as they fill,
    only the current batch is resident, and the final partial batch is
    flushed before this returns.  A sink that raises
    :class:`~repro.sampling.monitor.StopSampling` ends the run there;
    the run result then covers exactly the truncated execution.
    """
    monitor = Monitor(
        PMUConfig(threshold=threshold), sink=sink, batch_size=batch_size
    )
    interp = Interpreter(
        module,
        config=config,
        num_threads=num_threads,
        monitor=monitor,
        sample_threshold=threshold,
        skid=skid,
        skid_compensation=skid_compensation,
    )
    try:
        run_result = interp.run()
    except StopSampling:
        run_result = interp.build_run_result()
    monitor.flush()
    return Collection(monitor=monitor, interpreter=interp, run_result=run_result)


def postmortem_stage(
    module: Module,
    samples: list[RawSample],
    options: "object | None" = None,
    tolerant: bool = True,
) -> PostmortemResult:
    """Step 3a — stack consolidation over a materialized stream: the
    reference composition and offline analysis.  The streaming driver
    instead feeds a :class:`~repro.blame.postmortem.PostmortemConsumer`
    from the collect-stage sink, one batch at a time.
    """
    return process_samples(module, samples, options=options, tolerant=tolerant)


def attribute_stage(
    static_info: ModuleBlameInfo, pm: PostmortemResult
) -> AttributionResult:
    """Step 3b — blame accumulation over the consolidated instances,
    once per distinct call path."""
    return BlameAttributor(static_info).attribute_paths(pm.path_counts(), pm.n_user)


def aggregate_stage(
    program: str,
    pm: PostmortemResult,
    attribution: AttributionResult,
    wall_seconds: float,
    dataset_bytes: int = 0,
    stackwalk_cycles: float = 0.0,
    postmortem_seconds: float = 0.0,
    monitor_quarantine: dict[str, int] | None = None,
) -> BlameReport:
    """Step 4a — assemble the presentation-ready report.

    Quarantine comes from ``pm``, the one quarantine.  Counts passed as
    ``monitor_quarantine`` (reason → count) are added to it; the
    monitor's :meth:`~repro.sampling.monitor.Monitor.quarantine_by_reason`
    is always empty, so passing it changes nothing.
    """
    monitor_quarantine = monitor_quarantine or {}
    n_monitor_quarantined = sum(monitor_quarantine.values())
    stats = RunStats(
        total_raw_samples=pm.n_raw,
        user_samples=pm.n_user,
        runtime_samples=pm.n_runtime,
        wall_seconds=wall_seconds,
        dataset_bytes=dataset_bytes,
        stackwalk_cycles=stackwalk_cycles,
        postmortem_seconds=postmortem_seconds,
        unknown_samples=pm.n_unknown,
        quarantined_samples=len(pm.quarantined) + n_monitor_quarantined,
        recovered_samples=pm.n_recovered,
    )
    quarantine_reasons = pm.quarantine_by_reason()
    for reason, n in monitor_quarantine.items():
        quarantine_reasons[reason] = quarantine_reasons.get(reason, 0) + n
    return BlameReport(
        program=program,
        rows=build_rows(attribution, unknown_samples=pm.n_unknown),
        stats=stats,
        unknown_by_reason=pm.unknown_by_reason(),
        quarantine_by_reason=quarantine_reasons,
    )

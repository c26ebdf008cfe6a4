"""Multi-locale profiling harness (paper step 3/4 + future work §VI).

The paper's experiments are single-locale, but its pipeline is designed
for more: step 3 is "embarrassingly parallel for multi-locale cases"
and step 4 aggregates per-node results.  This harness simulates an
L-locale run the way an SPMD launcher would: the *same program* runs
once per locale, parameterized by the config constants ``localeId`` and
``numLocales`` (the program partitions its own iteration space, as
Chapel block distributions do), and the per-locale blame reports merge
into one program-wide report.

Fleets are lossy, so the harness treats per-locale failure as routine:
a crashing locale is retried with exponential backoff, a straggler is
flagged against the per-locale wall-clock budget, and locales that stay
down are *marked missing* while the surviving reports still merge
(``allow_partial``) — the whole aggregation only fails when nothing
survived.

Aggregation goes *through the artifact layer*: each surviving locale's
run becomes a :class:`~repro.artifact.model.ProfileSnapshot` (persisted
as a per-locale ``.cbp`` when ``artifact_dir`` is given) and the
program-wide report is :func:`~repro.artifact.merge.merge_snapshots`
over them — the same merge ``repro merge`` applies to artifacts on
disk, so an in-process multi-locale profile and an offline merge of the
locale shards produce the identical report.

This is a simulation of the *aggregation* path only — it does not model
inter-locale communication (tracking data through GASNet is the paper's
future work, and ours).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

from ..artifact.merge import merge_snapshots
from ..artifact.model import ProfileSnapshot, snapshot_from_result
from ..blame.report import BlameReport
from ..errors import (
    AggregationError,
    LocaleCrashError,
    LocaleTimeoutError,
    ReproError,
)
from ..ir.module import Module
from ..pipeline.stages import compile_stage
from ..resilience.retrying import backoff_attempts
from ..run_config import RunConfig
from .profiler import ProfileResult, Profiler


@dataclass
class LocaleOutcome:
    """How one locale's run went (including its retry history)."""

    locale_id: int
    status: str  # "ok" | "straggler" | "crashed" | "timeout"
    attempts: int
    elapsed: float
    error: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "straggler")


@dataclass
class MultiLocaleResult:
    """Per-locale profiles plus the merged program-wide report."""

    per_locale: list[ProfileResult]
    merged: BlameReport
    outcomes: list[LocaleOutcome] = field(default_factory=list)
    requested_locales: int = 0
    #: Per-locale artifact snapshots (same order as ``per_locale``).
    snapshots: list[ProfileSnapshot] = field(default_factory=list)
    #: The merge of ``snapshots`` (``merged`` is its report).
    merged_snapshot: "ProfileSnapshot | None" = None
    #: ``.cbp`` files written when ``artifact_dir`` was given
    #: (per-locale shards, then the merged artifact last).
    artifact_paths: list[str] = field(default_factory=list)

    @property
    def num_locales(self) -> int:
        return len(self.per_locale)

    @property
    def missing_locales(self) -> tuple[int, ...]:
        return tuple(o.locale_id for o in self.outcomes if not o.succeeded)

    @property
    def stragglers(self) -> tuple[int, ...]:
        return tuple(
            o.locale_id for o in self.outcomes if o.status == "straggler"
        )


def profile_locales(
    source: str,
    num_locales: int,
    run: RunConfig = RunConfig(),
    filename: str = "program.chpl",
    locale_timeout: float | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.01,
    allow_partial: bool = True,
    drop_stragglers: bool = False,
    artifact_dir: str | None = None,
) -> MultiLocaleResult:
    """Profiles ``source`` once per locale and merges the reports.

    The program must declare ``config const localeId: int`` and
    ``config const numLocales: int`` and partition its own work by
    them; every locale runs with ``run``, those two constants added to
    its ``config``.

    ``run.faults`` degrades each locale independently and can crash or
    delay whole locales.  ``locale_timeout`` is the per-locale wall-clock
    budget in host seconds: a locale exceeding it is a straggler (kept,
    flagged) or — with ``drop_stragglers`` — treated as failed.  Failed
    locales are retried ``max_retries`` times with exponential backoff;
    locales that never succeed are marked missing on the merged report
    unless ``allow_partial`` is off, in which case the harness raises
    :class:`AggregationError`.

    ``artifact_dir`` persists each surviving locale as
    ``locale<N>.cbp`` plus the merged profile as ``merged.cbp`` — the
    shards ``repro merge`` would combine to the same result offline.
    """
    if num_locales < 1:
        raise AggregationError("need at least one locale")
    from ..sampling.dataset import source_digest

    digest = source_digest(source)
    # One module for every locale (and retry): the locales run the same
    # program, and shared instruction ids make their shards comparable.
    module = compile_stage(source, filename, run.fast)
    per_locale: list[ProfileResult] = []
    snapshots: list[ProfileSnapshot] = []
    outcomes: list[LocaleOutcome] = []
    for locale in range(num_locales):
        config = {**run.config, "localeId": locale, "numLocales": num_locales}
        outcome, result = _run_one_locale(
            module,
            # fast=False: the shared module is already compiled.
            replace(run, config=config, fast=False),
            locale,
            locale_timeout=locale_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            drop_stragglers=drop_stragglers,
        )
        outcomes.append(outcome)
        if result is not None:
            result.report.locale_id = locale
            per_locale.append(result)
            snapshots.append(
                snapshot_from_result(
                    result,
                    source_sha256=digest,
                    num_threads=run.num_threads,
                    locale_id=locale,
                )
            )
        elif not allow_partial:
            raise AggregationError(
                f"locale {locale} failed after {outcome.attempts} attempts: "
                f"{outcome.error}"
            )

    missing = tuple(o.locale_id for o in outcomes if not o.succeeded)
    if not snapshots:
        raise AggregationError(
            f"all {num_locales} locales failed; nothing to aggregate "
            f"(last error: {outcomes[-1].error})"
        )
    merged_snapshot = merge_snapshots(
        snapshots, program=filename, missing_locales=missing
    )

    artifact_paths: list[str] = []
    if artifact_dir is not None:
        from ..artifact.format import write_artifact

        os.makedirs(artifact_dir, exist_ok=True)
        for snap in snapshots:
            path = os.path.join(
                artifact_dir, f"locale{snap.meta.locale_id}.cbp"
            )
            write_artifact(path, snap)
            artifact_paths.append(path)
        merged_path = os.path.join(artifact_dir, "merged.cbp")
        write_artifact(merged_path, merged_snapshot)
        artifact_paths.append(merged_path)

    return MultiLocaleResult(
        per_locale=per_locale,
        merged=merged_snapshot.report,
        outcomes=outcomes,
        requested_locales=num_locales,
        snapshots=snapshots,
        merged_snapshot=merged_snapshot,
        artifact_paths=artifact_paths,
    )


def _run_one_locale(
    module: Module,
    run: RunConfig,
    locale: int,
    locale_timeout: float | None,
    max_retries: int,
    retry_backoff: float,
    drop_stragglers: bool,
) -> tuple[LocaleOutcome, ProfileResult | None]:
    """One locale with bounded retry + backoff (the shared
    :func:`~repro.resilience.retrying.backoff_attempts` schedule);
    never raises."""
    plan = run.faults
    if plan is not None:
        run = replace(run, faults=plan.for_locale(locale))
    attempts = 0
    last_error: str | None = None
    last_status = "crashed"
    t_start = time.perf_counter()
    for attempt in backoff_attempts(max_retries, retry_backoff):
        attempts = attempt + 1
        t0 = time.perf_counter()
        try:
            if plan is not None and plan.should_crash(locale, attempt):
                raise LocaleCrashError(
                    locale, f"injected crash on locale {locale}"
                )
            delay = plan.straggle_seconds(locale) if plan is not None else 0.0
            if delay:
                time.sleep(delay)
            result = Profiler(module, run).profile()
        except ReproError as exc:
            last_error = str(exc)
            last_status = "crashed"
            continue
        elapsed = time.perf_counter() - t0
        if locale_timeout is not None and elapsed > locale_timeout:
            if drop_stragglers:
                last_error = str(
                    LocaleTimeoutError(
                        locale,
                        f"locale {locale} took {elapsed:.3f}s "
                        f"(budget {locale_timeout:.3f}s)",
                    )
                )
                last_status = "timeout"
                continue
            return (
                LocaleOutcome(locale, "straggler", attempts, elapsed),
                result,
            )
        return LocaleOutcome(locale, "ok", attempts, elapsed), result
    return (
        LocaleOutcome(
            locale,
            last_status,
            attempts,
            time.perf_counter() - t_start,
            error=last_error,
        ),
        None,
    )

"""Multi-locale profiling harness (paper step 3/4 + future work §VI).

The paper's experiments are single-locale, but its pipeline is designed
for more: step 3 is "embarrassingly parallel for multi-locale cases"
and step 4 aggregates per-node results.  This harness simulates an
L-locale run the way an SPMD launcher would: the *same program* runs
once per locale, parameterized by the config constants ``localeId`` and
``numLocales`` (the program partitions its own iteration space, as
Chapel block distributions do), and the per-locale blame reports merge
into one program-wide report.

Aggregation goes *through the artifact layer*: each locale's run
becomes a :class:`~repro.artifact.model.ProfileSnapshot` (persisted as
a per-locale ``.cbp`` when ``artifact_dir`` is given) and the
program-wide report is :func:`~repro.artifact.merge.merge_snapshots`
over them — the same merge ``repro merge`` applies to artifacts on
disk, so an in-process multi-locale profile and an offline merge of the
locale shards produce the identical report.  Shards a caller does not
have are recorded with ``repro merge --missing-locales``.

This is a simulation of the *aggregation* path only — it does not model
inter-locale communication (tracking data through GASNet is the paper's
future work, and ours).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from ..artifact.merge import merge_snapshots
from ..artifact.model import ProfileSnapshot, snapshot_from_result
from ..blame.report import BlameReport
from ..errors import AggregationError
from ..pipeline.stages import compile_stage
from ..run_config import RunConfig
from .profiler import ProfileResult, Profiler


@dataclass
class MultiLocaleResult:
    """Per-locale profiles plus the merged program-wide report."""

    per_locale: list[ProfileResult]
    merged: BlameReport
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


def profile_locales(
    source: str,
    num_locales: int,
    run: RunConfig = RunConfig(),
    filename: str = "program.chpl",
    artifact_dir: str | None = None,
) -> MultiLocaleResult:
    """Profiles ``source`` once per locale and merges the reports.

    The program must declare ``config const localeId: int`` and
    ``config const numLocales: int`` and partition its own work by
    them; every locale runs with ``run``, those two constants added to
    its ``config``.  ``run.faults`` degrades each locale's sample
    stream independently (:meth:`~repro.resilience.faults.FaultPlan.for_locale`).
    A locale whose program fails raises its error unchanged.

    ``artifact_dir`` persists each locale as ``locale<N>.cbp`` plus the
    merged profile as ``merged.cbp`` — the shards ``repro merge`` would
    combine to the same result offline.
    """
    if num_locales < 1:
        raise AggregationError("need at least one locale")
    from ..sampling.dataset import source_digest

    digest = source_digest(source)
    # One module for every locale: the locales run the same program, and
    # shared instruction ids make their shards comparable.
    module = compile_stage(source, filename, run.fast)
    per_locale: list[ProfileResult] = []
    snapshots: list[ProfileSnapshot] = []
    for locale in range(num_locales):
        config = {**run.config, "localeId": locale, "numLocales": num_locales}
        faults = run.faults.for_locale(locale) if run.faults else None
        # fast=False: the shared module is already compiled.
        locale_run = replace(run, config=config, fast=False, faults=faults)
        result = Profiler(module, locale_run).profile()
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
    merged_snapshot = merge_snapshots(snapshots, program=filename)

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
        snapshots=snapshots,
        merged_snapshot=merged_snapshot,
        artifact_paths=artifact_paths,
    )

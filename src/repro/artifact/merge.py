"""Merging profile artifacts (per-locale or per-run shards).

The multi-locale harness now aggregates *through* this module: each
locale's run becomes a :class:`~repro.artifact.model.ProfileSnapshot`
(optionally persisted as ``.cbp``), and the program-wide report is the
merge of those snapshots.  The blame math itself is unchanged — row
counts combine exactly as :func:`repro.blame.aggregate.merge_reports`
always combined them — the artifact layer adds the instance streams,
function catalogs, and degradation provenance so the merged profile
still renders every view (including code-centric, which needs
instances) without re-running anything.
"""

from __future__ import annotations

from ..blame.aggregate import merge_reports
from ..blame.postmortem import InstanceColumns, PostmortemResult
from ..errors import ArtifactError
from .model import ArtifactMeta, ProfileSnapshot

#: Fault-injection counters every injector version reports; they lead
#: the merged dict in this stable order.  Counters outside this tuple
#: (new injector modes) are preserved and summed too — first-seen order
#: after the known ones — instead of being silently dropped.
_FAULT_COUNTERS = (
    "examined", "dropped", "corrupted", "truncated", "tags_lost", "stripped",
)


def _merge_fault_stats(snaps: list[ProfileSnapshot]) -> dict | None:
    present = [s.fault_stats for s in snaps if s.fault_stats]
    if not present:
        return None
    out: dict = {k: 0 for k in _FAULT_COUNTERS}
    stripped: set[str] = set()
    for fs in present:
        for k, v in fs.items():
            if k == "stripped_functions":
                stripped.update(v or ())
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                out[k] = out.get(k, 0) + v
            # Non-numeric values (flags, labels) have no meaningful sum;
            # they are dropped as before.
    out["stripped_functions"] = sorted(stripped)
    return out


def merge_snapshots(
    snapshots: list[ProfileSnapshot],
    program: str | None = None,
    missing_locales: tuple[int, ...] = (),
) -> ProfileSnapshot:
    """Merges per-locale/per-run snapshots into one program-wide snapshot.

    ``missing_locales`` (locales that produced no artifact, as
    ``repro merge --missing-locales`` names them) is carried onto the
    merged report exactly as the in-memory aggregation always carried
    it — deduplicated and sorted, and unioned with coverage gaps the
    input snapshots already carry (an input that is itself a merge).  A single snapshot with no missing
    locales merges to itself — the single-locale base case stays the
    identity it has always been.

    Snapshots recorded from *different* program sources refuse to merge
    (that is a job for :mod:`repro.artifact.diff`, not aggregation).
    """
    if not snapshots:
        raise ArtifactError(
            "no artifacts to merge"
            + (
                f" (missing locales: {sorted(set(missing_locales))})"
                if missing_locales
                else ""
            )
        )
    digests = {
        s.meta.source_sha256
        for s in snapshots
        if s.meta.source_sha256 is not None
    }
    if len(digests) > 1:
        raise ArtifactError(
            "refusing to merge artifacts recorded from different sources: "
            + ", ".join(sorted(d[:12] + "…" for d in digests))
        )
    if len(snapshots) == 1 and not missing_locales:
        return snapshots[0]

    merged_report = merge_reports(
        [s.report for s in snapshots],
        program=program,
        missing_locales=missing_locales,
    )

    catalog = snapshots[0].catalog
    for s in snapshots[1:]:
        catalog = catalog.union(s.catalog)

    pms = [s.postmortem for s in snapshots]
    postmortem = PostmortemResult(
        columns=InstanceColumns.concat([pm.columns for pm in pms]),
        n_raw=sum(pm.n_raw for pm in pms),
        unknown=[p for pm in pms for p in pm.unknown],
        quarantined=[p for pm in pms for p in pm.quarantined],
        n_recovered=sum(pm.n_recovered for pm in pms),
        n_runtime=sum(pm.n_runtime for pm in pms),
    )

    first = snapshots[0].meta
    meta = ArtifactMeta(
        program=program or merged_report.program,
        source_sha256=next(iter(digests)) if digests else None,
        threshold=first.threshold,
        num_threads=first.num_threads,
        locale_id=-1,
        kind="merged",
        created_by=first.created_by,
    )
    return ProfileSnapshot(
        meta=meta,
        report=merged_report,
        catalog=catalog,
        postmortem=postmortem,
        fault_stats=_merge_fault_stats(snapshots),
    )

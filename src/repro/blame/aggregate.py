"""Cross-locale aggregation (paper step 4 / future-work hook).

The paper runs single-locale experiments but describes step 3 as
"embarrassingly parallel for multi-locale cases" with a final
aggregation across nodes.  This module implements that merge so the
pipeline is plural-ready: per-locale :class:`BlameReport`s combine by
summing per-(context, variable) sample counts against the summed
denominator.

The merge tolerates partial fleets: locales that produced no report
arrive via ``missing_locales`` and are carried on the merged report
(the views annotate them), instead of failing the whole aggregation.  Degradation side-channels (unknown buckets, quarantine
counts) sum across locales like any other counter.
"""

from __future__ import annotations

from collections import defaultdict

from ..errors import AggregationError
from .report import UNKNOWN_BUCKET, BlameReport, BlameRow, RunStats


def _merge_reason_counts(reports: list[BlameReport], attr: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for rep in reports:
        for reason, n in getattr(rep, attr).items():
            out[reason] = out.get(reason, 0) + n
    return out


def merge_reports(
    reports: list[BlameReport],
    program: str | None = None,
    missing_locales: tuple[int, ...] = (),
) -> BlameReport:
    """Merges per-locale reports into a whole-program report."""
    if not reports:
        raise AggregationError(
            "no reports to merge"
            + (f" (missing locales: {sorted(set(missing_locales))})" if missing_locales else "")
        )
    if len(reports) == 1 and not missing_locales:
        return reports[0]

    samples: dict[tuple[str, str], int] = defaultdict(int)
    meta: dict[tuple[str, str], BlameRow] = {}
    total_user = 0
    total_unknown = 0
    stats = RunStats()
    # A locale can be reported missing by several siblings (or by the
    # caller AND by an input that is itself a merge) — dedupe, and union
    # in coverage gaps the input reports already carry.
    missing: set[int] = set(missing_locales)
    for rep in reports:
        missing.update(rep.missing_locales)
    for rep in reports:
        total_user += rep.stats.user_samples
        total_unknown += rep.stats.unknown_samples
        stats.total_raw_samples += rep.stats.total_raw_samples
        stats.user_samples += rep.stats.user_samples
        stats.runtime_samples += rep.stats.runtime_samples
        stats.wall_seconds = max(stats.wall_seconds, rep.stats.wall_seconds)
        stats.dataset_bytes += rep.stats.dataset_bytes
        stats.stackwalk_cycles += rep.stats.stackwalk_cycles
        stats.postmortem_seconds += rep.stats.postmortem_seconds
        stats.unknown_samples += rep.stats.unknown_samples
        stats.quarantined_samples += rep.stats.quarantined_samples
        stats.recovered_samples += rep.stats.recovered_samples
        for row in rep.rows:
            if row.name == UNKNOWN_BUCKET:
                continue  # re-derived below from the summed counts
            key = (row.context, row.name)
            samples[key] += row.samples
            meta.setdefault(key, row)

    denominator = total_user + total_unknown
    rows = [
        BlameRow(
            name=meta[key].name,
            type_str=meta[key].type_str,
            blame=(n / denominator if denominator else 0.0),
            context=meta[key].context,
            samples=n,
            is_path=meta[key].is_path,
        )
        for key, n in samples.items()
    ]
    if total_unknown > 0:
        rows.append(
            BlameRow(
                name=UNKNOWN_BUCKET,
                type_str="",
                blame=(total_unknown / denominator if denominator else 0.0),
                context=UNKNOWN_BUCKET,
                samples=total_unknown,
                is_path=False,
            )
        )
    rows.sort(key=lambda r: (-r.samples, r.context, r.name))
    return BlameReport(
        program=program or reports[0].program,
        rows=rows,
        stats=stats,
        locale_id=-1,
        unknown_by_reason=_merge_reason_counts(reports, "unknown_by_reason"),
        quarantine_by_reason=_merge_reason_counts(reports, "quarantine_by_reason"),
        missing_locales=tuple(sorted(missing)),
    )

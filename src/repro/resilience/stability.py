"""Blame-rank stability under degraded telemetry.

The question the stability report answers (after TASKPROF's
perturbation validation and Cankur et al.'s noisy call-path ranking):
*if X % of the telemetry is lost or damaged, do we still point at the
same variables?*  Two metrics over the ranked blame rows:

* **top-N overlap** — fraction of the clean run's top N variables that
  survive in the degraded run's top N (order-insensitive; the "did the
  hotlist change" headline number);
* **Kendall-τ** — pairwise rank agreement over the rows both runs
  ranked (order-sensitive; 1.0 = same order, -1.0 = reversed).

The ``<unknown>`` bucket is excluded from rankings — it *is* the
degradation, not a variable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..blame.report import UNKNOWN_BUCKET, BlameReport


def ranking(report: BlameReport, limit: int | None = None) -> list[str]:
    """Ranked ``context::name`` keys, best-blamed first."""
    keys = [
        f"{r.context}::{r.name}"
        for r in report.rows
        if r.name != UNKNOWN_BUCKET
    ]
    return keys[:limit] if limit is not None else keys


def top_n_overlap(clean: BlameReport, degraded: BlameReport, n: int = 5) -> float:
    """|top-N(clean) ∩ top-N(degraded)| / |top-N(clean)| (1.0 if the
    clean run has no rows)."""
    top_clean = set(ranking(clean, n))
    if not top_clean:
        return 1.0
    top_degraded = set(ranking(degraded, n))
    return len(top_clean & top_degraded) / len(top_clean)


def kendall_tau(
    clean: BlameReport, degraded: BlameReport, limit: int = 20
) -> float:
    """Kendall-τ (tau-a) over the rows both runs ranked in their top
    ``limit``.  1.0 when fewer than two rows are shared (no evidence of
    disagreement)."""
    a = ranking(clean, limit)
    b = ranking(degraded, limit)
    pos_a = {k: i for i, k in enumerate(a)}
    pos_b = {k: i for i, k in enumerate(b)}
    common = [k for k in a if k in pos_b]
    if len(common) < 2:
        return 1.0
    concordant = discordant = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            da = pos_a[common[i]] - pos_a[common[j]]
            db = pos_b[common[i]] - pos_b[common[j]]
            if da * db > 0:
                concordant += 1
            else:
                discordant += 1
    total = concordant + discordant
    return (concordant - discordant) / total if total else 1.0


@dataclass(frozen=True)
class StabilityPoint:
    """One (fault class, rate) cell of a stability sweep."""

    fault: str
    rate: float
    completed: bool
    top5_overlap: float
    kendall_tau: float
    unknown_rate: float  # unknown / (user + unknown)
    quarantine_rate: float
    recovered: int

    def as_dict(self) -> dict:
        return {
            "fault": self.fault,
            "rate": self.rate,
            "completed": self.completed,
            "top5_overlap": round(self.top5_overlap, 4),
            "kendall_tau": round(self.kendall_tau, 4),
            "unknown_rate": round(self.unknown_rate, 4),
            "quarantine_rate": round(self.quarantine_rate, 4),
            "recovered": self.recovered,
        }


def compare_reports(
    fault: str,
    rate: float,
    clean: BlameReport,
    degraded: BlameReport,
    n: int = 5,
) -> StabilityPoint:
    """Scores one degraded run against its clean twin."""
    stats = degraded.stats
    denom = stats.user_samples + stats.unknown_samples
    return StabilityPoint(
        fault=fault,
        rate=rate,
        completed=True,
        top5_overlap=top_n_overlap(clean, degraded, n),
        kendall_tau=kendall_tau(clean, degraded),
        unknown_rate=stats.unknown_samples / denom if denom else 0.0,
        quarantine_rate=stats.quarantine_rate,
        recovered=stats.recovered_samples,
    )

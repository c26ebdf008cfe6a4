"""Confidence intervals on blame shares — treating blame as the sample
estimate it is.

The paper's per-variable blame percentages (Tables II-VI) are binomial
proportions: of ``n`` attributed user samples, ``k`` landed on this
variable.  This module puts intervals around those proportions so the
adaptive collection loop (:mod:`repro.sampling.adaptive`) can decide
*online* whether the ranking is statistically settled.  They are
Wilson score intervals (:func:`wilson_interval`): closed-form,
well-behaved at the extremes (k=0, k=n) where the naive normal
interval collapses, and deterministic (no resampling noise).

Degraded telemetry never *narrows* an interval: samples the post-mortem
quarantined or is still holding back as unresolved candidates carry
unknown blame mass, so :func:`widen_interval` stretches each bound by
that degraded fraction.  Monotone by construction — see
``tests/blame/test_confidence.py``.

Rank stability across checkpoints reuses the resilience sweep's
machinery (:func:`repro.resilience.stability.top_n_overlap` /
:func:`~repro.resilience.stability.kendall_tau`) — the question "is the
ranking settling?" is the same question as "did degradation move the
ranking?", asked between consecutive checkpoints instead of between a
clean and a degraded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

from ..blame.report import UNKNOWN_BUCKET, BlameReport
from ..resilience.stability import kendall_tau, top_n_overlap


@dataclass(frozen=True)
class BlameInterval:
    """One variable's blame share with its confidence bounds."""

    name: str
    context: str
    share: float  # point estimate k/n
    lo: float
    hi: float

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0

    @property
    def key(self) -> str:
        """The ``context::name`` ranking key (matches
        :func:`repro.resilience.stability.ranking`)."""
        return f"{self.context}::{self.name}"

    def as_row(self) -> list:
        """Compact artifact encoding: [key, share, lo, hi]."""
        return [
            self.key,
            round(self.share, 4),
            round(self.lo, 4),
            round(self.hi, 4),
        ]


def z_value(confidence: float) -> float:
    """Two-sided standard-normal critical value for ``confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1) (got {confidence})")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(
    k: int, n: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion ``k/n``.

    Returns ``(0.0, 1.0)`` (total uncertainty) when ``n == 0``.
    """
    if n <= 0:
        return (0.0, 1.0)
    z = z_value(confidence)
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    spread = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)) ** 0.5)
    return (max(0.0, center - spread), min(1.0, center + spread))


def widen_interval(
    lo: float, hi: float, degraded: int, n: int
) -> tuple[float, float]:
    """Stretches an interval by the degraded-telemetry fraction.

    ``degraded`` samples (quarantined at ingest or post-mortem, or still
    held back as unresolved repair candidates) could each have landed on
    this variable — or not.  Spreading that unknown mass over the
    denominator widens both bounds by ``degraded / (n + degraded)``;
    with no degradation the interval is returned unchanged.  Monotone:
    more degradation can only widen, never shrink.
    """
    if degraded <= 0 or n + degraded <= 0:
        return (lo, hi)
    w = degraded / (n + degraded)
    return (max(0.0, lo - w), min(1.0, hi + w))


def blame_intervals(
    report: BlameReport,
    total: int,
    confidence: float = 0.95,
    top_n: int = 5,
    degraded: int = 0,
) -> list[BlameInterval]:
    """Intervals for the report's top-``top_n`` ranked variables.

    ``total`` is the attribution denominator (user samples so far);
    ``degraded`` feeds :func:`widen_interval`.  The ``<unknown>`` bucket
    is skipped — it *is* the degradation, not a variable.
    """
    out: list[BlameInterval] = []
    for row in report.rows:
        if row.name == UNKNOWN_BUCKET:
            continue
        if len(out) >= top_n:
            break
        lo, hi = wilson_interval(row.samples, total, confidence)
        lo, hi = widen_interval(lo, hi, degraded, total)
        out.append(
            BlameInterval(
                name=row.name,
                context=row.context,
                share=row.samples / total if total else 0.0,
                lo=lo,
                hi=hi,
            )
        )
    return out


def max_half_width(intervals: list[BlameInterval]) -> float:
    """The widest half-width among ``intervals`` (1.0 when empty — no
    rows means no evidence, not certainty)."""
    if not intervals:
        return 1.0
    return max(iv.half_width for iv in intervals)


def resolved_kendall_tau(
    clean: BlameReport,
    degraded: BlameReport,
    limit: int = 20,
    min_gap: float = 0.005,
) -> float:
    """Kendall-τ over the pairs the profile actually *resolves*.

    Pairs whose blame shares differ by less than ``min_gap`` in the
    reference report are statistical ties: symmetric coordinate arrays
    (LULESH's ``hgfx``/``hgfy``/``hgfz``) have identical true shares,
    so their relative order is arbitrary in any finite run — two *full*
    runs at different sampling thresholds already order them
    differently.  Such pairs are excluded from concordance counting;
    the remaining pairs are scored as tau-a.  1.0 when no resolved
    pairs are shared (no evidence of disagreement).
    """
    share = {
        f"{r.context}::{r.name}": r.blame
        for r in clean.rows
        if r.name != UNKNOWN_BUCKET
    }
    from ..resilience.stability import ranking

    a = ranking(clean, limit)
    b = ranking(degraded, limit)
    pos_a = {k: i for i, k in enumerate(a)}
    pos_b = {k: i for i, k in enumerate(b)}
    common = [k for k in a if k in pos_b]
    concordant = discordant = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            ki, kj = common[i], common[j]
            if abs(share[ki] - share[kj]) < min_gap:
                continue  # unresolved tie — order is arbitrary
            da = pos_a[ki] - pos_a[kj]
            db = pos_b[ki] - pos_b[kj]
            if da * db > 0:
                concordant += 1
            else:
                discordant += 1
    total = concordant + discordant
    return (concordant - discordant) / total if total else 1.0


def rank_agreement(
    prev: BlameReport, cur: BlameReport, top_n: int = 5, limit: int = 20
) -> tuple[float, float]:
    """(top-N overlap, Kendall-τ) between consecutive checkpoints.

    Thin wrapper over the resilience stability metrics so the stopping
    rule and the fault-injection sweep share one definition of "same
    ranking"."""
    return (top_n_overlap(prev, cur, n=top_n), kendall_tau(prev, cur, limit=limit))

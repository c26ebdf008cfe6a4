"""Adaptive collection: profile in rounds, stop when the ranking settles.

The blame report is a sample estimate, and for most runs the variable
ranking is statistically settled long before the workload finishes.
This module adds the control loop the ROADMAP calls "the biggest
wall-clock lever for serving profile requests at interactive latency":

* the :class:`Monitor` delivers samples in **rounds** (its sink-mode
  batches of the run's ``batch_size``);
* each round is fed through the (optionally fault-degraded) stream into
  the streaming :class:`~repro.blame.postmortem.PostmortemConsumer`,
  and only the **newly consolidated instances** are attributed — the
  running total is combined with
  :func:`~repro.blame.attribution.merge_attributions`, so a checkpoint
  costs the delta, not a re-pass;
* the **stopping rule** then checks the interim report: every top-N
  blame share's Wilson interval (see :mod:`repro.blame.confidence`)
  has half-width ≤ ``ci_width``, the top-N set matches the previous
  checkpoint exactly, and Kendall-τ against it is ≥ :data:`TAU_MIN` —
  for ``stability_window`` *consecutive* checkpoints.  A
  **half-stream guard** additionally requires the current ranking to
  agree with the checkpoint taken at half the current sample count:
  consecutive checkpoints of a cumulative estimate always look
  locally stable, so without the guard a phase-structured program
  (LULESH's timestep loop) could stop inside its first phase — the
  half-stream comparison only passes once the ranking has survived a
  doubling of the evidence;
* when the rule fires, :exc:`StopSampling` is raised out of the sink,
  unwinds the interpreter (both engines deliver PMU overflows outside
  their error-wrapping regions, so the exception propagates cleanly),
  and :func:`~repro.pipeline.stages.collect_stage` assembles a partial
  run result — the samples after the stopping point are simply never
  generated.

Degraded telemetry (quarantined samples, unresolved repair candidates)
widens the intervals and therefore *delays* stopping; it can never
accelerate it.  The whole decision trail — one record per round — is
kept as an :class:`AdaptiveTrail`, surfaced in the views and persisted
as the optional ``a`` record of the ``.cbp`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..blame.attribution import (
    AttributionResult,
    BlameAttributor,
    merge_attributions,
)
from ..blame.confidence import blame_intervals, max_half_width, rank_agreement
from ..blame.report import BlameReport, RunStats, build_rows
from .monitor import StopSampling

#: Stop reasons recorded in the trail.
REASON_SETTLED = "ranking-settled"
REASON_EXHAUSTED = "stream-exhausted"

#: Rows whose intervals and ranking the rule watches.
TOP_N = 5
#: Kendall-τ floor between checkpoints (previous and half-stream).
TAU_MIN = 0.9


@dataclass(frozen=True)
class RoundRecord:
    """One checkpoint of the decision trail."""

    round: int  # 1-based
    n_raw: int  # raw samples fed so far (cumulative)
    n_user: int  # consolidated user instances so far
    max_half_width: float  # widest top-N CI half-width at this checkpoint
    top_overlap: float  # top-N overlap vs the previous checkpoint
    tau: float  # Kendall-τ vs the previous checkpoint
    half_overlap: float  # top-N overlap vs the half-stream checkpoint
    half_tau: float  # Kendall-τ vs the half-stream checkpoint
    degraded: int  # quarantined + unresolved candidates right now
    stable: bool  # did this checkpoint satisfy the rule?
    #: Compact top-N intervals: [key, share, lo, hi] per row.
    intervals: tuple = ()

    def as_dict(self) -> dict:
        return {
            "round": self.round,
            "n_raw": self.n_raw,
            "n_user": self.n_user,
            "max_half_width": round(self.max_half_width, 4),
            "top_overlap": round(self.top_overlap, 4),
            "tau": round(self.tau, 4),
            "half_overlap": round(self.half_overlap, 4),
            "half_tau": round(self.half_tau, 4),
            "degraded": self.degraded,
            "stable": self.stable,
            "intervals": [list(iv) for iv in self.intervals],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RoundRecord":
        return cls(
            round=d["round"],
            n_raw=d["n_raw"],
            n_user=d["n_user"],
            max_half_width=d["max_half_width"],
            top_overlap=d["top_overlap"],
            tau=d["tau"],
            half_overlap=d.get("half_overlap", 0.0),
            half_tau=d.get("half_tau", 0.0),
            degraded=d["degraded"],
            stable=d["stable"],
            intervals=tuple(tuple(iv) for iv in d.get("intervals", [])),
        )


@dataclass
class AdaptiveTrail:
    """The full decision trail of one adaptive run."""

    rounds: list[RoundRecord] = field(default_factory=list)
    stopped_early: bool = False
    stop_reason: str = REASON_EXHAUSTED
    #: Raw samples actually collected (== the monitor's accepted count).
    samples_collected: int = 0
    confidence: float = 0.95
    ci_width: float = 0.02
    stability_window: int = 3
    round_samples: int = 256
    #: Samples the full run would have taken, when a baseline is known
    #: (benchmarks fill this in; live runs cannot know it).
    samples_total: int | None = None

    def as_dict(self) -> dict:
        """JSON-stable form — this exact dict is the artifact's ``a``
        record payload, and what the views render (live and replayed
        paths both normalize to it, keeping renders byte-identical)."""
        out = {
            "rounds": [r.as_dict() for r in self.rounds],
            "stopped_early": self.stopped_early,
            "stop_reason": self.stop_reason,
            "samples_collected": self.samples_collected,
            "confidence": self.confidence,
            "ci_width": self.ci_width,
            "stability_window": self.stability_window,
            # ``top_n`` and ``method`` are constants; the ``a`` record's
            # schema keeps them.
            "top_n": TOP_N,
            "round_samples": self.round_samples,
            "method": "wilson",
        }
        if self.samples_total is not None:
            out["samples_total"] = self.samples_total
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "AdaptiveTrail":
        return cls(
            rounds=[RoundRecord.from_dict(r) for r in d.get("rounds", [])],
            stopped_early=d.get("stopped_early", False),
            stop_reason=d.get("stop_reason", REASON_EXHAUSTED),
            samples_collected=d.get("samples_collected", 0),
            confidence=d.get("confidence", 0.95),
            ci_width=d.get("ci_width", 0.02),
            stability_window=d.get("stability_window", 3),
            round_samples=d.get("round_samples", 256),
            samples_total=d.get("samples_total"),
        )


class AdaptiveController:
    """Round scheduler + stopping rule, packaged as a monitor sink.

    Wire-up (the profiler does this; tests can too)::

        consumer = PostmortemConsumer(module, tolerant=True, ...)
        ctl = AdaptiveController(run, static_info, consumer,
                                 degrade=injector.degrader(), program=...)
        coll = collect_stage(module, sink=ctl.sink,
                             batch_size=run.batch_size)
        pm, attribution = ctl.finish()  # == attribute(pm.instances) exactly

    ``run`` is the run's :class:`~repro.run_config.RunConfig`: its
    ``adaptive`` rule, and its ``batch_size`` as the round size.  The
    monitor delivers full rounds while the program runs; only the flush
    that ends a completed run delivers a shorter one.  That final
    partial round is recorded but never stops the run.

    Incremental-attribution invariant: ``finish()`` attributes the
    post-``finish`` recovered instances as one last delta and merges it
    with the per-round deltas; by the
    :func:`~repro.blame.attribution.merge_attributions` contract the
    merged result equals a single attribution pass over every
    consolidated instance — checked in ``tests/sampling/test_adaptive.py``.
    """

    def __init__(
        self,
        run,
        static_info,
        consumer,
        degrade=None,
        program: str = "",
    ) -> None:
        self.config = config = run.adaptive
        self.round_samples = run.batch_size
        self.consumer = consumer
        self.degrade = degrade
        self.program = program
        self.attributor = BlameAttributor(static_info)
        self.trail = AdaptiveTrail(
            stop_reason=REASON_EXHAUSTED,
            confidence=config.confidence,
            ci_width=config.ci_width,
            stability_window=config.stability_window,
            round_samples=run.batch_size,
        )
        self._attribution: AttributionResult | None = None
        self._n_attributed = 0
        self._n_fed = 0
        self._prev_report: BlameReport | None = None
        #: (n_raw, report) per checkpoint — the half-stream guard looks
        #: up the newest checkpoint at ≤ half the current sample count.
        self._history: list[tuple[int, BlameReport]] = []
        self._streak = 0
        self._finished = False

    def _degraded_count(self) -> int:
        """Samples whose blame is currently unknown: quarantined by
        post-mortem, plus repair candidates still held back."""
        return self.consumer.n_quarantined + self.consumer.pending_candidates

    def _attribute_delta(self) -> None:
        start = self._n_attributed
        self._n_attributed = self.consumer.n_consolidated
        if start == self._n_attributed and self._attribution is not None:
            return
        delta = self.attributor.attribute_paths(
            self.consumer.path_counts_since(start), self._n_attributed - start
        )
        if self._attribution is None:
            self._attribution = delta
        else:
            self._attribution = merge_attributions([self._attribution, delta])

    def _interim_report(self) -> BlameReport:
        """A checkpoint report: real rows, placeholder run stats (only
        the ranking and sample counts feed the rule)."""
        attr = self._attribution
        assert attr is not None
        return BlameReport(
            program=self.program,
            rows=build_rows(attr, unknown_samples=0),
            stats=RunStats(
                total_raw_samples=self._n_fed,
                user_samples=attr.total_samples,
                runtime_samples=0,
                wall_seconds=0.0,
            ),
        )

    def sink(self, batch) -> None:
        """One round: feed, attribute the delta, evaluate the rule."""
        cfg = self.config
        self._n_fed += len(batch)
        chunk = self.degrade(batch) if self.degrade is not None else batch
        self.consumer.feed(chunk)
        self._attribute_delta()
        report = self._interim_report()
        degraded = self._degraded_count()
        intervals = blame_intervals(
            report,
            total=self._attribution.total_samples,
            confidence=cfg.confidence,
            top_n=TOP_N,
            degraded=degraded,
        )
        hw = max_half_width(intervals)
        if self._prev_report is not None:
            overlap, tau = rank_agreement(self._prev_report, report, top_n=TOP_N)
        else:
            overlap, tau = 0.0, 0.0
        # Half-stream guard: agreement with the checkpoint at ≤ half
        # the current evidence (0.0 until one exists — can't stop).
        half_report = None
        for n_at, rep in reversed(self._history):
            if n_at * 2 <= self._n_fed:
                half_report = rep
                break
        if half_report is not None:
            half_overlap, half_tau = rank_agreement(
                half_report, report, top_n=TOP_N
            )
        else:
            half_overlap, half_tau = 0.0, 0.0
        stable = (
            self._prev_report is not None
            and bool(report.rows)
            and overlap == 1.0
            and tau >= TAU_MIN
            and half_overlap == 1.0
            and half_tau >= TAU_MIN
            and hw <= cfg.ci_width
        )
        self._streak = self._streak + 1 if stable else 0
        self._prev_report = report
        self._history.append((self._n_fed, report))
        n_round = len(self.trail.rounds) + 1
        self.trail.rounds.append(
            RoundRecord(
                round=n_round,
                n_raw=self._n_fed,
                n_user=self._n_attributed,
                max_half_width=hw,
                top_overlap=overlap,
                tau=tau,
                half_overlap=half_overlap,
                half_tau=half_tau,
                degraded=degraded,
                stable=stable,
                intervals=tuple(tuple(iv.as_row()) for iv in intervals),
            )
        )
        # A short round is the flush that ends a completed run: it is
        # recorded above but never stops anything.
        if (
            len(batch) == self.round_samples
            and n_round >= cfg.min_rounds
            and self._streak >= cfg.stability_window
        ):
            self.trail.stopped_early = True
            self.trail.stop_reason = REASON_SETTLED
            raise StopSampling(REASON_SETTLED, n_round)

    # -- completion ------------------------------------------------------------

    def finish(self):
        """Finalizes post-mortem + attribution; returns ``(pm,
        attribution)``.

        The consumer's ``finish()`` resolves held-back candidates, which
        may *append* recovered instances — those are attributed as one
        final delta and merged, so the result is exactly what one
        attribution pass over ``pm.instances`` would produce.
        """
        assert not self._finished, "finish() called twice"
        self._finished = True
        pm = self.consumer.finish()
        self._attribute_delta()
        self.trail.samples_collected = self._n_fed
        return pm, self._attribution

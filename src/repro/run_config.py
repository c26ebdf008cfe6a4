"""One validated run configuration, from the CLI to the Profiler.

The paper's Fig. 2 tool has three run settings: the PAPI_TOT_CYC
overflow threshold, the worker-thread count of its 12-core Xeon, and
``--fast``.  :class:`RunConfig` holds those together with the settings
this reproduction adds (batch size, adaptive stopping, fault injection,
blame-analysis options, PMU skid), keeps each default in one place,
and checks every value once, when it is built.  The CLI builds one per
run; :class:`~repro.tooling.profiler.Profiler`,
:func:`~repro.tooling.multilocale.profile_locales`,
:func:`~repro.tooling.profiler.run_only` and the bench harness read
it, and the saved dataset header and artifact metadata record its
threshold and thread count.

A bad value raises :class:`ValueError` carrying the message the CLI
prints for the matching flag.  Stdlib-only: building a config loads
neither the pipeline nor ``statistics``; only a fault spec string loads
the fault-plan parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .sampling.pmu import DEFAULT_THRESHOLD


def _at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1 (got {value})")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive stopping rule (:mod:`repro.sampling.adaptive`).
    A round is one :attr:`RunConfig.batch_size` batch."""

    #: Confidence level of the blame-share intervals.
    confidence: float = 0.95
    #: Max CI half-width on each top-N blame share before it counts as
    #: settled.
    ci_width: float = 0.02
    #: Consecutive settled checkpoints required before stopping.
    stability_window: int = 3
    #: Rounds that must elapse before the rule may fire at all.
    min_rounds: int = 2

    def __post_init__(self) -> None:
        for flag, value in (
            ("--confidence", self.confidence),
            ("--ci-width", self.ci_width),
        ):
            if not 0.0 < value < 1.0:
                raise ValueError(
                    f"{flag} must be in (0, 1) exclusive (got {value})"
                )
        _at_least_one("--stability-window", self.stability_window)
        _at_least_one("min_rounds", self.min_rounds)


@dataclass(frozen=True)
class RunConfig:
    """How one program is run, sampled and analyzed."""

    #: The program's ``config const`` overrides (name → value), read-only.
    config: Mapping[str, object] = field(default_factory=dict)
    #: Worker threads (the paper's 12-core Xeon).
    num_threads: int = 12
    #: PMU overflow threshold, in simulated cycles.
    threshold: int = DEFAULT_THRESHOLD
    #: Compile with the ``--fast`` pipeline (source text only).
    fast: bool = False
    #: Samples per batch the monitor hands the sink, so at most this
    #: many are resident; with ``adaptive``, one round.
    batch_size: int = 256
    #: Confidence-driven early stopping; None runs to completion.
    adaptive: AdaptiveConfig | None = None
    #: A :class:`~repro.resilience.faults.FaultPlan`, or its
    #: ``--inject-faults`` spec string (parsed here, once).
    faults: object = None
    #: Static blame-analysis options
    #: (:class:`~repro.blame.options.BlameOptions`; None = full analysis).
    blame_options: object = None
    #: PMU skid in instructions, and PEBS-style compensation for it.
    skid: int = 0
    skid_compensation: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "config", MappingProxyType(dict(self.config or {}))
        )
        _at_least_one("--threads", self.num_threads)
        _at_least_one("--threshold", self.threshold)
        _at_least_one("--batch-size", self.batch_size)
        if isinstance(self.faults, str):
            from .resilience.faults import FaultPlan

            try:
                object.__setattr__(self, "faults", FaultPlan.parse(self.faults))
            except ValueError as exc:
                raise ValueError(f"--inject-faults: {exc}") from None

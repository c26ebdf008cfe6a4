"""The monitoring process — our stand-in for running under Dyninst.

The interpreter delivers every PMU overflow here; the monitor performs
the "stack walk" (the interpreter already materialized it, from the
sampled frame's calling context — we charge its cost to the sampled
thread, which is the measured tool overhead the paper reports: 0.051
ms/walk against a 241 ms interval ≈ 0.02 %), looks up the worker task's
spawn record, whose glued pre-spawn stack every worker sample shares,
and appends a :class:`RawSample`.

The monitor keeps every sample it is handed: the interpreter gives it a
non-empty stack and a non-negative leaf for every non-idle sample.
Malformed samples come from fault injection or from a journal read
back, and post-mortem (:class:`~repro.blame.postmortem.
PostmortemConsumer`) quarantines them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pmu import PMUConfig
from .records import RawSample

#: Simulated cost of one stack walk, charged to the sampled thread.
STACKWALK_CYCLES = 40.0

#: ``_new_record(RawSample, fields)`` builds a record from a tuple of
#: all its fields in one C call, skipping the keyword-handling
#: ``RawSample.__new__``.
_new_record = tuple.__new__


@dataclass
class OverheadStats:
    """Tool-overhead accounting (paper §V's overhead paragraph)."""

    stackwalk_cycles_total: float = 0.0
    n_samples: int = 0

    def per_walk(self) -> float:
        return self.stackwalk_cycles_total / self.n_samples if self.n_samples else 0.0


class StopSampling(Exception):
    """Raised out of the monitor's sink to halt collection early
    (adaptive stopping); ``collect_stage`` ends the run there.

    Deliberately *not* a :class:`~repro.runtime.values.RuntimeError_`:
    the interpreter wraps those into program-level execution errors,
    whereas this is a measurement decision that must unwind past the
    event loop untouched.
    """

    def __init__(self, reason: str, rounds: int) -> None:
        super().__init__(f"adaptive stop after round {rounds}: {reason}")
        self.reason = reason
        self.rounds = rounds


class Monitor:
    """Collects raw samples during a run.

    Two modes:

    * **retain** (default): every accepted sample is appended to
      ``self.samples`` — the materialized reference composition and
      the engine identity checks read the stream afterwards;
    * **sink**: pass a ``sink`` callable and samples are delivered in
      batches of ``batch_size`` as collection proceeds, with only the
      current partial batch resident (``peak_resident`` records the
      high-water mark).  ``self.samples`` stays empty; call
      :meth:`flush` after the run to deliver the final partial batch.
      Every :class:`~repro.tooling.profiler.Profiler` run uses this.

    ``n_accepted`` counts samples in both modes (retain mode keeps
    ``n_accepted == len(self.samples)``), and sample indices are
    assigned from it — so the stream a sink sees is record-for-record
    identical to what retain mode would have stored.
    """

    def __init__(
        self,
        pmu: PMUConfig | None = None,
        charge_overhead: bool = True,
        sink=None,
        batch_size: int = 256,
    ) -> None:
        self.pmu = pmu or PMUConfig()
        self.samples: list[RawSample] = []
        self.overhead = OverheadStats()
        self.charge_overhead = charge_overhead
        self.sink = sink
        self.batch_size = batch_size
        #: Sample count (== ``len(samples)`` in retain mode).
        self.n_accepted = 0
        #: High-water mark of resident (undelivered) samples, sink mode.
        self.peak_resident = 0
        self._batch: list[RawSample] = []
        self._dataset_bytes = 0

    def take_sample(self, thread, task, stack, leaf_iid: int) -> None:
        """Called by the interpreter on PMU overflow, once per sample:
        builds the record positionally (an idle sample, ``task`` None,
        skips the spawn lookups) and stores it."""
        if task is None:
            sample = _new_record(
                RawSample,
                (self.n_accepted, thread.thread_id, -1, tuple(stack), leaf_iid, None, None, True),
            )
        else:
            spawn = task.spawn
            if spawn is None or task.is_main:
                tag = pre = None
            else:
                tag = spawn.tag
                pre = spawn.pre_spawn_stack
            sample = _new_record(
                RawSample,
                (self.n_accepted, thread.thread_id, task.task_id, tuple(stack), leaf_iid,
                 tag, pre, False),
            )
        self.n_accepted += 1
        self._dataset_bytes += 8 + 8 * len(sample.stack)
        if self.sink is None:
            self.samples.append(sample)
        else:
            batch = self._batch
            batch.append(sample)
            if len(batch) >= self.batch_size:
                self.flush()
        overhead = self.overhead
        overhead.n_samples += 1
        if self.charge_overhead:
            thread.clock += STACKWALK_CYCLES
            overhead.stackwalk_cycles_total += STACKWALK_CYCLES

    def flush(self) -> None:
        """Delivers any buffered partial batch to the sink (sink mode)."""
        if self.sink is not None and self._batch:
            batch, self._batch = self._batch, []
            # A batch only grows until it is delivered, so its size here
            # is the high-water mark since the last delivery.
            if len(batch) > self.peak_resident:
                self.peak_resident = len(batch)
            self.sink(batch)

    @property
    def n_samples(self) -> int:
        return self.n_accepted

    def sealed_stream(self) -> bytes:
        """The retained sample stream as CRC-framed record lines — the
        same ``{"c": crc, "s": …}`` framing the v2 dataset journal and
        the ``.cbp`` artifact use (:func:`repro.sampling.dataset.
        crc_line`), so two collections can be compared byte for byte."""
        from .dataset import sample_line

        quoted: dict[str, str] = {}
        return "".join(sample_line(s, quoted) + "\n" for s in self.samples).encode()

    def quarantine_by_reason(self) -> dict[str, int]:
        """Always empty: the monitor keeps every sample, and post-mortem
        is the one quarantine (``PostmortemResult.quarantine_by_reason``).
        Kept for callers that pass it to ``aggregate_stage``."""
        return {}

    def user_samples(self) -> list[RawSample]:
        """Samples that landed in program (non-idle) code."""
        return [s for s in self.samples if not s.is_idle]

    def dataset_size_bytes(self) -> int:
        """Approximate size of the raw sample dataset (each stack entry
        is one 8-byte address plus an 8-byte record header) — the paper
        reports 6–20 MB per run at its scale.  Accumulated at ingest, so
        it is exact in sink mode too, where the stream is not retained."""
        return self._dataset_bytes

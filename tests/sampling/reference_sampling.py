"""The per-sample path as it was before calling-context stacks: the
reference the product's sampling path is compared against.

Kept verbatim from the per-sample implementation (only renamed where a
product name would clash, and re-wired to the reference records):

* :class:`RefRawSample` and :class:`RefInstance` — the frozen records;
* :func:`ref_stack_walk` — ``Task.stack_walk``, walking the frames;
* :class:`RefMonitor` — ``Monitor.take_sample`` / ``_ingest`` /
  ``validate``, one frozen record per sample, with the ingest quarantine
  (:class:`QuarantinedSample`) the product monitor no longer has;
* :class:`RefPostmortemConsumer` — the consumer that builds one
  :class:`RefInstance` per user sample and keeps its recovery indexes
  eagerly (``_index_evidence`` on every intact path's first sight),
  where the product works the evidence out in ``finish()``;
* :func:`ref_attribute` — attribution through ``count_paths`` over the
  instances;
* :func:`ref_artifact_bytes` — the artifact encoder's loop over instances.

:class:`RefInterpreter` is the generic (oracle) loop with the reference
stack walks: every sample's stack and every spawn's pre-spawn stack
come from walking frames, never from a frame's calling context.
:func:`reference_profile` drives it the way ``Profiler.profile`` drives
the product, and :func:`product_profile` / :func:`compare` give the
pieces the tests and :func:`e2e_mismatches` (CI ``sampling-identity``)
compare: sealed streams, sample journals, post-mortem results,
attribution rows and artifact bytes.  Post-mortem provenance is compared
as ``(reason, sample index)`` pairs, the form the product keeps; the
degraded samples behind it come from the one
:class:`~repro.resilience.inject.FaultInjector` both sides share.
:func:`e2e_fault_mismatches` runs the comparison on degraded streams.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from heapq import heapify, heapreplace
from operator import attrgetter
from typing import TYPE_CHECKING

from repro import tool_version
from repro.artifact.format import (
    CBP_MAGIC,
    CBP_VERSION,
    _Interner,
    _TupleInterner,
    artifact_bytes,
)
from repro.artifact.model import (
    ArtifactMeta,
    FunctionCatalog,
    ProfileSnapshot,
    snapshot_from_result,
)
from repro.blame.attribution import (
    AttributionResult,
    BlameAttributor,
    VariableBlame,
    merge_attributions,
)
from repro.blame.postmortem import (
    REASON_LOST_TAG,
    REASON_MALFORMED,
    REASON_NO_DEBUG,
    REASON_TRUNCATED,
    _is_complete,
    _is_user_frame,
    _looks_stripped,
    _repair_stripped,
)
from repro.pipeline.stages import aggregate_stage, analyze_stage
from repro.resilience.inject import FaultInjector
from repro.run_config import RunConfig
from repro.runtime.interpreter import Interpreter
from repro.runtime.tasking import (
    SCHED_YIELD,
    Frame,
    SpawnRecord,
    Task,
    chunk_iteration_space,
)
from repro.runtime.values import RuntimeError_
from repro.sampling.adaptive import AdaptiveController
from repro.sampling.dataset import crc_line, sample_line
from repro.sampling.monitor import STACKWALK_CYCLES, Monitor, StopSampling
from repro.sampling.pmu import PMUConfig
from repro.sampling.stackwalk import StackResolver
from repro.tooling.profiler import Profiler

if TYPE_CHECKING:
    from repro.ir.module import Module

# -- records ---------------------------------------------------------------


@dataclass(frozen=True)
class RefRawSample:
    """One PMU-overflow sample."""

    index: int
    thread_id: int
    task_id: int  # -1 for idle samples
    #: Leaf-first (function_name, iid) pairs; iid -1 marks synthetic
    #: runtime frames (e.g. __sched_yield).
    stack: tuple[tuple[str, int], ...]
    leaf_iid: int
    #: Spawn tag of the worker task (None for the main task / idle).
    spawn_tag: int | None
    #: Pre-spawn stack recorded by the tasking-layer instrumentation.
    pre_spawn_stack: tuple[tuple[str, int], ...] | None
    is_idle: bool = False

    @property
    def leaf_function(self) -> str:
        return self.stack[0][0] if self.stack else "<unknown>"


@dataclass(frozen=True)
class RefInstance:
    """One consolidated sample: the paper's per-sample abstraction
    holding "module name, file name, line number and stack order
    number" for every frame."""

    index: int
    thread_id: int
    #: Leaf-first (function linkage name, iid); spans worker → spawn
    #: site → ... → main after gluing.
    frames: tuple[tuple[str, int], ...]
    #: Resolved (file, line) per frame.
    locations: tuple[tuple[str, int], ...]
    was_glued: bool
    spawn_tag: int | None
    #: True when the call path was repaired from degraded telemetry
    #: (suffix-match gluing) rather than recorded intact.
    was_recovered: bool = False




@dataclass(frozen=True)
class RefDegradedSample:
    """A sample that could not be (fully) consolidated, with provenance."""

    sample: object
    reason: str


@dataclass
class RefPostmortemResult:
    """Outcome of post-mortem processing."""

    instances: list[RefInstance]
    n_raw: int
    #: Unattributable samples, by provenance (tolerant mode only).
    unknown: list[RefDegradedSample] = field(default_factory=list)
    #: Malformed samples rejected before consolidation (tolerant mode).
    quarantined: list[RefDegradedSample] = field(default_factory=list)
    #: Instances whose call path was repaired by suffix-match recovery.
    n_recovered: int = 0
    #: Idle / pure-runtime samples (counted, not kept).
    n_runtime: int = 0

    @property
    def n_user(self) -> int:
        return len(self.instances)

    def path_counts(self) -> "Counter[tuple[tuple[str, int], ...]]":
        return count_paths(self.instances)

    @property
    def n_unknown(self) -> int:
        return len(self.unknown)

    def unknown_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.unknown:
            out[d.reason] = out.get(d.reason, 0) + 1
        return out

    def quarantine_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.quarantined:
            out[d.reason] = out.get(d.reason, 0) + 1
        return out


def count_paths(
    instances: Iterable[RefInstance],
) -> "Counter[tuple[tuple[str, int], ...]]":
    """Instances per distinct call path (``frames``), in first-seen
    order.  Passes whose result depends only on the path walk each key
    once, weighted by its count."""
    return Counter(map(attrgetter("frames"), instances))


#: First-pass outcomes of a call path.
_RUNTIME = "runtime"  # no user frame: counted as a runtime sample
_HELD = "held"  # degraded: held back as a recovery candidate
_INTACT = "intact"  # consolidated into an instance


@dataclass(frozen=True)
class _Path:
    """The first pass's outcome for one distinct call path.

    It reads nothing but the key ``(stack, pre_spawn_stack, spawn_tag
    is None)`` of a validated, non-idle sample, the module and the
    options, so every sample with that key shares it — tuples included.
    """

    outcome: str
    #: Trimmed user frames, leaf first.
    frames: tuple[tuple[str, int], ...] = ()
    #: Held paths: the walk had raw-address frames (picks the
    #: ``<unknown>`` reason if recovery fails).
    had_stripped: bool = False
    #: Resolved (file, line) per frame (intact paths only).
    locations: tuple[tuple[str, int], ...] = ()
    glued: bool = False
    repaired: bool = False
    #: Pre-spawn continuation a tagged sample of this intact, glued
    #: path teaches the spawn-tag index (tolerant mode only).
    pre: tuple[tuple[str, int], ...] | None = None


class RefPostmortemConsumer:
    """Single-pass incremental consumer over raw sample batches.

    Feed batches in collection order with :meth:`feed`; call
    :meth:`finish` exactly once to resolve held-back degraded
    candidates and obtain the :class:`RefPostmortemResult`.  With the
    default settings the result is bit-identical to the historical
    whole-list :func:`process_samples` on the same stream.

    Memory behaviour:

    * intact samples are consolidated and released immediately — only
      the emitted :class:`RefInstance` (and the deduplicated recovery
      evidence derived from it) survives the batch;
    * degraded samples wait in a held-back candidate buffer until
      :meth:`finish`, so evidence from anywhere in the run can repair
      them, as in the one-shot semantics;
    * idle/runtime samples are counted and dropped (the views only use
      the count);
    * the per-path memo holds one first-pass outcome per distinct call
      path, so it grows with the number of paths, not of samples.
    """

    def __init__(
        self,
        module: Module,
        options: object | None = None,
        tolerant: bool = False,
    ) -> None:
        from repro.blame.options import FULL

        self.module = module
        self.options = options or FULL
        self.tolerant = tolerant

        self._resolver = StackResolver(module)
        self._instances: list[RefInstance] = []
        self._n_runtime = 0
        self._quarantined: list[RefDegradedSample] = []
        self._unknown: list[RefDegradedSample] = []
        #: Held-back degraded samples, with their path's outcome.
        self._candidates: list[tuple[RefRawSample, _Path]] = []
        #: (stack, pre_spawn_stack, spawn_tag is None) → first-pass outcome.
        self._paths: dict[tuple, _Path] = {}
        self._n_raw = 0
        self._n_repaired = 0
        self._n_late_recovered = 0
        self._finished = False
        #: tag → pre-spawn stack, learned from intact samples (recovery).
        self._tag_index: dict[int, tuple[tuple[str, int], ...]] = {}
        #: outlined function → distinct pre-spawn continuations.
        self._pre_index: dict[str, set[tuple[tuple[str, int], ...]]] = {}
        #: frame → distinct continuations below it (suffix gluing).
        self._cont_index: dict[
            tuple[str, int], set[tuple[tuple[str, int], ...]]
        ] = {}

    # -- streaming interface -------------------------------------------------

    @property
    def pending_candidates(self) -> int:
        """Degraded samples currently held back for recovery."""
        return len(self._candidates)

    @property
    def n_consolidated(self) -> int:
        """Instances consolidated so far (grows monotonically; the
        adaptive checkpoints read deltas against this watermark)."""
        return len(self._instances)

    @property
    def n_quarantined(self) -> int:
        """Samples rejected so far (post-mortem quarantine only)."""
        return len(self._quarantined)

    def instances_since(self, start: int) -> "list[RefInstance]":
        """The consolidated instances appended at or after ``start`` —
        the incremental-attribution delta between two checkpoints."""
        return self._instances[start:]

    def feed(self, batch: "list[RefRawSample] | tuple[RefRawSample, ...]") -> None:
        """Consumes one batch of raw samples (collection order)."""
        if self._finished:
            raise RuntimeError("PostmortemConsumer.feed() after finish()")
        for s in batch:
            self._consume(s)

    def finish(self) -> RefPostmortemResult:
        """Resolves remaining candidates and returns the result."""
        if self._finished:
            raise RuntimeError("PostmortemConsumer.finish() called twice")
        self._finished = True
        for s, path in self._candidates:
            self._n_late_recovered += self._resolve_candidate(s, path)
        self._candidates = []
        return RefPostmortemResult(
            instances=self._instances,
            n_raw=self._n_raw,
            unknown=self._unknown,
            quarantined=self._quarantined,
            n_recovered=self._n_repaired + self._n_late_recovered,
            n_runtime=self._n_runtime,
        )

    # -- first pass: per sample, consolidated once per distinct path ---------

    def _consume(self, s: RefRawSample) -> None:
        self._n_raw += 1
        if s.is_idle:
            self._n_runtime += 1
            return
        if self.tolerant and RefMonitor.validate(s) is not None:
            self._quarantined.append(RefDegradedSample(s, REASON_MALFORMED))
            return
        key = (s.stack, s.pre_spawn_stack, s.spawn_tag is None)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self._first_sight(s)
        if path.outcome is _INTACT:
            if path.pre is not None:
                self._tag_index.setdefault(s.spawn_tag, path.pre)
            if path.repaired:
                self._n_repaired += 1
            self._instances.append(
                RefInstance(
                    index=s.index,
                    thread_id=s.thread_id,
                    frames=path.frames,
                    locations=path.locations,
                    was_glued=path.glued,
                    spawn_tag=s.spawn_tag,
                    was_recovered=path.repaired,
                )
            )
        elif path.outcome is _HELD:
            self._candidates.append((s, path))
        else:
            self._n_runtime += 1

    def _first_sight(self, s: RefRawSample) -> _Path:
        """Consolidates the call path of ``s``, seen for the first time.

        An intact path feeds the recovery evidence here, once: the
        indexes are sets, so later samples of the path would add
        nothing.
        """
        frames = list(s.stack)
        glued = False
        if (
            self.options.stack_gluing
            and s.spawn_tag is not None
            and s.pre_spawn_stack
        ):
            # Glue post-spawn to pre-spawn. The pre-spawn leaf is the
            # SpawnJoin site in the spawning function — it plays the
            # role of the call site for the outlined frame.
            frames = frames + list(s.pre_spawn_stack)
            glued = True

        # Trim synthetic/artificial frames that carry no user context
        # (e.g. a sample landing in module init keeps that frame only if
        # nothing else remains).
        had_stripped = self.tolerant and any(
            _looks_stripped(f) for f, _ in frames
        )
        repaired = False
        if had_stripped:
            frames, repaired = _repair_stripped(self._resolver, frames)
        user_frames = tuple(
            f for f in frames if _is_user_frame(self.module, f[0])
        )
        if not user_frames:
            # Paper: "when encountering samples of which the post-spawn
            # stack trace has no stack frames from the user code, we
            # trace back to its pre-spawn stack" — already glued above;
            # whatever still has no user frame is runtime-only.
            if had_stripped:
                return _Path(_HELD, had_stripped=True)
            return _Path(_RUNTIME)

        if self.tolerant and not _is_complete(self.module, user_frames):
            return _Path(_HELD, user_frames, had_stripped)

        pre = None
        if self.tolerant and glued:
            # Learn tag → pre-spawn only from *intact* paths (repaired
            # names, complete root), so a truncated or stripped
            # pre-spawn can never poison tag recovery.
            pre = (
                tuple(frames[len(s.stack):])
                if repaired
                else tuple(s.pre_spawn_stack)
            )
        if self.tolerant:
            self._index_evidence(user_frames, glued)
        return _Path(
            _INTACT,
            user_frames,
            locations=self._locations(user_frames),
            glued=glued,
            repaired=repaired,
            pre=pre,
        )

    def _locations(
        self, frames: tuple[tuple[str, int], ...]
    ) -> tuple[tuple[str, int], ...]:
        return tuple(
            (r.filename, r.line) for r in self._resolver.resolve_stack(frames)
        )

    def _index_evidence(
        self, frames: tuple[tuple[str, int], ...], glued: bool
    ) -> None:
        # Recovery evidence comes from first-pass instances only:
        # instances emitted *by* recovery never feed back into the
        # indexes (matching the historical snapshot-then-recover order,
        # which kept recovered paths from influencing later candidates).
        if glued:
            # The post-spawn part of a glued path ends at its outlined
            # frame; everything below is the pre-spawn continuation.
            for k, (func, _iid) in enumerate(frames):
                f = self.module.get_function(func)
                if f is not None and f.outlined_from is not None:
                    self._pre_index.setdefault(func, set()).add(frames[k + 1:])
                    break
        for k in range(len(frames) - 1):
            self._cont_index.setdefault(frames[k], set()).add(frames[k + 1:])

    # -- recovery (second pass over held-back candidates) --------------------

    def _resolve_candidate(self, s: RefRawSample, path: _Path) -> int:
        """Repairs one degraded stack from the accumulated evidence.

        Two indexes built from intact first-pass instances answer:

        * outlined-function → distinct pre-spawn stacks (for spawn-tag
          loss: if every intact sample of outlined body F glued to one
          pre-spawn stack, a tagless F sample glues to it too);
        * deepest-remaining-frame → distinct continuations (for
          truncated walks: the longest suffix below the matching frame
          of an intact path, adopted only when unambiguous).

        Returns 1 when the candidate was recovered, 0 when it landed in
        the ``<unknown>`` bucket.
        """
        user_frames = path.frames
        if not user_frames:
            # Nothing resolvable at all — stripped debug info.
            self._unknown.append(RefDegradedSample(s, REASON_NO_DEBUG))
            return 0
        root_func, _root_iid = user_frames[-1]
        rootf = self.module.get_function(root_func)
        is_outlined_root = rootf is not None and rootf.outlined_from is not None

        continuation: tuple[tuple[str, int], ...] | None = None
        if is_outlined_root:
            reason = REASON_LOST_TAG
            if s.spawn_tag is not None:
                # Tag survived but the pre-spawn stack was lost: glue
                # via another sample that recorded the same tag intact.
                continuation = self._tag_index.get(s.spawn_tag)
            if continuation is None:
                options = self._pre_index.get(root_func, set())
                if len(options) == 1:
                    continuation = next(iter(options))
        else:
            reason = REASON_NO_DEBUG if path.had_stripped else REASON_TRUNCATED
            options = self._cont_index.get(user_frames[-1], set())
            if len(options) == 1:
                continuation = next(iter(options))

        if continuation is not None:
            frames = user_frames + tuple(
                f for f in continuation if _is_user_frame(self.module, f[0])
            )
            if _is_complete(self.module, frames):
                self._instances.append(
                    RefInstance(
                        index=s.index,
                        thread_id=s.thread_id,
                        frames=frames,
                        locations=self._locations(frames),
                        was_glued=True,
                        spawn_tag=s.spawn_tag,
                        was_recovered=True,
                    )
                )
                return 1
        self._unknown.append(RefDegradedSample(s, reason))
        return 0


# -- stack walks and the monitor ---------------------------------------------


def ref_stack_walk(task) -> list[tuple[str, int]]:
    """Leaf-first (function name, iid) pairs — what the Dyninst-style
    monitor records per sample.  The leaf frame reports its current
    instruction; each caller frame reports the call site (its
    "return address")."""
    out: list[tuple[str, int]] = []
    frame = task.frame
    if frame is None:
        return out
    block = frame.block
    idx = min(frame.index, len(block.instructions) - 1)
    out.append((frame.function.name, block.instructions[idx].iid))
    while frame.caller is not None:
        assert frame.call_iid is not None
        out.append((frame.caller.function.name, frame.call_iid))
        frame = frame.caller
    return out


@dataclass(frozen=True)
class QuarantinedSample:
    """A sample rejected at ingest, kept for diagnosis."""

    reason: str  # "empty-stack" | "negative-leaf-iid"
    sample: RefRawSample


class RefMonitor(Monitor):
    """The monitor building one frozen :class:`RefRawSample` per sample,
    validating it at ingest and quarantining a malformed one (which the
    interpreter never hands over)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.quarantined: list[QuarantinedSample] = []

    def quarantine_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for q in self.quarantined:
            out[q.reason] = out.get(q.reason, 0) + 1
        return out

    def take_sample(self, thread, task, stack, leaf_iid: int) -> None:
        """Called by the interpreter on PMU overflow."""
        spawn_tag = None
        pre_spawn = None
        task_id = -1
        is_idle = task is None
        if task is not None:
            task_id = task.task_id
            if task.spawn is not None and not task.is_main:
                spawn_tag = task.spawn.tag
                pre_spawn = tuple(task.spawn.pre_spawn_stack)
        self._ingest(
            RefRawSample(
                index=self.n_accepted,
                thread_id=thread.thread_id,
                task_id=task_id,
                stack=tuple(stack),
                leaf_iid=leaf_iid,
                spawn_tag=spawn_tag,
                pre_spawn_stack=pre_spawn,
                is_idle=is_idle,
            )
        )
        # The walk happened regardless of whether the record survived
        # validation, so its cost is charged either way.
        self.overhead.n_samples += 1
        if self.charge_overhead:
            thread.clock += STACKWALK_CYCLES
            self.overhead.stackwalk_cycles_total += STACKWALK_CYCLES

    def _ingest(self, sample: RefRawSample) -> None:
        """Validates and stores one sample (injection wrappers hook here)."""
        reason = self.validate(sample)
        if reason is not None:
            self.quarantined.append(QuarantinedSample(reason, sample))
            return
        self.n_accepted += 1
        self._dataset_bytes += 8 + 8 * len(sample.stack)
        if self.sink is None:
            self.samples.append(sample)
            return
        self._batch.append(sample)
        if len(self._batch) > self.peak_resident:
            self.peak_resident = len(self._batch)
        if len(self._batch) >= self.batch_size:
            self.flush()

    @staticmethod
    def validate(sample: RefRawSample) -> str | None:
        """Returns a rejection reason, or None for a well-formed sample.

        Idle samples are exempt: their synthetic ``__sched_yield`` frame
        legitimately carries iid -1.
        """
        if sample.is_idle:
            return None
        if not sample.stack:
            return "empty-stack"
        if sample.leaf_iid < 0:
            return "negative-leaf-iid"
        return None


# -- the oracle loop with reference walks ------------------------------------


def ref_idle_stretch(self) -> Iterator:  # self: the Scheduler
    """Yields what :meth:`pick_thread` would pick, one idle tick at a
    time, while an idle thread is the minimum.  The caller advances
    each yielded thread's clock before asking for the next; the
    stretch ends when a busy thread is the minimum.

    Only idle threads tick, so busy clocks are fixed for the whole
    stretch: the idle threads wait in a heap keyed ``(clock,
    thread_id)`` like ``pick_thread``, and each pick costs one
    ``heapreplace`` instead of a ``min`` over every thread.
    """
    threads = self.threads
    busy = min(
        (t for t in threads if t.task is not None), key=attrgetter("clock")
    )
    # A thread_id never repeats, so comparisons stop before the
    # thread objects.
    stop = (busy.clock, busy.thread_id)
    heap = [(t.clock, t.thread_id, t) for t in threads if t.task is None]
    heapify(heap)
    while heap[0] < stop:
        thread = heap[0][2]
        yield thread
        heapreplace(heap, (thread.clock, thread.thread_id, thread))


class RefInterpreter(Interpreter):
    """The generic loop, sampling through :func:`ref_stack_walk`: each
    sample's stack and each spawn's glued pre-spawn stack (a list, as the
    tasking layer recorded it) are walked frame by frame, and idle
    threads tick one at a time (:func:`ref_idle_stretch`)."""

    def __init__(self, module, **kwargs) -> None:
        super().__init__(module, engine="generic", **kwargs)

    def _event_loop(self, main_task) -> None:
        sched = self.scheduler
        pick_thread = sched.pick_thread
        run_queue = sched.run_queue
        idle_cost = self.cost_model.idle_quantum
        threshold = self.sample_threshold
        sampling = threshold is not None and self.monitor is not None
        overflow = self._pmu_overflow
        while main_task.state != "done":
            thread = pick_thread()
            if thread.task is None:
                if run_queue:
                    task = run_queue.popleft()
                    task.state = "running"
                    # Causality: the task carries its virtual time; a
                    # thread whose clock lags fast-forwards (it was idle
                    # in the meantime — that time is sampled as idle,
                    # like the explicit __sched_yield ticks).
                    if task.last_clock > thread.clock:
                        delta = task.last_clock - thread.clock
                        thread.idle_cycles += delta
                        thread.clock = task.last_clock
                        self._accrue_pmu(thread, delta, idle=True)
                    thread.task = task
                elif sched.any_running:
                    # Idle stretch: the queue is empty and nothing can
                    # enqueue work until a busy thread runs, so tick the
                    # min-clock idle threads until a busy thread is min.
                    for thread in ref_idle_stretch(sched):
                        thread.clock += idle_cost
                        thread.idle_cycles += idle_cost
                        if sampling:
                            pmu = thread.pmu_counter + idle_cost
                            thread.pmu_counter = pmu
                            if pmu >= threshold:
                                overflow(thread, True)
                    thread = pick_thread()
                else:
                    raise RuntimeError_(
                        "scheduler stalled: no runnable tasks but main not done"
                    )
            self._run_quantum(thread)

    def _pmu_overflow(self, thread, idle: bool) -> None:
        """Drains due PMU overflows (the slow path: only entered when
        the inline ``>= threshold`` check fires)."""
        while thread.pmu_counter >= self.sample_threshold:
            thread.pmu_counter -= self.sample_threshold
            if idle or thread.task is None:
                self.monitor.take_sample(thread, None, [(SCHED_YIELD, -1)], -1)
            elif self.skid <= 0:
                task = thread.task
                stack = ref_stack_walk(task)
                self.monitor.take_sample(thread, task, stack, stack[0][1])
            else:
                # Skidded delivery: remember the precise overflow point,
                # deliver after `skid` more instructions of this thread.
                task = thread.task
                stack = ref_stack_walk(task)
                self._pending_skid.setdefault(thread.thread_id, []).append(
                    [self.skid, stack, stack[0][1], task]
                )

    def _deliver_skidded(self, thread) -> None:
        """Counts down pending skidded samples; delivers those due."""
        pending = self._pending_skid.get(thread.thread_id)
        if not pending:
            return
        due = []
        for entry in pending:
            entry[0] -= 1
            if entry[0] <= 0:
                due.append(entry)
        if not due:
            return
        self._pending_skid[thread.thread_id] = [
            e for e in pending if e[0] > 0
        ]
        for _, precise_stack, precise_iid, task in due:
            if self.skid_compensation:
                # PEBS-style precise sample: the overflow-time state.
                self.monitor.take_sample(thread, task, precise_stack, precise_iid)
            else:
                cur = thread.task
                if cur is None or cur.frame is None:
                    self.monitor.take_sample(
                        thread, task, precise_stack, precise_iid
                    )
                else:
                    stack = ref_stack_walk(cur)
                    self.monitor.take_sample(thread, cur, stack, stack[0][1])

    def _ex_spawn_join(self, thread, task, frame, instr) -> int:
        iterables = [self._val(frame, it) for it in instr.iterables]
        captures = [self._val(frame, c) for c in instr.captures]
        outlined = self.module.get_function(instr.outlined)
        if outlined is None:
            raise RuntimeError_(f"unknown outlined function {instr.outlined!r}")
        chunks = chunk_iteration_space(iterables, instr.kind, self.num_threads)
        cm = self.cost_model
        if not chunks:
            frame.index += 1
            return cm.spawn_base
        tag = self.scheduler.next_spawn_tag()
        # The pre-spawn stack is recorded *fully glued*: a worker task
        # spawning a nested parallel loop prepends its own pre-spawn
        # stack, so post-mortem gluing (paper §IV.C) always reaches main.
        pre_stack = ref_stack_walk(task)
        if task.spawn is not None and not task.is_main:
            pre_stack = pre_stack + list(task.spawn.pre_spawn_stack)
        record = SpawnRecord(
            tag=tag,
            kind=instr.kind,
            pre_spawn_stack=pre_stack,
            n_tasks=len(chunks),
        )
        self._spawn_records[tag] = record
        penalty = self._penalty(outlined)
        spawn_clock = thread.clock
        for chunk_args in chunks:
            wframe = Frame(outlined, None, None)
            wframe.penalty = penalty
            all_args = list(chunk_args) + captures
            for p, a in zip(outlined.params, all_args):
                wframe.regs[p.register.rid] = a
            wtask = Task(
                wframe, spawn=record, task_id=self.scheduler.next_task_id()
            )
            wtask.last_clock = spawn_clock  # workers start at spawn time
            self.scheduler.enqueue(wtask)
        # The spawner suspends at the join; it resumes after the spawn
        # instruction once all workers complete.
        frame.index += 1
        record.waiter = task
        task.state = "joining"
        thread.task = None
        return cm.spawn_base + cm.spawn_per_task * len(chunks)


# -- attribution -------------------------------------------------------------


def ref_attribute(static_info, instances: list[RefInstance]) -> AttributionResult:
    """``BlameAttributor.attribute`` over a list of instances."""
    attributor = BlameAttributor(static_info)
    rows: dict[tuple[str, str], VariableBlame] = {}

    # Attribution depends only on the call path: instances sharing a
    # frames tuple blame the same rows, so walk each distinct path
    # once, weighted by its multiplicity (hot loops produce the same
    # path thousands of times).  Paths keep first-seen order, so
    # rows are created in the same order as per-instance attribution.
    for frames, n in count_paths(instances).items():
        attributor._attribute_one(frames, rows, set(), n)

    return AttributionResult(rows=rows, total_samples=len(instances))


class RefAdaptiveController(AdaptiveController):
    """The adaptive controller attributing each round's instances."""

    def _attribute_delta(self) -> None:
        new = self.consumer.instances_since(self._n_attributed)
        self._n_attributed = self.consumer.n_consolidated
        if not new and self._attribution is not None:
            return
        delta = ref_attribute(self.attributor.static, new)
        if self._attribution is None:
            self._attribution = delta
        else:
            self._attribution = merge_attributions([self._attribution, delta])


# -- the artifact encoder ----------------------------------------------------


@dataclass
class RefSnapshotPostmortem:
    """A snapshot's post-mortem section holding its instance list."""

    instances: list[RefInstance]
    n_raw: int = 0
    n_runtime: int = 0
    n_recovered: int = 0
    unknown_provenance: list[tuple[str, int]] = field(default_factory=list)
    quarantine_provenance: list[tuple[str, int]] = field(default_factory=list)


def _encode(snapshot: ProfileSnapshot) -> list[str]:
    """Serializes a snapshot to its record lines (without newlines)."""
    meta = snapshot.meta
    strings = _Interner()
    stacks = _TupleInterner(strings)
    locs = _TupleInterner(strings)

    # Function catalog (name-sorted: deterministic bytes).
    fn_cols: dict[str, list] = {"nm": [], "sn": [], "of": [], "ar": []}
    for f in snapshot.catalog.entries():
        fn_cols["nm"].append(strings.add(f.name))
        fn_cols["sn"].append(strings.add(f.source_name))
        fn_cols["of"].append(
            -1 if f.outlined_from is None else strings.add(f.outlined_from)
        )
        fn_cols["ar"].append(1 if f.is_artificial else 0)

    # Instances, columnar over interned stack/location ids.
    inst_cols: dict[str, list] = {
        "ix": [], "th": [], "st": [], "lo": [], "gl": [], "tg": [], "rc": [],
    }
    for inst in snapshot.postmortem.instances:
        inst_cols["ix"].append(inst.index)
        inst_cols["th"].append(inst.thread_id)
        inst_cols["st"].append(stacks.add(inst.frames))
        inst_cols["lo"].append(locs.add(inst.locations))
        inst_cols["gl"].append(1 if inst.was_glued else 0)
        inst_cols["tg"].append(inst.spawn_tag)
        inst_cols["rc"].append(1 if inst.was_recovered else 0)

    pm = snapshot.postmortem
    provenance = {
        "n_raw": pm.n_raw,
        "n_runtime": pm.n_runtime,
        "n_recovered": pm.n_recovered,
        "u": [[strings.add(r), ix] for r, ix in pm.unknown_provenance],
        "q": [[strings.add(r), ix] for r, ix in pm.quarantine_provenance],
    }

    st = snapshot.report.stats
    stats = {
        "total_raw_samples": st.total_raw_samples,
        "user_samples": st.user_samples,
        "runtime_samples": st.runtime_samples,
        "wall_seconds": st.wall_seconds,
        "dataset_bytes": st.dataset_bytes,
        "stackwalk_cycles": st.stackwalk_cycles,
        "postmortem_seconds": st.postmortem_seconds,
        "unknown_samples": st.unknown_samples,
        "quarantined_samples": st.quarantined_samples,
        "recovered_samples": st.recovered_samples,
    }

    report = snapshot.report
    row_cols: dict[str, list] = {
        "nm": [], "ty": [], "cx": [], "sm": [], "bl": [], "pa": [],
    }
    for row in report.rows:
        row_cols["nm"].append(strings.add(row.name))
        row_cols["ty"].append(strings.add(row.type_str))
        row_cols["cx"].append(strings.add(row.context))
        row_cols["sm"].append(row.samples)
        row_cols["bl"].append(row.blame)
        row_cols["pa"].append(1 if row.is_path else 0)
    report_rec = {
        "program": report.program,
        "locale_id": report.locale_id,
        "missing": list(report.missing_locales),
        "unknown_by_reason": report.unknown_by_reason,
        "quarantine_by_reason": report.quarantine_by_reason,
        "rows": row_cols,
    }

    header = {
        "magic": CBP_MAGIC,
        "version": CBP_VERSION,
        "program": meta.program,
        "source_sha256": meta.source_sha256,
        "threshold": meta.threshold,
        "num_threads": meta.num_threads,
        "locale_id": meta.locale_id,
        "kind": meta.kind,
        "created_by": meta.created_by,
    }

    lines = [
        crc_line("h", header),
        crc_line("t", strings.strings),
        crc_line("f", fn_cols),
        crc_line("k", stacks.rows),
        crc_line("l", locs.rows),
        crc_line("i", inst_cols),
        crc_line("p", provenance),
        crc_line("s", stats),
        crc_line("b", report_rec),
    ]
    if snapshot.fault_stats is not None:
        lines.append(crc_line("d", snapshot.fault_stats))
    if snapshot.adaptive is not None:
        lines.append(crc_line("a", snapshot.adaptive))
    lines.append(crc_line("z", {"records": len(lines) + 1}))
    return lines



def ref_artifact_bytes(snapshot) -> bytes:
    return ("\n".join(_encode(snapshot)) + "\n").encode()


# -- driving both paths ------------------------------------------------------


@dataclass
class Outcome:
    """What one profiled run produced, as the comparison reads it."""

    stream: list  # every raw sample the monitor delivered, in order
    monitor: Monitor
    run_result: object
    postmortem: object
    attribution: AttributionResult
    artifact: bytes
    adaptive: dict | None


def _injector(module, run: RunConfig):
    faults = run.faults
    if faults is None or getattr(faults, "is_clean", True):
        return None
    return FaultInjector(faults, module=module)


def reference_profile(module, run: RunConfig) -> Outcome:
    """``Profiler(module, run).profile()`` through the reference path,
    with ``postmortem_seconds`` zeroed (``canonical_timings``)."""
    program = module.name
    static = analyze_stage(module, options=run.blame_options)
    injector = _injector(module, run)
    degrade = injector.degrader() if injector is not None else None
    consumer = RefPostmortemConsumer(module, options=static.options, tolerant=True)
    stream: list = []
    controller = None
    if run.adaptive is not None:
        controller = RefAdaptiveController(
            run, static, consumer, degrade=degrade, program=program
        )
        feed = controller.sink
    else:
        def feed(batch):
            consumer.feed(degrade(batch) if degrade is not None else batch)

    def sink(batch):
        stream.extend(batch)
        feed(batch)

    monitor = RefMonitor(PMUConfig(threshold=run.threshold), sink=sink, batch_size=run.batch_size)
    interp = RefInterpreter(
        module, config=run.config, num_threads=run.num_threads, monitor=monitor,
        sample_threshold=run.threshold, skid=run.skid,
        skid_compensation=run.skid_compensation,
    )
    try:
        run_result = interp.run()
    except StopSampling:
        run_result = interp.build_run_result()
    monitor.flush()
    if controller is not None:
        pm, attribution = controller.finish()
    else:
        pm = consumer.finish()
        attribution = ref_attribute(static, pm.instances)
    report = aggregate_stage(
        program, pm, attribution,
        wall_seconds=run_result.wall_seconds,
        dataset_bytes=monitor.dataset_size_bytes(),
        stackwalk_cycles=monitor.overhead.stackwalk_cycles_total,
        monitor_quarantine=monitor.quarantine_by_reason(),
    )
    adaptive = controller.trail.as_dict() if controller is not None else None
    snapshot = ProfileSnapshot(
        meta=ArtifactMeta(
            program=report.program,
            threshold=run.threshold,
            num_threads=run.num_threads,
            locale_id=report.locale_id,
            kind="profile",
            created_by=f"repro {tool_version()}",
        ),
        report=report,
        catalog=FunctionCatalog.from_module(module),
        postmortem=RefSnapshotPostmortem(
            instances=list(pm.instances),
            n_raw=pm.n_raw,
            n_runtime=pm.n_runtime,
            n_recovered=pm.n_recovered,
            unknown_provenance=[(d.reason, d.sample.index) for d in pm.unknown],
            quarantine_provenance=[(d.reason, d.sample.index) for d in pm.quarantined]
            + [(q.reason, q.sample.index) for q in monitor.quarantined],
        ),
        fault_stats=injector.stats.as_dict() if injector is not None else None,
        adaptive=adaptive,
    )
    return Outcome(
        stream, monitor, run_result, pm, attribution, ref_artifact_bytes(snapshot), adaptive
    )


def product_profile(module, run: RunConfig) -> Outcome:
    """``Profiler(module, run).profile()`` with its raw stream tapped."""
    stream: list = []
    result = Profiler(module, run).profile(tap=stream.extend)
    snapshot = snapshot_from_result(result, canonical_timings=True)
    return Outcome(
        stream, result.monitor, result.run_result, result.postmortem,
        result.attribution, artifact_bytes(snapshot),
        snapshot.adaptive,
    )


def sample_fields(s) -> tuple:
    """A raw sample of either record type as a plain tuple."""
    return (
        s.index, s.thread_id, s.task_id, s.stack, s.leaf_iid, s.spawn_tag,
        s.pre_spawn_stack, s.is_idle,
    )


def instance_fields(i) -> tuple:
    return (
        i.index, i.thread_id, i.frames, i.locations, i.was_glued, i.spawn_tag,
        i.was_recovered,
    )


def sealed(stream: list) -> bytes:
    """The stream as CRC-framed record lines: ``Monitor.sealed_stream``
    and the ``--save-samples`` journal's sample records."""
    quoted: dict[str, str] = {}
    return "".join(sample_line(s, quoted) + "\n" for s in stream).encode()


def _provenance(entries: list) -> list[tuple[str, int]]:
    """``(reason, sample index)`` per entry: the product stores these
    pairs, the reference the degraded samples themselves."""
    return [
        (d.reason, d.sample.index) if isinstance(d, RefDegradedSample) else d
        for d in entries
    ]


def _postmortem_view(pm) -> dict:
    return {
        "instances": [instance_fields(i) for i in pm.instances],
        "unknown": _provenance(pm.unknown),
        "quarantined": _provenance(pm.quarantined),
        "counts": (pm.n_raw, pm.n_user, pm.n_runtime, pm.n_recovered, pm.n_unknown),
        "path_counts": list(pm.path_counts().items()),
    }


def _rows_view(attribution: AttributionResult) -> tuple:
    rows = {
        key: (r.name, r.context, str(r.type), r.is_temp, r.samples, r.is_path)
        for key, r in attribution.rows.items()
    }
    return attribution.total_samples, rows


def _monitor_view(monitor: Monitor) -> tuple:
    return (
        monitor.n_accepted,
        monitor.quarantine_by_reason(),
        monitor.dataset_size_bytes(),
        monitor.overhead.n_samples,
        monitor.overhead.stackwalk_cycles_total,
        monitor.peak_resident,
    )


def _run_view(r) -> tuple:
    return (
        tuple(r.output), r.wall_seconds, r.total_cycles, r.idle_cycles,
        r.busy_cycles, r.instructions_executed,
    )


def compare(product: Outcome, reference: Outcome) -> list[str]:
    """The pieces on which two outcomes differ (empty when identical)."""
    checks = {
        "sealed stream": (sealed(product.stream), sealed(reference.stream)),
        "monitor": (_monitor_view(product.monitor), _monitor_view(reference.monitor)),
        "run result": (_run_view(product.run_result), _run_view(reference.run_result)),
        "postmortem": (_postmortem_view(product.postmortem), _postmortem_view(reference.postmortem)),
        "attribution": (_rows_view(product.attribution), _rows_view(reference.attribution)),
        "artifact": (product.artifact, reference.artifact),
        "adaptive trail": (product.adaptive, reference.adaptive),
    }
    return [name for name, (a, b) in checks.items() if a != b]


def mismatches(module, run: RunConfig) -> list[str]:
    return compare(product_profile(module, run), reference_profile(module, run))


# -- the benchmark inputs ----------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
E2E = os.path.join(ROOT, "benchmarks", "e2e")


def _workloads():
    """``benchmarks/e2e/workloads.py``: inputs, thresholds, threads."""
    import sys

    if E2E not in sys.path:
        sys.path.insert(0, E2E)
    import workloads

    return workloads


def _e2e_programs():
    """``(workload, path, module, config)`` of the 13
    ``benchmarks/e2e/inputs`` programs.  Reads the inputs; writes
    nothing."""
    from repro.pipeline.stages import compile_stage
    from repro.tooling.cli import _parse_config

    programs = [("clomp_dense", "clomp.chpl", {}), ("lulesh_profile", "lulesh.chpl", {})]
    wl = _workloads()
    sweep = _parse_config(list(wl.SWEEP_CONFIG))
    programs += [
        ("variant_sweep", os.path.join("sweep", stem + ".chpl"), sweep)
        for stem in wl.SWEEP_VARIANTS
    ]
    for workload, rel, config in programs:
        with open(os.path.join(wl.INPUTS, rel)) as f:
            source = f.read()
        yield workload, rel, compile_stage(source, os.path.basename(rel)), config


def _checked(label: str, module, run: RunConfig) -> list[str]:
    bad = mismatches(module, run)
    print(f"  sampling check {label}: {'MISMATCH ' + ', '.join(bad) if bad else 'ok'}",
          flush=True)
    return [f"{label}: {', '.join(bad)}"] if bad else []


def e2e_mismatches() -> list[str]:
    """Product ≢ reference on the 13 ``benchmarks/e2e/inputs`` programs,
    each at its workload's four PMU thresholds (clean runs, default
    batch size)."""
    wl = _workloads()
    out = []
    for workload, rel, module, config in _e2e_programs():
        for thr in wl.THRESHOLDS[workload]:
            run = RunConfig(config=config, num_threads=wl.THREADS, threshold=thr)
            out += _checked(f"{rel} at threshold {thr}", module, run)
    return out


#: Each fault class alone, and all five together (``e2e_fault_mismatches``).
E2E_FAULTS = (
    "drop=0.1,seed=1",
    "corrupt=0.1,seed=1",
    "truncate=0.1:3,seed=1",
    "tagloss=0.1,seed=1",
    "strip=0.1,seed=1",
    "drop=0.1,corrupt=0.1,truncate=0.1:3,tagloss=0.1,strip=0.1,seed=1",
)


def e2e_fault_mismatches() -> list[str]:
    """Product ≢ reference on degraded streams: the 13
    ``benchmarks/e2e/inputs`` programs at their workload's first PMU
    threshold, under each plan of :data:`E2E_FAULTS`."""
    wl = _workloads()
    out = []
    for workload, rel, module, config in _e2e_programs():
        thr = wl.THRESHOLDS[workload][0]
        for faults in E2E_FAULTS:
            run = RunConfig(config=config, num_threads=wl.THREADS, threshold=thr, faults=faults)
            out += _checked(f"{rel} at threshold {thr} with {faults}", module, run)
    return out

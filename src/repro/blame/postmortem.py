"""Post-mortem sample processing (paper §IV.C, steps one and two).

Converts raw monitor samples into consolidated "instances": resolves
addresses to source context, glues worker-task post-spawn stacks to the
recorded pre-spawn stacks via the spawn tag, and trims synthetic runtime
frames — producing "a complete, clean call path of the application w/o
libraries for each sample".

Tolerant mode (``tolerant=True``) additionally survives degraded
telemetry instead of mis-attributing it:

* malformed samples (empty walk, negative leaf iid) are quarantined
  into a side channel with per-reason counts;
* incomplete stacks are repaired where possible — a lost spawn tag is
  recovered from other samples of the same outlined function, and a
  truncated walk is extended by longest-suffix match against intact
  call paths from the same run;
* whatever cannot be repaired lands in an explicit ``<unknown>`` blame
  bucket with a provenance reason (``truncated-stack``,
  ``lost-spawn-tag``, ``no-debug-info``) rather than vanishing or
  skewing the attributed rows.

On a clean stream the tolerant pipeline is a zero-cost abstraction: it
produces bit-identical instances to strict mode.

Processing is **streaming**: :class:`PostmortemConsumer` is a
single-pass incremental consumer over sample batches — feed it batches
as the monitor hands them over and call :meth:`~PostmortemConsumer.finish`
once, so no stage ever needs the whole ``list[RawSample]`` resident.
The recovery evidence (spawn-tag index, continuation suffixes) is
accumulated incrementally from intact instances as they are emitted;
degraded candidates wait in a held-back buffer until ``finish()``.
:func:`process_samples` is the one-shot wrapper (one batch) and
behaves exactly as it always has.

Consolidation is done **once per distinct call path**: everything the
first pass derives from a sample's ``(stack, pre_spawn_stack,
spawn_tag is None)`` key is memoized on the consumer, so a repeat of a
hot path costs a validation, a dict lookup and one row of
:class:`InstanceColumns` holding the path's id.  :class:`Instance`
objects are built only for callers that walk them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from ..sampling.stackwalk import StackResolver

if TYPE_CHECKING:
    from ..ir.module import Module
    from ..sampling.records import RawSample

#: Provenance reasons for unattributable / rejected samples.
REASON_TRUNCATED = "truncated-stack"
REASON_LOST_TAG = "lost-spawn-tag"
REASON_NO_DEBUG = "no-debug-info"
REASON_MALFORMED = "malformed-sample"


def _looks_stripped(name: str) -> bool:
    # Raw-address frame names (debug info stripped) render as 0x....
    return name.startswith("0x")


@dataclass(frozen=True)
class Instance:
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


#: A call path or location list: leaf-first ``(name, int)`` pairs.
FrameTuple = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class InstanceColumns:
    """Consolidated instances as columns: one list per :class:`Instance`
    field, with call paths and locations as ids into the ``stacks`` and
    ``locations`` tables.

    The one instance store.  :class:`PostmortemConsumer` appends one row
    per user sample, and its path id indexes both tables (its
    ``stack_id`` and ``location_id`` are one list); a decoded artifact
    fills it from its instance section, whose ids
    :func:`~repro.artifact.format.read_artifact` has checked, so
    :meth:`build` cannot fail.  Two ids may name equal frames (merged
    snapshots), so readers group by the frames, never by the id.
    """

    index: list[int]
    thread_id: list[int]
    stack_id: list[int]
    location_id: list[int]
    glued: list[int]
    spawn_tag: list[int | None]
    recovered: list[int]
    stacks: list[FrameTuple]
    locations: list[FrameTuple]

    @classmethod
    def empty(cls) -> "InstanceColumns":
        """Columns a consumer appends to: one path-id list for both
        ``stack_id`` and ``location_id``."""
        path_ids: list[int] = []
        return cls([], [], path_ids, path_ids, [], [], [], [], [])

    @classmethod
    def concat(cls, parts: "list[InstanceColumns]") -> "InstanceColumns":
        """The rows of ``parts`` in order, each part's ids offset past
        the tables of the parts before it."""
        out = cls([], [], [], [], [], [], [], [], [])
        for c in parts:
            st, lo = len(out.stacks), len(out.locations)
            out.index.extend(c.index)
            out.thread_id.extend(c.thread_id)
            out.stack_id.extend([st + i for i in c.stack_id])
            out.location_id.extend([lo + i for i in c.location_id])
            out.glued.extend(c.glued)
            out.spawn_tag.extend(c.spawn_tag)
            out.recovered.extend(c.recovered)
            out.stacks.extend(c.stacks)
            out.locations.extend(c.locations)
        return out

    def __len__(self) -> int:
        return len(self.stack_id)

    def path_counts(self, start: int = 0) -> "Counter[FrameTuple]":
        """:func:`count_paths` of the instances from row ``start`` on,
        read off the stack-id column."""
        ids = self.stack_id[start:] if start else self.stack_id
        stacks = self.stacks
        out: Counter[FrameTuple] = Counter()
        for sid, n in Counter(ids).items():
            out[stacks[sid]] += n
        return out

    def build(self, start: int = 0) -> "list[Instance]":
        """The :class:`Instance` of every row from ``start`` on."""
        stacks, locations = self.stacks, self.locations
        return [
            Instance(
                index=ix,
                thread_id=th,
                frames=stacks[st],
                locations=locations[lo],
                was_glued=bool(gl),
                spawn_tag=tg,
                was_recovered=bool(rc),
            )
            for ix, th, st, lo, gl, tg, rc in zip(
                self.index[start:], self.thread_id[start:],
                self.stack_id[start:], self.location_id[start:],
                self.glued[start:], self.spawn_tag[start:], self.recovered[start:],
            )
        ]


@dataclass(frozen=True)
class DegradedSample:
    """A sample that could not be (fully) consolidated, with provenance."""

    sample: RawSample
    reason: str


@dataclass(eq=False)
class PostmortemResult:
    """Outcome of post-mortem processing.

    The consolidated instances are held as :class:`InstanceColumns`;
    :attr:`instances` builds the :class:`Instance` list on first access,
    for the callers that walk instances.  Two results are equal when
    their instances and counts are.
    """

    columns: InstanceColumns
    n_raw: int
    #: Unattributable samples, by provenance (tolerant mode only).
    unknown: list[DegradedSample] = field(default_factory=list)
    #: Malformed samples rejected before consolidation (tolerant mode).
    quarantined: list[DegradedSample] = field(default_factory=list)
    #: Instances whose call path was repaired by suffix-match recovery.
    n_recovered: int = 0
    #: Idle / pure-runtime samples (counted, not kept).
    n_runtime: int = 0
    _built: "list[Instance] | None" = field(default=None, init=False, repr=False)

    @property
    def instances(self) -> list[Instance]:
        if self._built is None:
            self._built = self.columns.build()
        return self._built

    @property
    def n_user(self) -> int:
        return len(self.columns)

    def path_counts(self) -> "Counter[tuple[tuple[str, int], ...]]":
        return self.columns.path_counts()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostmortemResult):
            return NotImplemented
        return (
            self.instances == other.instances
            and self.n_raw == other.n_raw
            and self.unknown == other.unknown
            and self.quarantined == other.quarantined
            and self.n_recovered == other.n_recovered
            and self.n_runtime == other.n_runtime
        )

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
    instances: Iterable[Instance],
) -> "Counter[tuple[tuple[str, int], ...]]":
    """Instances per distinct call path (``frames``), in first-seen
    order.  Passes whose result depends only on the path walk each key
    once, weighted by its count."""
    return Counter(map(attrgetter("frames"), instances))


def _is_user_frame(module: Module, func: str) -> bool:
    # Synthetic runtime frames (__sched_yield) have no module function.
    # Module init counts as user context: Chapel module-level variable
    # initialization (MiniMD's Pos/Bins) runs there and its samples must
    # be attributable.
    return module.get_function(func) is not None


#: First-pass outcomes of a call path.
_RUNTIME = "runtime"  # no user frame: counted as a runtime sample
_HELD = "held"  # degraded: held back as a recovery candidate
_INTACT = "intact"  # consolidated into an instance


class _Path(NamedTuple):
    """The first pass's outcome for one distinct call path.

    It reads nothing but the key ``(stack, pre_spawn_stack, spawn_tag
    is None)`` of a validated, non-idle sample, the module and the
    options, so every sample with that key shares it — tuples included.
    A named tuple, so the per-sample path unpacks it in one step.
    """

    outcome: str
    #: Intact paths: the id of the trimmed user frames in the
    #: consumer's columns (-1 otherwise).
    pid: int = -1
    #: Intact paths: the ``glued`` and ``recovered`` column values.
    glued: int = 0
    repaired: int = 0
    #: Pre-spawn continuation a tagged sample of this intact, glued
    #: path teaches the spawn-tag index (tolerant mode only).
    pre: tuple[tuple[str, int], ...] | None = None
    #: Held paths: the trimmed user frames, leaf first.
    frames: tuple[tuple[str, int], ...] = ()
    #: Held paths: the walk had raw-address frames (picks the
    #: ``<unknown>`` reason if recovery fails).
    had_stripped: bool = False


_RUNTIME_PATH = _Path(_RUNTIME)


class PostmortemConsumer:
    """Single-pass incremental consumer over raw sample batches.

    Feed batches in collection order with :meth:`feed`; call
    :meth:`finish` exactly once to resolve held-back degraded
    candidates and obtain the :class:`PostmortemResult`.  With the
    default settings the result is bit-identical to the historical
    whole-list :func:`process_samples` on the same stream.

    Memory behaviour:

    * intact samples are consolidated and released immediately — only
      their row of :class:`InstanceColumns` (and the deduplicated
      recovery evidence derived from the path) survives the batch;
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
        from .options import FULL

        self.module = module
        self.options = options or FULL
        self.tolerant = tolerant

        self._resolver = StackResolver(module)
        self._columns = InstanceColumns.empty()
        #: Trimmed user frames → path id (their row in the tables).
        self._path_ids: dict[FrameTuple, int] = {}
        self._n_runtime = 0
        self._quarantined: list[DegradedSample] = []
        self._unknown: list[DegradedSample] = []
        #: Held-back degraded samples, with their path's outcome.
        self._candidates: list[tuple[RawSample, _Path]] = []
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
        return len(self._columns)

    @property
    def n_quarantined(self) -> int:
        """Samples rejected so far (post-mortem quarantine only)."""
        return len(self._quarantined)

    def instances_since(self, start: int) -> "list[Instance]":
        """The consolidated instances appended at or after ``start`` —
        the incremental-attribution delta between two checkpoints."""
        return self._columns.build(start)

    def path_counts_since(self, start: int) -> "Counter[FrameTuple]":
        """:func:`count_paths` of :meth:`instances_since`, read off the
        columns."""
        return self._columns.path_counts(start)

    def feed(self, batch: "list[RawSample] | tuple[RawSample, ...]") -> None:
        """Consumes one batch of raw samples (collection order).

        Per sample: an idle one is counted; a malformed one (tolerant
        mode; the checks of :meth:`~repro.sampling.monitor.Monitor.
        validate`) is quarantined; any other looks up its path's
        first-pass outcome, and an intact path appends one row.
        """
        if self._finished:
            raise RuntimeError("PostmortemConsumer.feed() after finish()")
        self._n_raw += len(batch)
        tolerant = self.tolerant
        paths = self._paths
        tag_index = self._tag_index
        cols = self._columns
        add_index = cols.index.append
        add_thread = cols.thread_id.append
        add_path = cols.stack_id.append
        add_glued = cols.glued.append
        add_tag = cols.spawn_tag.append
        add_recovered = cols.recovered.append
        n_runtime = 0
        for s in batch:
            index, thread_id, _task, stack, leaf_iid, tag, pre, idle = s
            if idle:
                n_runtime += 1
                continue
            if tolerant and (not stack or leaf_iid < 0):
                self._quarantined.append(DegradedSample(s, REASON_MALFORMED))
                continue
            key = (stack, pre, tag is None)
            path = paths.get(key)
            if path is None:
                path = paths[key] = self._first_sight(s)
            outcome, pid, glued, repaired, learn, _, _ = path
            if outcome is _INTACT:
                if learn is not None:
                    tag_index.setdefault(tag, learn)
                if repaired:
                    self._n_repaired += 1
                add_index(index)
                add_thread(thread_id)
                add_path(pid)
                add_glued(glued)
                add_tag(tag)
                add_recovered(repaired)
            elif outcome is _HELD:
                self._candidates.append((s, path))
            else:
                n_runtime += 1
        self._n_runtime += n_runtime

    def finish(self) -> PostmortemResult:
        """Resolves remaining candidates and returns the result."""
        if self._finished:
            raise RuntimeError("PostmortemConsumer.finish() called twice")
        self._finished = True
        for s, path in self._candidates:
            self._n_late_recovered += self._resolve_candidate(s, path)
        self._candidates = []
        return PostmortemResult(
            columns=self._columns,
            n_raw=self._n_raw,
            unknown=self._unknown,
            quarantined=self._quarantined,
            n_recovered=self._n_repaired + self._n_late_recovered,
            n_runtime=self._n_runtime,
        )

    # -- first pass: consolidated once per distinct path ---------------------

    def _path_id(self, frames: FrameTuple) -> int:
        """The id of ``frames`` in the columns' tables, adding them (and
        their resolved locations) on first sight."""
        pid = self._path_ids.get(frames)
        if pid is None:
            cols = self._columns
            pid = self._path_ids[frames] = len(cols.stacks)
            cols.stacks.append(frames)
            cols.locations.append(self._locations(frames))
        return pid

    def _first_sight(self, s: RawSample) -> _Path:
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
            return _RUNTIME_PATH

        if self.tolerant and not _is_complete(self.module, user_frames):
            return _Path(_HELD, frames=user_frames, had_stripped=had_stripped)

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
            self._path_id(user_frames),
            glued=1 if glued else 0,
            repaired=1 if repaired else 0,
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

    def _resolve_candidate(self, s: RawSample, path: _Path) -> int:
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
            self._unknown.append(DegradedSample(s, REASON_NO_DEBUG))
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
                cols = self._columns
                cols.index.append(s.index)
                cols.thread_id.append(s.thread_id)
                cols.stack_id.append(self._path_id(frames))
                cols.glued.append(1)
                cols.spawn_tag.append(s.spawn_tag)
                cols.recovered.append(1)
                return 1
        self._unknown.append(DegradedSample(s, reason))
        return 0


def process_samples(
    module: Module,
    samples: list[RawSample],
    options: object | None = None,
    tolerant: bool = False,
) -> PostmortemResult:
    """One-shot stack consolidation over a fully materialized stream
    (a single batch through :class:`PostmortemConsumer`)."""
    consumer = PostmortemConsumer(module, options=options, tolerant=tolerant)
    consumer.feed(samples)
    return consumer.finish()


def _repair_stripped(
    resolver: StackResolver, frames: list[tuple[str, int]]
) -> tuple[list[tuple[str, int]], bool]:
    """Re-identifies stripped interior frames by address-range lookup.

    Debug-info stripping removes line/variable info but not the symbol
    table, so a raw-address frame can still be mapped back to *which
    function* its address falls in — enough to keep the blame-transfer
    chain intact for frames above and below it.  Two cases stay broken:

    * a stripped **leaf** — function identity alone cannot tell which
      access the PC belongs to, so the sample is unattributable
      (returns an empty walk → explicit unknown downstream);
    * an address that resolves nowhere — the walk is cut there and the
      suffix handed to longest-suffix-match recovery.
    """
    if _looks_stripped(frames[0][0]):
        return [], False
    out: list[tuple[str, int]] = []
    repaired = False
    for func, iid in frames:
        if _looks_stripped(func):
            name = resolver.identify(iid)
            if name is None:
                return out, repaired
            out.append((name, iid))
            repaired = True
        else:
            out.append((func, iid))
    return out, repaired


def _is_complete(
    module: Module, user_frames: tuple[tuple[str, int], ...]
) -> bool:
    """A consolidated path is complete when it roots at ``main`` (or an
    artificial root like module init, which cannot bubble further)."""
    root = user_frames[-1][0]
    if root == "main":
        return True
    f = module.get_function(root)
    return f is not None and f.is_artificial

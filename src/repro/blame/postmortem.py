"""Post-mortem sample processing (paper §IV.C, steps one and two).

Converts raw monitor samples into consolidated "instances": resolves
addresses to source context, glues worker-task post-spawn stacks to the
recorded pre-spawn stacks via the spawn tag, and trims synthetic runtime
frames — producing "a complete, clean call path of the application w/o
libraries for each sample".

Tolerant mode (``tolerant=True``) additionally survives degraded
telemetry instead of mis-attributing it; it is the only place the
pipeline decides what happens to a damaged sample:

* malformed samples (a non-idle sample with an empty walk or a negative
  leaf iid) are quarantined as ``malformed-sample``;
* incomplete stacks are repaired where possible — a lost spawn tag is
  recovered from other samples of the same outlined function, and a
  truncated walk is extended by longest-suffix match against intact
  call paths from the same run;
* whatever cannot be repaired lands in an explicit ``<unknown>`` blame
  bucket with a provenance reason (``truncated-stack``,
  ``lost-spawn-tag``, ``no-debug-info``) rather than vanishing or
  skewing the attributed rows.

Both outcomes are recorded as ``(reason, sample index)`` pairs, the form
the ``.cbp`` artifact stores.  On a clean stream the tolerant pipeline
is a zero-cost abstraction: it produces bit-identical instances to
strict mode.

Processing is **streaming**: :class:`PostmortemConsumer` is a
single-pass incremental consumer over sample batches — feed it batches
as the monitor hands them over and call :meth:`~PostmortemConsumer.finish`
once, so no stage ever needs the whole ``list[RawSample]`` resident.
Degraded candidates wait in a held-back buffer until ``finish()``,
which works out their recovery evidence from the first-pass rows and
path table, and only when a candidate is held back.
:func:`process_samples` is the one-shot wrapper (one batch).

Consolidation is done **once per distinct call path**: everything the
first pass derives from a sample's ``(stack, pre_spawn_stack,
spawn_tag is None)`` key is memoized on the consumer, so a repeat of a
hot path costs a validation, a dict lookup and one row of
:class:`InstanceColumns` holding the path's id.  :class:`Instance`
objects are built only for callers that walk them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
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


#: ``(reason, sample index)``: why one sample was quarantined or left
#: unattributable.
Provenance = tuple[str, int]


def _by_reason(provenance: list[Provenance]) -> dict[str, int]:
    return dict(Counter(reason for reason, _ix in provenance))


@dataclass(eq=False)
class PostmortemResult:
    """Outcome of post-mortem processing: of a live run, a decoded
    artifact, or a merge of snapshots.

    The consolidated instances are held as :class:`InstanceColumns`;
    :attr:`instances` builds the :class:`Instance` list on first access,
    for the callers that walk instances.  Two results are equal when
    their instances and counts are.
    """

    columns: InstanceColumns
    n_raw: int
    #: Unattributable samples (tolerant mode only).
    unknown: list[Provenance] = field(default_factory=list)
    #: Malformed samples rejected before consolidation (tolerant mode).
    quarantined: list[Provenance] = field(default_factory=list)
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
        return _by_reason(self.unknown)

    def quarantine_by_reason(self) -> dict[str, int]:
        return _by_reason(self.quarantined)


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
      their row of :class:`InstanceColumns` survives the batch;
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
        self._quarantined: list[Provenance] = []
        self._unknown: list[Provenance] = []
        #: Held-back degraded samples, with their path's outcome.
        self._candidates: list[tuple[RawSample, _Path]] = []
        #: (stack, pre_spawn_stack, spawn_tag is None) → first-pass outcome.
        self._paths: dict[tuple, _Path] = {}
        self._n_raw = 0
        self._n_repaired = 0
        self._n_late_recovered = 0
        self._finished = False
        #: Rows and paths when :meth:`finish` starts: the first pass's.
        self._n_rows = self._n_paths = 0
        #: Recovery evidence answered so far, by ``(kind, key)``, and
        #: the glued first-pass rows (see :meth:`_continuation`).
        self._evidence: dict[tuple, FrameTuple | None] = {}
        self._glued: tuple[dict[int, int], dict[int, None]] | None = None

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
        """Samples quarantined so far."""
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
        mode: not idle, with an empty stack or a negative leaf iid) is
        quarantined; any other looks up its path's first-pass outcome,
        and an intact path appends one row.
        """
        if self._finished:
            raise RuntimeError("PostmortemConsumer.feed() after finish()")
        self._n_raw += len(batch)
        tolerant = self.tolerant
        paths = self._paths
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
                self._quarantined.append((REASON_MALFORMED, index))
                continue
            key = (stack, pre, tag is None)
            path = paths.get(key)
            if path is None:
                path = paths[key] = self._first_sight(s)
            outcome, pid, glued, repaired, _, _ = path
            if outcome is _INTACT:
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
        cols = self._columns
        # Evidence comes from the first-pass rows and paths only: a row
        # that recovery appends never feeds it.
        self._n_rows, self._n_paths = len(cols), len(cols.stacks)
        for s, path in self._candidates:
            self._n_late_recovered += self._resolve_candidate(s, path)
        self._candidates = []
        return PostmortemResult(
            columns=cols,
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
        """Consolidates the call path of ``s``, seen for the first time."""
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
        return _Path(
            _INTACT,
            self._path_id(user_frames),
            glued=1 if glued else 0,
            repaired=1 if repaired else 0,
        )

    def _locations(
        self, frames: tuple[tuple[str, int], ...]
    ) -> tuple[tuple[str, int], ...]:
        return tuple(
            (r.filename, r.line) for r in self._resolver.resolve_stack(frames)
        )

    # -- recovery (second pass over held-back candidates) --------------------

    def _resolve_candidate(self, s: RawSample, path: _Path) -> int:
        """Repairs one degraded stack from the first-pass evidence.

        A candidate rooted at an outlined function glues to the
        pre-spawn continuation of the first glued row with its spawn
        tag, or else to the one continuation every glued path through
        that function shares (spawn-tag loss).  Any other candidate
        adopts the one continuation intact paths have below its deepest
        frame (a truncated walk).  An ambiguous continuation is never
        adopted.

        Returns 1 when the candidate was recovered, 0 when it landed in
        the ``<unknown>`` bucket.
        """
        user_frames = path.frames
        if not user_frames:
            # Nothing resolvable at all — stripped debug info.
            self._unknown.append((REASON_NO_DEBUG, s.index))
            return 0
        root_func = user_frames[-1][0]
        rootf = self.module.get_function(root_func)
        continuation = None
        if rootf is not None and rootf.outlined_from is not None:
            reason = REASON_LOST_TAG
            if s.spawn_tag is not None:
                # Tag survived but the pre-spawn stack was lost: glue
                # via another sample that recorded the same tag intact.
                continuation = self._continuation("tag", s.spawn_tag)
            if continuation is None:
                continuation = self._continuation("outlined", root_func)
        else:
            reason = REASON_NO_DEBUG if path.had_stripped else REASON_TRUNCATED
            continuation = self._continuation("frame", user_frames[-1])

        if continuation is not None:
            frames = user_frames + continuation
            if _is_complete(self.module, frames):
                cols = self._columns
                cols.index.append(s.index)
                cols.thread_id.append(s.thread_id)
                cols.stack_id.append(self._path_id(frames))
                cols.glued.append(1)
                cols.spawn_tag.append(s.spawn_tag)
                cols.recovered.append(1)
                return 1
        self._unknown.append((reason, s.index))
        return 0

    def _continuation(self, kind: str, key) -> FrameTuple | None:
        """The continuation the first-pass evidence offers for ``key``,
        worked out on first demand and memoized:

        * ``"tag"``: the frames after the first outlined frame of the
          first glued row with spawn tag ``key``;
        * ``"outlined"``: the one continuation after the first outlined
          frame of the glued paths whose first outlined frame is
          function ``key``;
        * ``"frame"``: the one ``frames[k + 1:]`` of the paths with
          frame ``key`` at some ``k`` other than their last.
        """
        memo = self._evidence
        if (kind, key) not in memo:
            stacks = self._columns.stacks
            if kind == "tag":
                pid = self._glued_rows()[0].get(key)
                options = [] if pid is None else [self._after_outlined(stacks[pid])[1]]
            elif kind == "outlined":
                after = (self._after_outlined(stacks[pid]) for pid in self._glued_rows()[1])
                options = (cont for func, cont in after if func == key)
            else:
                options = (
                    frames[k + 1:]
                    for frames in islice(stacks, self._n_paths)
                    for k in _positions(frames, key)
                )
            memo[kind, key] = _only(options)
        return memo[kind, key]

    def _glued_rows(self) -> tuple[dict[int, int], dict[int, None]]:
        """Over the first-pass rows: each spawn tag's first glued row's
        path id, and the ids of the glued paths (first seen first);
        built on first demand."""
        if self._glued is None:
            cols = self._columns
            first_by_tag: dict[int, int] = {}
            glued_paths: dict[int, None] = {}
            rows = zip(cols.spawn_tag, cols.glued, cols.stack_id)
            for tag, glued, pid in islice(rows, self._n_rows):
                if glued:
                    first_by_tag.setdefault(tag, pid)
                    glued_paths[pid] = None
            self._glued = first_by_tag, glued_paths
        return self._glued

    def _after_outlined(self, frames: FrameTuple) -> tuple[str | None, FrameTuple | None]:
        """The function of the first outlined frame in ``frames`` and
        the frames after it (``(None, None)`` when none is outlined)."""
        for k, (func, _iid) in enumerate(frames):
            f = self.module.get_function(func)
            if f is not None and f.outlined_from is not None:
                return func, frames[k + 1:]
        return None, None


def _positions(frames: FrameTuple, frame: tuple[str, int]) -> Iterator[int]:
    """Each ``k`` below ``len(frames) - 1`` where ``frames[k] == frame``."""
    k, last = -1, len(frames) - 1
    while True:
        try:
            k = frames.index(frame, k + 1, last)
        except ValueError:
            return
        yield k


def _only(options: Iterable[FrameTuple | None]) -> FrameTuple | None:
    """The one distinct option; None when there is none, or at the
    second distinct one (an ambiguous continuation is never adopted, so
    a recursion never builds more than two of its suffixes)."""
    found = None
    for option in options:
        if found is None:
            found = option
        elif option != found:
            return None
    return found


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

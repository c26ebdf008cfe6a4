"""Cooperative tasking layer — the substitute for Chapel's qthreads.

``forall``/``coforall`` (lowered to ``SpawnJoin``) create worker
:class:`Task`s that simulated :class:`WorkerThread`s execute.  Each
spawn gets a unique tag and captures the spawning task's *pre-spawn
stack trace* — exactly the instrumentation the paper adds to the Chapel
tasking layer so worker samples can later be glued into full call paths
(paper §IV.B).

Scheduling is deterministic: a discrete-event loop always advances the
thread with the smallest virtual clock, and the run queue is FIFO.
Threads with no work accrue *idle* cycles attributed to a synthetic
``__sched_yield`` frame — reproducing the dominant entry of the
code-centric pprof profile in paper Fig. 4.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from operator import attrgetter

from ..ir.module import BasicBlock, Function
from .values import (
    ArrayChunk,
    ArrayValue,
    AssociativeDomainValue,
    DomainChunk,
    DomainValue,
    RangeValue,
    RuntimeError_,
    SparseDomainValue,
)

#: Synthetic function name for idle thread time (Fig. 4's top entry).
SCHED_YIELD = "__sched_yield"


class Frame:
    """One activation record of the interpreter."""

    __slots__ = ("function", "block", "index", "regs", "caller", "call_iid", "penalty", "ctx")

    def __init__(self, function: Function, caller: "Frame | None", call_iid: int | None) -> None:
        self.function = function
        self.block: BasicBlock = function.entry
        self.index = 0
        #: rid → runtime value
        self.regs: dict[int, object] = {}
        self.caller = caller
        #: iid of the call instruction in the caller (the return address
        #: the stack walker reports for non-leaf frames).
        self.call_iid = call_iid
        self.penalty = 1.0  # icache multiplier, set by the interpreter
        #: Calling context (see :meth:`context`): ``()`` for a root
        #: frame, None until a stack walk first needs it.
        self.ctx: tuple[tuple[str, int], ...] | None = () if caller is None else None

    def context(self) -> tuple[tuple[str, int], ...]:
        """The walk below this frame, leaf first: each caller's (function,
        call-site iid).  A frame's callers and their call sites are fixed
        while it lives, so the tuple is built on the first walk that
        needs it and kept; every later sample in the frame's lifetime is
        one concatenation, whatever the depth.

        The walk stops at the nearest caller that already has its
        context and keeps the result on this frame alone: a call pays
        nothing until it is sampled, and a deep recursion holds one
        tuple per sampled frame, not one per frame."""
        ctx = self.ctx
        if ctx is None:
            walk = []
            frame = self
            while frame.ctx is None:
                caller = frame.caller
                walk.append((caller.function.name, frame.call_iid))
                frame = caller
            ctx = self.ctx = tuple(walk) + frame.ctx
        return ctx


@dataclass
class SpawnRecord:
    """Bookkeeping for one SpawnJoin: tag, pre-spawn stack, join count."""

    tag: int
    kind: str  # forall | coforall
    #: Leaf-first (func, iid), glued through every enclosing spawn; the
    #: samples of all the spawn's workers share this one tuple.
    pre_spawn_stack: tuple[tuple[str, int], ...]
    n_tasks: int
    completed: int = 0
    #: Task blocked at the join (the spawner).
    waiter: "Task | None" = None
    #: Virtual time the last worker finished (the join release time).
    completion_clock: float = 0.0


class Task:
    """A schedulable unit: the main task, or one chunk of a parallel loop.

    Task ids are allocated by the run's :class:`Scheduler`
    (:meth:`Scheduler.next_task_id`), not by a process-global counter —
    so every run numbers its tasks 0, 1, 2, … regardless of what ran
    before it in the same process.  Repeat runs therefore produce
    identical sample streams, and an adaptively-stopped run replays
    identically.
    """

    __slots__ = ("task_id", "frame", "state", "spawn", "is_main", "last_clock")

    def __init__(
        self,
        frame: Frame,
        spawn: SpawnRecord | None = None,
        is_main: bool = False,
        task_id: int = 0,
    ) -> None:
        self.task_id = task_id
        self.frame: Frame | None = frame
        #: ready | running | joining | done
        self.state = "ready"
        self.spawn = spawn
        self.is_main = is_main
        #: Causal timestamp: the virtual time this task has reached.
        #: A thread picking the task fast-forwards its clock to this —
        #: a migrating task carries its time with it.
        self.last_clock = 0.0

    def stack_walk(self) -> tuple[tuple[str, int], ...]:
        """Leaf-first (function name, iid) pairs — what the Dyninst-style
        monitor records per sample.  The leaf frame reports its current
        instruction; each caller frame reports the call site (its
        "return address"), which the frame's calling context holds."""
        frame = self.frame
        if frame is None:
            return ()
        instrs = frame.block.instructions
        leaf = instrs[min(frame.index, len(instrs) - 1)].iid
        ctx = frame.ctx
        if ctx is None:
            ctx = frame.context()
        return ((frame.function.name, leaf),) + ctx


class WorkerThread:
    """One simulated OS thread with its own virtual clock and PMU."""

    __slots__ = ("thread_id", "clock", "pmu_counter", "task", "idle_cycles", "busy_cycles")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.clock = 0.0  # cycles
        self.pmu_counter = 0.0
        self.task: Task | None = None
        self.idle_cycles = 0.0
        self.busy_cycles = 0.0


class Scheduler:
    """FIFO run queue + min-clock thread selection (deterministic)."""

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise RuntimeError_("need at least one thread")
        self.threads = [WorkerThread(i) for i in range(num_threads)]
        self.run_queue: deque[Task] = deque()
        # Both allocators are per-scheduler plain ints, so every run
        # numbers its spawn tags and tasks from the same start.
        self._next_spawn_tag = 1
        #: Run-scoped task-id allocator (main task gets 0, spawned
        #: workers 1, 2, … in spawn order — deterministic per run).
        self._next_task_id = 0

    def next_spawn_tag(self) -> int:
        tag = self._next_spawn_tag
        self._next_spawn_tag += 1
        return tag

    def next_task_id(self) -> int:
        tid = self._next_task_id
        self._next_task_id += 1
        return tid

    def enqueue(self, task: Task) -> None:
        task.state = "ready"
        self.run_queue.append(task)

    _clock_key = attrgetter("clock")

    def pick_thread(self) -> WorkerThread:
        """The thread with the smallest virtual clock runs next (ties by
        thread id, keeping execution deterministic).

        ``threads`` is ordered by thread id and ``min`` returns the
        first minimum, so keying on the clock alone preserves the
        (clock, thread_id) tie-break while skipping per-comparison
        tuple construction in this extremely hot call.
        """
        return min(self.threads, key=self._clock_key)

    def idle_stretch(self, cost: float, threshold: float | None) -> Iterator[WorkerThread]:
        """Ticks the idle threads, ``cost`` cycles (the cost model's idle
        quantum, always positive) at a time, until a busy thread holds
        the minimum ``(clock, thread_id)``: the ticks a loop of
        :meth:`pick_thread` calls would make.  Each tick adds ``cost`` to
        the thread's clock and idle cycles and, when the caller samples
        (``threshold`` not None), to its PMU counter.  Yields each idle
        thread whose tick brought its PMU counter to ``threshold``, in
        the order that loop reaches those ticks; the caller takes the
        due samples (which may charge the thread's clock) before asking
        for the next.  The caller owns both values; the scheduler keeps
        neither.

        Only idle threads tick, so busy clocks are fixed for the whole
        stretch, and an idle thread's ticks depend on nothing but its
        own clock, PMU counter and samples.  Each thread therefore
        ticks alone, in a tight loop, up to its next due sample or the
        stop; only the ticks that sample are ordered, in a heap keyed
        ``(clock at the tick's start, thread_id)`` — the key
        ``pick_thread`` orders every tick by.

        A caller that stops inside the stretch (a sink raising
        ``StopSampling``) closes the generator: every other idle thread
        is then put back where the tick-by-tick loop would have left
        it, at the interrupted tick.
        """
        if not cost > 0:
            # A tick that adds nothing would never reach the stop.
            raise ValueError(f"idle ticks need a positive cost, not {cost!r}")
        threads = self.threads
        busy = min(
            (t for t in threads if t.task is not None), key=self._clock_key
        )
        stop_clock, stop_id = busy.clock, busy.thread_id
        idle = [t for t in threads if t.task is None]
        if threshold is None:
            for t in idle:
                clock, cycles, tid = t.clock, t.idle_cycles, t.thread_id
                while clock < stop_clock or (clock == stop_clock and tid < stop_id):
                    clock += cost
                    cycles += cost
                t.clock = clock
                t.idle_cycles = cycles
            return
        #: thread id → (clock, idle cycles, PMU counter) before its
        #: current run of ticks.
        before: dict[int, tuple[float, float, float]] = {}

        def run(t: WorkerThread) -> "tuple | None":
            """Ticks ``t`` to its next due sample: the heap entry of
            that tick, or None when ``t`` reached the stop first."""
            clock, cycles, pmu, tid = t.clock, t.idle_cycles, t.pmu_counter, t.thread_id
            before[tid] = (clock, cycles, pmu)
            entry = None
            while clock < stop_clock or (clock == stop_clock and tid < stop_id):
                start = clock
                clock += cost
                cycles += cost
                pmu += cost
                if pmu >= threshold:
                    # A thread_id never repeats, so comparisons stop
                    # before the thread objects.
                    entry = (start, tid, t)
                    break
            t.clock = clock
            t.idle_cycles = cycles
            t.pmu_counter = pmu
            return entry

        heap = [entry for entry in map(run, idle) if entry is not None]
        heapify(heap)
        try:
            while heap:
                t = heap[0][2]
                yield t
                entry = run(t)
                if entry is None:
                    heappop(heap)
                else:
                    heapreplace(heap, entry)
        except GeneratorExit:
            key_clock, key_id, stopped = heap[0]
            for t in idle:
                if t is stopped:
                    continue
                clock, cycles, pmu = before[t.thread_id]
                tid = t.thread_id
                while clock < key_clock or (clock == key_clock and tid < key_id):
                    clock += cost
                    cycles += cost
                    pmu += cost
                t.clock = clock
                t.idle_cycles = cycles
                t.pmu_counter = pmu
            raise

    @property
    def any_running(self) -> bool:
        return any(t.task is not None for t in self.threads)


def chunk_iteration_space(
    iterables: list[object], kind: str, num_tasks: int
) -> list[list[object]]:
    """Splits the (zipped) iteration space into per-task chunk values.

    Returns one list of chunk iterables per task.  ``forall`` produces
    up to ``num_tasks`` contiguous blocks; ``coforall`` produces one
    task per index (Chapel semantics).
    """
    sizes = [_iterable_size(it) for it in iterables]
    n = sizes[0]
    if any(s != n for s in sizes):
        raise RuntimeError_(f"zippered iterands have unequal sizes {sizes}")
    if n == 0:
        return []
    if kind == "coforall":
        blocks = [(i, i) for i in range(n)]
    else:
        k = min(num_tasks, n)
        base, extra = divmod(n, k)
        blocks = []
        lo = 0
        for i in range(k):
            count = base + (1 if i < extra else 0)
            blocks.append((lo, lo + count - 1))
            lo += count
    out: list[list[object]] = []
    for lo, hi in blocks:
        out.append([_chunk_one(it, lo, hi) for it in iterables])
    return out


def _iterable_size(it: object) -> int:
    if isinstance(it, RangeValue):
        return it.size
    if isinstance(it, (DomainValue, SparseDomainValue, AssociativeDomainValue)):
        return it.size
    if isinstance(it, ArrayValue):
        return it.size
    if isinstance(it, DomainChunk) or isinstance(it, ArrayChunk):
        return it.size
    raise RuntimeError_(f"cannot iterate over {type(it).__name__}")


def _chunk_one(it: object, lo: int, hi: int) -> object:
    if isinstance(it, RangeValue):
        return it.subrange_by_position(lo, hi)
    if isinstance(it, (DomainValue, SparseDomainValue, AssociativeDomainValue)):
        return DomainChunk(it, lo, hi)
    if isinstance(it, ArrayValue):
        return ArrayChunk(it, lo, hi)
    raise RuntimeError_(f"cannot chunk {type(it).__name__}")

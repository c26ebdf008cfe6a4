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
from dataclasses import dataclass, field
from heapq import heapify, heapreplace
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

    __slots__ = ("function", "block", "index", "regs", "caller", "call_iid", "penalty")

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


@dataclass
class SpawnRecord:
    """Bookkeeping for one SpawnJoin: tag, pre-spawn stack, join count."""

    tag: int
    kind: str  # forall | coforall
    pre_spawn_stack: list[tuple[str, int]]  # leaf-first (func, iid)
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

    def stack_walk(self) -> list[tuple[str, int]]:
        """Leaf-first (function name, iid) pairs — what the Dyninst-style
        monitor records per sample.  The leaf frame reports its current
        instruction; each caller frame reports the call site (its
        "return address")."""
        out: list[tuple[str, int]] = []
        frame = self.frame
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

    def idle_stretch(self) -> Iterator[WorkerThread]:
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
            (t for t in threads if t.task is not None), key=self._clock_key
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

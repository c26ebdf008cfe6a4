"""Raw sample records — the artifact step 2 hands to post-mortem step 3.

A :class:`RawSample` is "basically a bunch of addresses" (paper §IV.C):
the sampled instruction id plus the stack walk, tagged with thread/task
identity and — for worker-task samples — the spawn tag and recorded
pre-spawn stack that post-mortem gluing needs.
"""

from __future__ import annotations

from typing import NamedTuple


class RawSample(NamedTuple):
    """One PMU-overflow sample.

    A named tuple: immutable, hashed and compared by value like a frozen
    record, and built in one C call (the monitor builds one per sample,
    positionally, with ``tuple.__new__``).  Derive a changed copy with
    ``_replace``.
    """

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

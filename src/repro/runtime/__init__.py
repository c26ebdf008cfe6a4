"""Runtime substrate: values, memory, locales, tasking, cost model and
the IR interpreter (the simulated machine the paper's Xeon becomes).
"""

from .builtins import ProgramHalt
from .costmodel import CLOCK_HZ, CostModel, DEFAULT_COST_MODEL
from .interpreter import ExecutionError, Interpreter, RunResult
from .memory import Allocation, Heap
from .tasking import SCHED_YIELD, Frame, Scheduler, SpawnRecord, Task, WorkerThread
from .values import (
    ArrayChunk,
    ArrayValue,
    ClassValue,
    DomainChunk,
    DomainValue,
    RangeValue,
    RecordValue,
    RuntimeError_,
    TupleValue,
    copy_value,
    default_value,
    format_value,
    value_slots,
)

__all__ = [
    "Allocation", "ArrayChunk", "ArrayValue", "CLOCK_HZ", "ClassValue",
    "CostModel", "DEFAULT_COST_MODEL", "DomainChunk", "DomainValue",
    "ExecutionError", "Frame", "Heap", "Interpreter",
    "ProgramHalt", "RangeValue", "RecordValue", "RunResult",
    "RuntimeError_", "SCHED_YIELD", "Scheduler", "SpawnRecord", "Task",
    "TupleValue", "WorkerThread", "copy_value", "default_value",
    "format_value", "value_slots",
]

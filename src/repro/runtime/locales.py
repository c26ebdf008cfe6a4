"""Locales — Chapel's abstraction of target-architecture units.

The paper works on a single locale ("In this work, we focus on the
single locale", §II.B); multi-locale tracking through GASNet is its
future work.  Per-locale profiles are merged by the blame aggregation
layer (:mod:`repro.blame.aggregate`) the way the paper's step 4
describes.

For the communication advisor this module provides the *simulated
block-distribution* ground truth the static locality analysis
(:mod:`repro.analysis.locality`) is validated against:

* :func:`block_owner` — the canonical block mapping.  Linear position
  ``pos`` of a ``size``-element space lives on locale
  ``pos * L // size``: contiguous, balanced blocks, the default Chapel
  ``Block`` layout both the paper's setting and Rolinger et al.'s
  optimization work assume.
* :class:`LocaleObserver` — an interpreter that runs the program and
  records, for every ``elemaddr`` instruction, each (executing locale,
  owning locale) pair it actually produced.  The executing locale is
  the block-owner of the task's current parallel-iteration position in
  the spawned-over space (serial code and ``main`` run on locale 0);
  the owning locale is the block-owner of the accessed element's flat
  position within its root array.

The exactness gate in the test suite is: every access the static
analysis labels LOCAL must only ever observe ``exec == owner``.
"""

from __future__ import annotations

from .interpreter import Interpreter
from .values import ArrayValue, DomainChunk


def block_owner(size: int, pos: int, num_locales: int) -> int:
    """Owning locale of linear position ``pos`` in a block-distributed
    space of ``size`` elements across ``num_locales`` locales."""
    if size <= 0 or num_locales <= 1:
        return 0
    p = min(max(pos, 0), size - 1)
    return p * num_locales // size


class LocaleObserver(Interpreter):
    """Interpreter recording per-``elemaddr`` locale pairs.

    ``observed`` maps elemaddr iid → set of (executing locale, owning
    locale) pairs.  Built on the generic interpreter engine (this
    class overrides its handlers); the observation changes no program
    behavior, only bookkeeping.
    """

    def __init__(self, *args, num_locales: int = 4, **kwargs) -> None:
        # The fast engine compiles per-block closures that bypass the
        # dispatch table, so subclass hooks would never fire: force the
        # generic (reference) loop.  Both engines are bit-identical.
        kwargs["engine"] = "generic"
        super().__init__(*args, **kwargs)
        self.num_locales = num_locales
        self.observed: dict[int, set[tuple[int, int]]] = {}
        #: id(IterState) → spawned-over space, for chunk-derived states.
        self._chunk_spaces: dict[int, object] = {}
        #: id(task) → (space, current linear position) of the task's
        #: parallel iteration (chunk positions are absolute).
        self._task_pos: dict[int, tuple[object, int]] = {}

    # -- hooks -------------------------------------------------------------

    def _ex_iter_init(self, thread, task, frame, instr):
        it = self._val(frame, instr.iterable)
        cost = super()._ex_iter_init(thread, task, frame, instr)
        if isinstance(it, DomainChunk):
            state = frame.regs[instr.result.rid]
            self._chunk_spaces[id(state)] = state.payload
        return cost

    def _ex_iter_value(self, thread, task, frame, instr):
        cost = super()._ex_iter_value(thread, task, frame, instr)
        state = self._val(frame, instr.state)
        space = self._chunk_spaces.get(id(state))
        if space is not None:
            self._task_pos[id(task)] = (space, state.pos)
        return cost

    def _ex_elem_addr(self, thread, task, frame, instr):
        cost = super()._ex_elem_addr(thread, task, frame, instr)
        arr = self._val(frame, instr.base)
        assert isinstance(arr, ArrayValue)
        _data, flat = frame.regs[instr.result.rid]
        cur = self._task_pos.get(id(task))
        if cur is None:
            exec_locale = 0  # serial code / main
        else:
            space, pos = cur
            exec_locale = block_owner(space.size, pos, self.num_locales)
        owner = block_owner(arr.root.size, flat, self.num_locales)
        self.observed.setdefault(instr.iid, set()).add((exec_locale, owner))
        return cost

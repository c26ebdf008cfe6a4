"""Backward slicing and BlameSet computation (paper §III).

``BlameSet(v, W) = ∪_{w∈W} BackwardsSlice(w)``: the slice closure walks

* operand (use-def) edges,
* memory edges — a ``load`` of variable v depends, flow-insensitively,
  on every ``store`` to v in the function (this is how the paper's
  Table I gives ``c`` both writes to ``a``),
* control-dependence edges — every instruction depends on the branches
  controlling its block *and their condition producers* (Table I's
  line 18 in ``a``'s and ``c``'s blame lines).

Every instruction set here is a Python int used as a bitset over the
function's dense instruction ids (:attr:`DataFlow.instructions`): union
is ``|`` and a slice is a closure over set bits.  The dynamic side asks
``isBlamed(v, s)`` through :meth:`BlameSets.blamed_at`, which inverts the
masks for one instruction when it is first asked.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from ..ir import instructions as I
from ..ir.module import Function
from .control_deps import ControlDeps, control_deps
from .dataflow import DataFlow, Path, Root, VarKey


def paths_may_alias(a: Path, b: Path) -> bool:
    """Field-sensitive may-alias on access paths: fields must match
    name-for-name, indices match any index, and a prefix aliases an
    extension only when the extension does not cross a class
    dereference ("cfield") — a pointer *slot* is separate memory from
    the pointee's fields.  Keeps ``p.residue`` loads from depending on
    stores to ``p.zoneArray[j].value`` (which would otherwise drag
    CLOMP's whole hot loop into residue's BlameSet)."""
    n = min(len(a), len(b))
    for ea, eb in zip(a, b):
        ka, kb = ea[0], eb[0]
        if (ka == "index") != (kb == "index"):
            return False
        if ka != "index" and (ka != kb or ea[1] != eb[1]):
            return False
    longer = a if len(a) > len(b) else b
    if len(longer) > n and longer[n][0] == "cfield":
        return False
    return True


def _iter_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _path_head(path: Path) -> tuple:
    """Bucket key for a store's access path: only stores whose head is
    compatible with a load's head can alias it (the first loop iteration
    of :func:`paths_may_alias`), so bucketing by head cuts the
    loads×stores product to compatible pairs.  Index heads match any
    index, so they share one bucket."""
    if not path:
        return ()
    head = path[0]
    if head[0] == "index":
        return ("index",)
    return head


#: A root variable's stores: path head → access path → bitset of stores.
_Stores = dict[tuple, dict[Path, int]]


def _memory_deps(root: Root, stores: dict[VarKey, _Stores]) -> int:
    """The stores a load of ``root`` depends on: those to the same
    variable whose paths may alias (flow-insensitive otherwise — the
    paper's Table I gives c both writes to a)."""
    key, path = root
    buckets = stores.get(key)
    if buckets is None:
        return 0
    deps = 0
    if not path:
        # An empty load path aliases every store except those reaching
        # through a class dereference.
        for head, by_path in buckets.items():
            if head and head[0] == "cfield":
                continue
            for mask in by_path.values():
                deps |= mask
        return deps
    # Same-head stores: tails still need the full check.
    for spath, mask in buckets.get(_path_head(path), {}).items():
        if paths_may_alias(path, spath):
            deps |= mask
    # Empty-path stores (whole-variable writes) alias any load not
    # crossing a class dereference first.
    if path[0][0] != "cfield":
        for mask in buckets.get((), {}).values():
            deps |= mask
    return deps


class SliceGraph:
    """Backward dependence edges of one function, over dense ids.

    ``deps[i]`` is the bitset of instructions that instruction ``i``
    depends on through operands and memory.  Control edges are one
    mask per block: ``controls`` pairs each controlled block's span of
    ids with the bitset of the branches controlling it.  Every
    register operand must be produced in this function, as the IR
    verifier checks.
    """

    def __init__(self, dataflow: DataFlow, control: ControlDeps | None) -> None:
        self.df = dataflow
        instrs = dataflow.instructions
        #: iid → dense id
        self.pos: dict[int, int] = {instr.iid: i for i, instr in enumerate(instrs)}
        self.deps: list[int] = []
        self.controls: list[tuple[int, int]] = []
        self._slices: dict[int, int] = {}
        self._build()
        if control is not None:
            # Implicit (control) edges: the controlling branches and,
            # through their operand edges, the condition producers.
            self.controls = [
                (span, mask)
                for span, mask in zip(control.spans, control.transitive)
                if span and mask
            ]

    def _build(self) -> None:
        df = self.df
        instrs = df.instructions
        pos = self.pos
        roots_of = df.roots_of
        stores: dict[VarKey, _Stores] = {}
        for i, instr in enumerate(instrs):
            if type(instr) is I.Store:
                bit = 1 << i
                for key, path in roots_of(instr.ops[1]):
                    by_path = stores.setdefault(key, {}).setdefault(
                        _path_head(path), {}
                    )
                    by_path[path] = by_path.get(path, 0) | bit

        memory: dict[Root, int] = {}
        deps = self.deps
        Register, Load = I.Register, I.Load
        for instr in instrs:
            mask = 0
            # Operand (explicit data) edges.
            for op in getattr(instr, "ops", ()):
                if type(op) is Register and op.producer is not None:
                    mask |= 1 << pos[op.producer.iid]
            # Memory edges, shared by every load of the same root.
            if type(instr) is Load:
                for root in roots_of(instr.ops[0]):
                    mem = memory.get(root)
                    if mem is None:
                        mem = memory[root] = _memory_deps(root, stores)
                    mask |= mem
            deps.append(mask)

    def backward_slice(self, seeds: int) -> int:
        """Multi-source backward closure from the bitset ``seeds``.

        Memoized on the seeds: distinct variables frequently share
        write sets (zippered iterands, ref formals of one callsite), and
        the closure is the hot inner step of blame-set construction.
        """
        cached = self._slices.get(seeds)
        if cached is not None:
            return cached
        deps = self.deps
        pending = self.controls  # blocks whose controllers have not joined
        seen = frontier = seeds
        while frontier:
            reached = 0
            rest = frontier
            while rest:
                low = rest & -rest
                reached |= deps[low.bit_length() - 1]
                rest ^= low
            if pending:
                still = []
                for span, mask in pending:
                    if frontier & span:
                        reached |= mask
                    else:
                        still.append((span, mask))
                pending = still
            frontier = reached & ~seen
            seen |= frontier
        self._slices[seeds] = seen
        return seen


class BlameSets:
    """Per-function blame sets, both directions.

    ``masks[(key, path)]`` is the BlameSet of a variable or a
    hierarchical sub-variable, as a bitset over the function's dense
    instruction ids.  :meth:`blamed_at` answers the inverse, the roots
    blamed when a sample lands on an instruction, from one mask per
    distinct blame set.  ``by_var`` and ``by_iid`` hold the same facts
    as iid frozensets and are built on first access.
    """

    def __init__(
        self,
        masks: dict[Root, int],
        instructions: list[I.Instruction],
        pos: dict[int, int],
    ) -> None:
        self.masks = masks
        #: dense id → instruction, and iid → dense id
        self._instructions = instructions
        self._pos = pos
        # Variables routinely share one blame set (memoized slices,
        # zippered iterands): the inverse tests each distinct set once.
        groups: dict[int, list[Root]] = {}
        for root, mask in masks.items():
            groups.setdefault(mask, []).append(root)
        self._groups = list(groups.items())
        self._blamed: dict[int, frozenset[Root]] = {}

    def blamed_at(self, iid: int) -> frozenset[Root]:
        blamed = self._blamed.get(iid)
        if blamed is None:
            roots: set[Root] = set()
            i = self._pos.get(iid)
            if i is not None:
                bit = 1 << i
                for mask, group in self._groups:
                    if mask & bit:
                        roots.update(group)
            blamed = self._blamed[iid] = frozenset(roots)
        return blamed

    @cached_property
    def by_var(self) -> dict[Root, frozenset[int]]:
        instrs = self._instructions
        return {
            root: frozenset(instrs[i].iid for i in _iter_bits(mask))
            for root, mask in self.masks.items()
        }

    @cached_property
    def by_iid(self) -> dict[int, frozenset[Root]]:
        blamed = 0
        for mask, _group in self._groups:
            blamed |= mask
        iids = [self._instructions[i].iid for i in _iter_bits(blamed)]
        return {iid: self.blamed_at(iid) for iid in iids}


def _cbr_iterable_roots(
    cbr: I.CBr, dataflow: DataFlow
) -> frozenset[Root]:
    """Roots of the iterands whose iterator feeds this branch condition
    (chasing through the &&-conjunction of zippered loops)."""
    roots: set[Root] = set()
    stack: list[I.Value] = [cbr.cond]
    seen: set[int] = set()
    while stack:
        v = stack.pop()
        if not isinstance(v, I.Register) or v.rid in seen:
            continue
        seen.add(v.rid)
        producer = v.producer
        if isinstance(producer, I.IterNext):
            for key, _path in dataflow.roots_of(producer.state):
                roots.add((key, ()))
        elif isinstance(producer, I.BinOp) and producer.op in ("&&", "||"):
            stack.extend(producer.operands())
        elif isinstance(producer, I.Load):
            stack.append(producer.addr)
    return frozenset(roots)


def _implicit_iterable_blame(
    dataflow: DataFlow, control: ControlDeps
) -> dict[Root, int]:
    """Maps iterand roots to the body instructions they implicitly blame
    (innermost enclosing loop only), a block at a time."""
    cbr_roots: dict[int, frozenset[Root]] = {}
    out: dict[Root, int] = {}
    for span, controllers in zip(control.spans, control.immediate):
        if not span:
            continue
        for cbr in controllers:
            roots = cbr_roots.get(cbr.iid)
            if roots is None:
                roots = cbr_roots[cbr.iid] = _cbr_iterable_roots(cbr, dataflow)
            for root in roots:
                out[root] = out.get(root, 0) | span
    return out


def compute_blame_sets(function: Function, dataflow: DataFlow) -> BlameSets:
    """BlameSets of every root variable (and materialized field path)
    of one function.

    Deep writes (real stores, returns) contribute their full backward
    slice; shallow writes (ref-arg callsites, descriptor bookkeeping)
    contribute only themselves — the written value is computed in the
    callee / runtime, so the caller-side operand chain is not the work
    that produced it (it is attributed through the callee's own blame
    sets plus the transfer function instead).
    """
    options = dataflow.options
    control = None
    if options.implicit_control or options.implicit_iterable:
        control = control_deps(function)
    graph = SliceGraph(dataflow, control if options.implicit_control else None)
    pos = graph.pos
    deep = 0
    for iid in dataflow.deep_write_iids:
        deep |= 1 << pos[iid]

    def blame_set(writes) -> int:
        seeds = 0
        for w in writes:
            seeds |= 1 << pos[w.iid]
        shallow = seeds & ~deep
        if not shallow:
            return graph.backward_slice(seeds)
        seeds ^= shallow
        if not seeds:
            return shallow
        return graph.backward_slice(seeds) | shallow

    masks: dict[Root, int] = {}
    for key, writes in dataflow.writes.items():
        masks[(key, ())] = blame_set(writes)
    for root, writes in dataflow.path_writes.items():
        masks[root] = blame_set(writes)

    # Implicit iterable blame (paper §IV.A): "all variables within the
    # loop body inherit blame from the index variable" — generalized to
    # the domain/array *driving* the loop: instructions in a loop body
    # join the BlameSet of the innermost loop's iterands (how MiniMD's
    # binSpace earns 49 % without a single source-level write).
    if options.implicit_iterable:
        for root, mask in _implicit_iterable_blame(dataflow, control).items():
            masks[root] = masks.get(root, 0) | mask

    return BlameSets(masks, dataflow.instructions, pos)

"""Instruction set of the LLVM-like IR.

The IR is a register machine lowered clang -O0 style: every source
variable gets an ``alloca``; reads/writes go through ``load``/``store``.
This is deliberate — the paper's blame analysis keys on *stores* (the
set ``W`` of writes to a variable's memory) and on use-def chains, so
keeping memory traffic explicit keeps the analysis faithful.

Design notes relevant to blame:

* Every instruction carries a module-unique ``iid`` — the simulated
  "instruction address" that PMU samples record — and a source
  location (``loc``) used for address→line resolution (paper §IV.C).
* ``Alloca`` and module globals carry variable bindings (name, type,
  ``is_temp``) — the debug-info the authors had to add to the Chapel
  LLVM frontend.  Compiler temporaries are flagged and hidden from
  reports but still tracked in the data flow (paper §IV.A).
* Array views created by ``ArraySlice``/``ArrayReindex`` alias their
  base (Chapel slice semantics), which is how MiniMD's ``RealPos``
  inherits blame from ``Pos``.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError
from typing import Iterable

from ..chapel.tokens import SourceLocation
from ..chapel.types import Type

# ---------------------------------------------------------------------------
# Values (operands)
# ---------------------------------------------------------------------------


class Value:
    """Base class of IR operands."""

    type: Type


class _Operand(Value):
    """An immutable two-field operand record: equal and hashed by its
    fields, with a dataclass-style ``repr``.  ``__setattr__`` refuses
    every assignment, so ``__init__`` stores through the slot
    descriptors, which is cheap enough for one record per literal, and
    ``copy`` and ``pickle`` rebuild a record through its constructor."""

    __slots__ = ()
    __match_args__: tuple[str, str]

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        a, b = self.__match_args__
        return getattr(self, a), getattr(self, b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        a, b = self.__match_args__
        return (
            f"{self.__class__.__qualname__}({a}={getattr(self, a)!r}, "
            f"{b}={getattr(self, b)!r})"
        )


class Constant(_Operand):
    """An immediate constant operand."""

    __slots__ = ("type", "value")
    __match_args__ = ("type", "value")

    def __init__(self, type: Type, value: object) -> None:
        _set_constant_type(self, type)
        _set_constant_value(self, value)

    def __str__(self) -> str:
        return f"{self.value}"


_set_constant_type = Constant.__dict__["type"].__set__
_set_constant_value = Constant.__dict__["value"].__set__


class Register(Value):
    """A virtual register produced by exactly one instruction."""

    _counter = itertools.count()

    __slots__ = ("type", "rid", "hint", "producer")

    def __init__(self, type: Type, hint: str = "t") -> None:
        self.type = type
        self.rid = next(Register._counter)
        self.hint = hint
        #: Back-pointer to the producing instruction (set by the builder);
        #: this is the use-def edge the backward slicer walks.
        self.producer: "Instruction | None" = None

    def __str__(self) -> str:
        return f"%{self.hint}{self.rid}"

    def __repr__(self) -> str:
        return str(self)


class GlobalRef(_Operand):
    """Reference to a module global's storage (an address value);
    ``type`` is the type of the stored value."""

    __slots__ = ("type", "name")
    __match_args__ = ("type", "name")

    def __init__(self, type: Type, name: str) -> None:
        _set_global_type(self, type)
        _set_global_name(self, name)

    def __str__(self) -> str:
        return f"@{self.name}"


_set_global_type = GlobalRef.__dict__["type"].__set__
_set_global_name = GlobalRef.__dict__["name"].__set__


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

_iid_counter = itertools.count(1)


def reset_iid_counter() -> None:
    """Restart instruction ids (see :func:`reset_ir_counters`)."""
    global _iid_counter
    _iid_counter = itertools.count(1)


def reset_ir_counters() -> None:
    """Restart ALL IR id counters (instructions, registers, blocks).

    Compiling the same source after a reset yields byte-identical ids —
    the property that lets a saved sample dataset (whose stacks store
    instruction ids) be re-analyzed in another process by recompiling
    the source.  Only safe when no previously-compiled module's ids
    will be mixed with the new module's.
    """
    from .module import BasicBlock

    reset_iid_counter()
    Register._counter = itertools.count()
    BasicBlock._counter = itertools.count()


class Instruction:
    """Base class: every instruction has an id, location, and operands."""

    opname = "instr"
    __slots__ = ("iid", "loc", "result", "parent")

    def __init__(self, loc: SourceLocation, result: Register | None = None) -> None:
        self.iid = next(_iid_counter)
        self.loc = loc
        self.result = result
        if result is not None:
            result.producer = self
        self.parent: object | None = None  # owning BasicBlock

    def operands(self) -> Iterable[Value]:
        """Value operands, for use-def traversal."""
        return ()

    def replace_operand(self, old: Value, new: Value) -> None:
        """Rewrites occurrences of ``old`` with ``new`` (pass support)."""
        raise NotImplementedError(self.opname)

    def is_terminator(self) -> bool:
        return False

    def _ops_str(self) -> str:
        return ", ".join(str(o) for o in self.operands())

    def __str__(self) -> str:
        head = f"{self.result} = " if self.result is not None else ""
        return f"{head}{self.opname} {self._ops_str()}".rstrip()

    def __repr__(self) -> str:
        return f"<{self.iid}: {self}>"


class _SimpleOps:
    """Mixin for instructions that keep operands in ``self.ops``."""

    __slots__ = ()

    def operands(self) -> Iterable[Value]:
        return list(self.ops)  # type: ignore[attr-defined]

    def replace_operand(self, old: Value, new: Value) -> None:
        self.ops = [new if o is old else o for o in self.ops]  # type: ignore[attr-defined]


class Alloca(Instruction):
    """Reserves a stack slot for one source variable (or temporary).

    The result register is the slot's *address*.  ``var_name`` /
    ``is_temp`` are the debug-info variable binding.
    """

    opname = "alloca"
    __slots__ = ("alloc_type", "var_name", "is_temp", "formal_home")

    def __init__(
        self,
        loc: SourceLocation,
        result: Register,
        alloc_type: Type,
        var_name: str,
        is_temp: bool = False,
        formal_home: str | None = None,
    ) -> None:
        super().__init__(loc, result)
        self.alloc_type = alloc_type
        self.var_name = var_name
        self.is_temp = is_temp
        #: For "in" formals, the formal's name: the alloca is the home
        #: slot the incoming value is stored into. Blame identifies it
        #: with the formal (pointer-like "in" formals are exit vars).
        self.formal_home = formal_home

    def replace_operand(self, old: Value, new: Value) -> None:
        pass

    def __str__(self) -> str:
        tag = " (temp)" if self.is_temp else ""
        return f"{self.result} = alloca {self.alloc_type} ; var {self.var_name}{tag}"


class Load(_SimpleOps, Instruction):
    """Reads the value at an address."""

    opname = "load"
    __slots__ = ("ops",)

    def __init__(self, loc: SourceLocation, result: Register, addr: Value) -> None:
        super().__init__(loc, result)
        self.ops = [addr]

    @property
    def addr(self) -> Value:
        return self.ops[0]


class Store(_SimpleOps, Instruction):
    """Writes a value to an address — the blame-defining event."""

    opname = "store"
    __slots__ = ("ops",)

    def __init__(self, loc: SourceLocation, value: Value, addr: Value) -> None:
        super().__init__(loc, None)
        self.ops = [value, addr]

    @property
    def value(self) -> Value:
        return self.ops[0]

    @property
    def addr(self) -> Value:
        return self.ops[1]


class FieldAddr(_SimpleOps, Instruction):
    """GEP-style: address of field ``index`` (named ``field_name``) inside
    the record/tuple at ``base`` (an address)."""

    opname = "fieldaddr"
    __slots__ = ("ops", "index", "field_name")

    def __init__(
        self,
        loc: SourceLocation,
        result: Register,
        base: Value,
        index: int,
        field_name: str,
    ) -> None:
        super().__init__(loc, result)
        self.ops = [base]
        self.index = index
        self.field_name = field_name

    @property
    def base(self) -> Value:
        return self.ops[0]

    def __str__(self) -> str:
        return f"{self.result} = fieldaddr {self.base}, .{self.field_name}"


class ElemAddr(_SimpleOps, Instruction):
    """Address of an array element: ``base`` is an array *value*
    (descriptor), the remaining operands are index values."""

    opname = "elemaddr"
    __slots__ = ("ops",)

    def __init__(
        self, loc: SourceLocation, result: Register, base: Value, indices: list[Value]
    ) -> None:
        super().__init__(loc, result)
        self.ops = [base, *indices]

    @property
    def base(self) -> Value:
        return self.ops[0]

    @property
    def indices(self) -> list[Value]:
        return self.ops[1:]


class TupleElemAddr(_SimpleOps, Instruction):
    """Address of element ``index`` of the tuple stored at address
    ``base`` (tuples are in-memory value types here, like LULESH's
    ``hgfx: 8*real``)."""

    opname = "tupleelemaddr"
    __slots__ = ("ops",)

    def __init__(
        self, loc: SourceLocation, result: Register, base: Value, index: Value
    ) -> None:
        super().__init__(loc, result)
        self.ops = [base, index]

    @property
    def base(self) -> Value:
        return self.ops[0]

    @property
    def index(self) -> Value:
        return self.ops[1]


class BinOp(_SimpleOps, Instruction):
    """Arithmetic/comparison/logic on scalars (or elementwise tuples —
    Chapel tuple ``+`` as used by CalcElemNodeNormals)."""

    opname = "binop"
    __slots__ = ("ops", "op")

    def __init__(
        self, loc: SourceLocation, result: Register, op: str, lhs: Value, rhs: Value
    ) -> None:
        super().__init__(loc, result)
        self.op = op
        self.ops = [lhs, rhs]

    @property
    def lhs(self) -> Value:
        return self.ops[0]

    @property
    def rhs(self) -> Value:
        return self.ops[1]

    def __str__(self) -> str:
        return f"{self.result} = {self.op} {self.lhs}, {self.rhs}"


class UnOp(_SimpleOps, Instruction):
    opname = "unop"
    __slots__ = ("ops", "op")

    def __init__(
        self, loc: SourceLocation, result: Register, op: str, operand: Value
    ) -> None:
        super().__init__(loc, result)
        self.op = op
        self.ops = [operand]

    @property
    def operand(self) -> Value:
        return self.ops[0]

    def __str__(self) -> str:
        return f"{self.result} = {self.op}{self.operand}"


class Cast(_SimpleOps, Instruction):
    """Numeric conversion (int<->real)."""

    opname = "cast"
    __slots__ = ("ops",)

    def __init__(self, loc: SourceLocation, result: Register, value: Value) -> None:
        super().__init__(loc, result)
        self.ops = [value]

    @property
    def value(self) -> Value:
        return self.ops[0]


class Call(_SimpleOps, Instruction):
    """Direct call to a module function or builtin intrinsic."""

    opname = "call"
    __slots__ = ("ops", "callee", "is_builtin")

    def __init__(
        self,
        loc: SourceLocation,
        result: Register | None,
        callee: str,
        args: list[Value],
        is_builtin: bool = False,
    ) -> None:
        super().__init__(loc, result)
        self.callee = callee
        self.ops = list(args)
        self.is_builtin = is_builtin

    @property
    def args(self) -> list[Value]:
        return self.ops

    def __str__(self) -> str:
        head = f"{self.result} = " if self.result is not None else ""
        return f"{head}call {self.callee}({self._ops_str()})"


class Ret(_SimpleOps, Instruction):
    opname = "ret"
    __slots__ = ("ops",)

    def __init__(self, loc: SourceLocation, value: Value | None = None) -> None:
        super().__init__(loc, None)
        self.ops = [] if value is None else [value]

    @property
    def value(self) -> Value | None:
        return self.ops[0] if self.ops else None

    def is_terminator(self) -> bool:
        return True


class Br(Instruction):
    opname = "br"
    __slots__ = ("target",)

    def __init__(self, loc: SourceLocation, target: "object") -> None:
        super().__init__(loc, None)
        self.target = target  # BasicBlock

    def replace_operand(self, old: Value, new: Value) -> None:
        pass

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"br {getattr(self.target, 'label', self.target)}"


class CBr(_SimpleOps, Instruction):
    """Conditional branch — the root of implicit (control-dependence)
    blame transfer: variables feeding ``cond`` blame everything in the
    dependent blocks (paper §IV.A)."""

    opname = "cbr"
    __slots__ = ("ops", "then_block", "else_block")

    def __init__(
        self,
        loc: SourceLocation,
        cond: Value,
        then_block: "object",
        else_block: "object",
    ) -> None:
        super().__init__(loc, None)
        self.ops = [cond]
        self.then_block = then_block
        self.else_block = else_block

    @property
    def cond(self) -> Value:
        return self.ops[0]

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return (
            f"cbr {self.cond}, {getattr(self.then_block, 'label', '?')}, "
            f"{getattr(self.else_block, 'label', '?')}"
        )


# ---------------------------------------------------------------------------
# Runtime instructions (Chapel-level operations the cost model prices)
# ---------------------------------------------------------------------------


class MakeRange(_SimpleOps, Instruction):
    """Builds a range value from lo, hi, step; ``counted`` means
    ``lo..#n`` (hi operand is the count)."""

    opname = "makerange"
    __slots__ = ("ops", "counted")

    def __init__(
        self,
        loc: SourceLocation,
        result: Register,
        lo: Value,
        hi: Value,
        step: Value,
        counted: bool = False,
    ) -> None:
        super().__init__(loc, result)
        self.ops = [lo, hi, step]
        self.counted = counted


class MakeDomain(_SimpleOps, Instruction):
    """Builds a rectangular domain from per-dimension ranges."""

    opname = "makedomain"
    __slots__ = ("ops",)

    def __init__(
        self, loc: SourceLocation, result: Register, dims: list[Value]
    ) -> None:
        super().__init__(loc, result)
        self.ops = list(dims)


class MakeSparseDomain(_SimpleOps, Instruction):
    """Builds an empty sparse subdomain of a rectangular ``parent``
    domain.  Indices are added dynamically via ``domainop.insert``
    (the lowering of ``spD += idx``)."""

    opname = "makesparsedomain"
    __slots__ = ("ops",)

    def __init__(
        self, loc: SourceLocation, result: Register, parent: Value
    ) -> None:
        super().__init__(loc, result)
        self.ops = [parent]

    @property
    def parent_domain(self) -> Value:
        # (``parent`` is taken: the base Instruction uses it for the
        # owning basic block.)
        return self.ops[0]


class MakeAssocDomain(Instruction):
    """Builds an empty associative domain (``domain(int)``)."""

    opname = "makeassocdomain"
    __slots__ = ()

    def __init__(self, loc: SourceLocation, result: Register) -> None:
        super().__init__(loc, result)

    def replace_operand(self, old: Value, new: Value) -> None:
        pass


class MakeArray(_SimpleOps, Instruction):
    """Heap-allocates an array over a domain.  This is the dynamic
    allocation that LULESH's ``determ``/``dvdx`` pay per call and that
    Variable Globalization hoists (paper §V.C)."""

    opname = "makearray"
    __slots__ = ("ops", "elem_type")

    def __init__(
        self, loc: SourceLocation, result: Register, domain: Value, elem_type: Type
    ) -> None:
        super().__init__(loc, result)
        self.ops = [domain]
        self.elem_type = elem_type

    @property
    def domain(self) -> Value:
        return self.ops[0]

    def __str__(self) -> str:
        return f"{self.result} = makearray {self.domain}, {self.elem_type}"


class ArraySlice(_SimpleOps, Instruction):
    """Aliasing slice ``A[D]`` — no copy (Chapel semantics; MiniMD's
    ``RealPos``/``RealCount``)."""

    opname = "arrayslice"
    __slots__ = ("ops",)

    def __init__(
        self, loc: SourceLocation, result: Register, base: Value, domain: Value
    ) -> None:
        super().__init__(loc, result)
        self.ops = [base, domain]

    @property
    def base(self) -> Value:
        return self.ops[0]

    @property
    def domain(self) -> Value:
        return self.ops[1]


class ArrayReindex(_SimpleOps, Instruction):
    """Domain remapping ``A[newDom]`` used as an iterand/view with index
    translation — the construct the paper found expensive in MiniMD."""

    opname = "arrayreindex"
    __slots__ = ("ops",)

    def __init__(
        self, loc: SourceLocation, result: Register, base: Value, domain: Value
    ) -> None:
        super().__init__(loc, result)
        self.ops = [base, domain]

    @property
    def base(self) -> Value:
        return self.ops[0]

    @property
    def domain(self) -> Value:
        return self.ops[1]


class DomainOp(_SimpleOps, Instruction):
    """Domain/range/array query or derivation: ``expand``, ``size``,
    ``dim``, ``high``, ``low``, ``translate``, ``interior``..."""

    opname = "domainop"
    __slots__ = ("ops", "op")

    def __init__(
        self,
        loc: SourceLocation,
        result: Register,
        op: str,
        base: Value,
        args: list[Value],
    ) -> None:
        super().__init__(loc, result)
        self.op = op
        self.ops = [base, *args]

    @property
    def base(self) -> Value:
        return self.ops[0]

    def __str__(self) -> str:
        return f"{self.result} = domainop.{self.op} {self._ops_str()}"


class MakeTuple(_SimpleOps, Instruction):
    """Constructs a tuple value from elements.  Construction/destruction
    of nested tuple temporaries is the cost CENN eliminates (paper §V.C)."""

    opname = "maketuple"
    __slots__ = ("ops",)

    def __init__(
        self, loc: SourceLocation, result: Register, elems: list[Value]
    ) -> None:
        super().__init__(loc, result)
        self.ops = list(elems)


class TupleGet(_SimpleOps, Instruction):
    """Extracts element ``index`` from a tuple *value*."""

    opname = "tupleget"
    __slots__ = ("ops",)

    def __init__(
        self, loc: SourceLocation, result: Register, tup: Value, index: Value
    ) -> None:
        super().__init__(loc, result)
        self.ops = [tup, index]

    @property
    def tup(self) -> Value:
        return self.ops[0]

    @property
    def index(self) -> Value:
        return self.ops[1]


class NewObject(_SimpleOps, Instruction):
    """Heap-allocates a class instance (CLOMP's Part objects)."""

    opname = "newobject"
    __slots__ = ("ops", "type_name")

    def __init__(
        self, loc: SourceLocation, result: Register, type_name: str, args: list[Value]
    ) -> None:
        super().__init__(loc, result)
        self.type_name = type_name
        self.ops = list(args)

    def __str__(self) -> str:
        return f"{self.result} = new {self.type_name}({self._ops_str()})"


class IterInit(_SimpleOps, Instruction):
    """Creates an iterator state over a range/domain/array value.

    ``zippered`` marks iterators participating in zippered iteration,
    which the cost model charges extra per step (the MiniMD finding).
    """

    opname = "iterinit"
    __slots__ = ("ops", "zippered")

    def __init__(
        self, loc: SourceLocation, result: Register, iterable: Value, zippered: bool
    ) -> None:
        super().__init__(loc, result)
        self.ops = [iterable]
        self.zippered = zippered

    @property
    def iterable(self) -> Value:
        return self.ops[0]


class IterNext(_SimpleOps, Instruction):
    """Advances an iterator; result is a bool (True while valid)."""

    opname = "iternext"
    __slots__ = ("ops",)

    def __init__(self, loc: SourceLocation, result: Register, state: Value) -> None:
        super().__init__(loc, result)
        self.ops = [state]

    @property
    def state(self) -> Value:
        return self.ops[0]


class IterValue(_SimpleOps, Instruction):
    """Current element of an iterator (index tuple for domains,
    element value for arrays)."""

    opname = "itervalue"
    __slots__ = ("ops",)

    def __init__(self, loc: SourceLocation, result: Register, state: Value) -> None:
        super().__init__(loc, result)
        self.ops = [state]

    @property
    def state(self) -> Value:
        return self.ops[0]


class SpawnJoin(_SimpleOps, Instruction):
    """Parallel loop: splits the iteration space of ``iterables`` into
    task chunks, spawns worker tasks each running ``outlined`` with
    (chunk..., captures...), and joins.

    This is the tasking-layer event the paper instruments: each spawn
    gets a unique tag and the pre-spawn stack is recorded so worker
    samples can be glued into full call paths (paper §IV.B).
    ``kind`` is "forall" (block-chunked) or "coforall" (one task per
    index).
    """

    opname = "spawnjoin"
    __slots__ = ("ops", "outlined", "kind", "n_iterables")

    def __init__(
        self,
        loc: SourceLocation,
        outlined: str,
        kind: str,
        iterables: list[Value],
        captures: list[Value],
    ) -> None:
        super().__init__(loc, None)
        self.outlined = outlined
        self.kind = kind
        self.n_iterables = len(iterables)
        self.ops = [*iterables, *captures]

    @property
    def iterables(self) -> list[Value]:
        return self.ops[: self.n_iterables]

    @property
    def captures(self) -> list[Value]:
        return self.ops[self.n_iterables :]

    def __str__(self) -> str:
        return f"spawnjoin[{self.kind}] {self.outlined}({self._ops_str()})"

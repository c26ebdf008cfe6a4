"""Semantic types for the mini-Chapel frontend.

These are the types the lowering pass infers for every expression and
storage location.  The blame analysis uses them to decide which
locations are *structured* (records, arrays, tuples) and therefore get
hierarchical field blame paths (the ``->`` entries of paper Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Type:
    """Base class of all semantic types. Types are compared structurally."""

    def is_numeric(self) -> bool:
        return isinstance(self, (IntType, RealType))


@dataclass(frozen=True)
class IntType(Type):
    """Signed integer; ``width`` mirrors Chapel's ``int(32)`` spellings."""

    width: int = 64

    def __str__(self) -> str:
        return "int" if self.width == 64 else f"int({self.width})"


@dataclass(frozen=True)
class RealType(Type):
    width: int = 64

    def __str__(self) -> str:
        return "real" if self.width == 64 else f"real({self.width})"


@dataclass(frozen=True)
class BoolType(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class StringType(Type):
    def __str__(self) -> str:
        return "string"


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class RangeType(Type):
    def __str__(self) -> str:
        return "range"


@dataclass(frozen=True)
class DomainType(Type):
    """Rectangular domain of the given rank (paper: ``binSpace``,
    ``DistSpace``, ``partDomain``...)."""

    rank: int = 1

    def __str__(self) -> str:
        return f"domain({self.rank})"


@dataclass(frozen=True)
class SparseDomainType(DomainType):
    """Sparse subdomain of a rectangular parent domain: holds an
    explicit (sorted) subset of the parent's indices.  Arrays declared
    over one store only the present indices — the irregular-workload
    substrate (SpMV / MTTKRP nonzero sets)."""

    def __str__(self) -> str:
        return f"sparse subdomain({self.rank})"


@dataclass(frozen=True)
class AssociativeDomainType(DomainType):
    """Associative domain keyed by ``int`` (``domain(int)``): an
    insertion-ordered set of keys.  Always rank 1 — an index is one
    key, not a coordinate tuple."""

    def __str__(self) -> str:
        return "domain(int)"


@dataclass(frozen=True)
class TupleType(Type):
    """Fixed-size tuple.  Chapel's ``3*real`` becomes a homogeneous
    3-element tuple; heterogeneous tuples keep per-element types."""

    elems: tuple[Type, ...]

    def __str__(self) -> str:
        if self.elems and all(e == self.elems[0] for e in self.elems):
            return f"{len(self.elems)}*{self.elems[0]}"
        return "(" + ", ".join(str(e) for e in self.elems) + ")"

    @property
    def size(self) -> int:
        return len(self.elems)


@dataclass(frozen=True)
class ArrayType(Type):
    """Array over a rectangular domain.  The domain's *extent* is a
    runtime value; the static type records element type and rank.

    ``domain_name`` optionally remembers the source-level domain variable
    the array was declared over (``[DistSpace] ...``) so the data-centric
    view can print types the way paper Tables II/IV do."""

    elem: Type
    rank: int = 1
    domain_name: str | None = None

    def __str__(self) -> str:
        dom = self.domain_name if self.domain_name else "?" * self.rank
        return f"[{dom}] {self.elem}"

    def __eq__(self, other: object) -> bool:
        # The declaring domain's name is presentation metadata only.
        return (
            isinstance(other, ArrayType)
            and self.elem == other.elem
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash(("array", self.elem, self.rank))


@dataclass(frozen=True)
class RecordType(Type):
    """A user record/class; fields are ordered (name, type) pairs."""

    name: str
    fields: tuple[tuple[str, Type], ...] = field(default_factory=tuple)
    is_class: bool = False

    def __str__(self) -> str:
        return self.name

    def field_type(self, name: str) -> Type | None:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        return None

    def field_index(self, name: str) -> int | None:
        for i, (fname, _) in enumerate(self.fields):
            if fname == name:
                return i
        return None


INT = IntType()
REAL = RealType()
BOOL = BoolType()
STRING = StringType()
VOID = VoidType()
RANGE = RangeType()


def unify_numeric(a: Type, b: Type) -> Type | None:
    """Numeric promotion: int op real -> real; equal types pass through.

    Returns ``None`` when the operands cannot be combined.
    """
    if a == b:
        return a
    if isinstance(a, IntType) and isinstance(b, IntType):
        return IntType(max(a.width, b.width))
    if isinstance(a, RealType) and isinstance(b, IntType):
        return a
    if isinstance(a, IntType) and isinstance(b, RealType):
        return b
    if isinstance(a, RealType) and isinstance(b, RealType):
        return RealType(max(a.width, b.width))
    return None


def assignable(dst: Type, src: Type) -> bool:
    """True when a value of type ``src`` may be assigned to storage of
    type ``dst`` (exact match or int->real widening, elementwise for
    tuples/arrays)."""
    if dst == src:
        return True
    if isinstance(dst, RealType) and isinstance(src, IntType):
        return True
    if isinstance(dst, IntType) and isinstance(src, IntType):
        return True
    if isinstance(dst, TupleType) and isinstance(src, TupleType):
        return len(dst.elems) == len(src.elems) and all(
            assignable(d, s) for d, s in zip(dst.elems, src.elems)
        )
    if isinstance(dst, ArrayType) and isinstance(src, ArrayType):
        return dst.rank == src.rank and assignable(dst.elem, src.elem)
    return False


def storage_slots(t: Type) -> int:
    """Number of scalar slots a value of type ``t`` occupies inline.

    Arrays and class instances count as one slot (a descriptor/pointer);
    tuples and records are flattened.  The cost model charges per-slot
    for tuple construction/destruction — the effect the paper's CENN
    optimization removes.
    """
    if isinstance(t, TupleType):
        return sum(storage_slots(e) for e in t.elems)
    if isinstance(t, RecordType) and not t.is_class:
        return sum(storage_slots(ft) for _, ft in t.fields)
    return 1

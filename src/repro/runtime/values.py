"""Runtime value model for the IR interpreter.

Value kinds and their Python carriers:

* scalars — ``int`` / ``float`` / ``bool`` / ``str``;
* tuples — :class:`TupleValue` (mutable, value semantics on store);
* records — :class:`RecordValue` (value semantics) and
  :class:`ClassValue` (heap reference semantics);
* ranges/domains — immutable :class:`RangeValue` / :class:`DomainValue`;
* arrays — :class:`ArrayValue`: flat storage + strides, with aliasing
  *views* for slices (same coordinates) and reindexed views (translated
  coordinates, paying a per-access cost — the paper's expensive
  "domain remapping");
* addresses — plain ``(container_list, index)`` tuples for speed: a
  store is ``container[index] = value``.

Chunk values (:class:`DomainChunk`, :class:`ArrayChunk`,
:class:`RangeValue` sub-ranges) carry a contiguous block of a parallel
loop's iteration space into a worker task.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from ..chapel.types import (
    ArrayType,
    BoolType,
    IntType,
    RealType,
    RecordType,
    StringType,
    TupleType,
    Type,
)


class RuntimeError_(Exception):
    """Runtime failure in simulated program execution (bounds, halt...)."""


# ---------------------------------------------------------------------------
# Ranges and domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeValue:
    """``lo..hi by step`` with inclusive bounds (Chapel semantics)."""

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step == 0:
            raise RuntimeError_("range step cannot be zero")

    @cached_property
    def size(self) -> int:
        # cached: ranges are immutable and size is read per iteration
        # step (IterInit bounds, coords_of) in the interpreter hot path.
        if self.step > 0:
            if self.hi < self.lo:
                return 0
            return (self.hi - self.lo) // self.step + 1
        if self.lo < self.hi:
            return 0
        return (self.lo - self.hi) // (-self.step) + 1

    def indices(self) -> range:
        if self.step > 0:
            return range(self.lo, self.hi + 1, self.step)
        return range(self.lo, self.hi - 1, self.step)

    def nth(self, k: int) -> int:
        return self.lo + k * self.step

    def position_of(self, value: int) -> int:
        return (value - self.lo) // self.step

    def contains(self, value: int) -> bool:
        if self.step > 0:
            ok = self.lo <= value <= self.hi
        else:
            ok = self.hi <= value <= self.lo
        return ok and (value - self.lo) % self.step == 0

    def subrange_by_position(self, lo_pos: int, hi_pos: int) -> "RangeValue":
        """Positions are inclusive; used for forall chunking."""
        return RangeValue(self.nth(lo_pos), self.nth(hi_pos), self.step)

    def __str__(self) -> str:
        s = f"{self.lo}..{self.hi}"
        return s if self.step == 1 else f"{s} by {self.step}"


@dataclass(frozen=True)
class DomainValue:
    """Rectangular domain: one range per dimension, row-major order."""

    dims: tuple[RangeValue, ...]

    @property
    def rank(self) -> int:
        return len(self.dims)

    @cached_property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d.size
        return n

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.size for d in self.dims)

    def expand(self, amounts: tuple[int, ...]) -> "DomainValue":
        """Chapel ``D.expand(k...)``: grow each dimension by k at both
        ends (MiniMD's ``DistSpace = binSpace.expand(...)``)."""
        if len(amounts) == 1 and self.rank > 1:
            amounts = amounts * self.rank
        dims = tuple(
            RangeValue(d.lo - a * abs(d.step), d.hi + a * abs(d.step), d.step)
            for d, a in zip(self.dims, amounts)
        )
        return DomainValue(dims)

    def translate(self, amounts: tuple[int, ...]) -> "DomainValue":
        if len(amounts) == 1 and self.rank > 1:
            amounts = amounts * self.rank
        dims = tuple(
            RangeValue(d.lo + a, d.hi + a, d.step) for d, a in zip(self.dims, amounts)
        )
        return DomainValue(dims)

    def interior(self, amounts: tuple[int, ...]) -> "DomainValue":
        if len(amounts) == 1 and self.rank > 1:
            amounts = amounts * self.rank
        dims = tuple(
            RangeValue(d.lo + a, d.hi - a, d.step) for d, a in zip(self.dims, amounts)
        )
        return DomainValue(dims)

    def contains(self, coords: tuple[int, ...]) -> bool:
        dims = self.dims
        if len(dims) == 1:
            return dims[0].contains(coords[0])
        return all(d.contains(c) for d, c in zip(dims, coords))

    def flat_of(self, coords: tuple[int, ...]) -> int:
        """Row-major linearization of a coordinate."""
        dims = self.dims
        if len(dims) == 1:
            # Rank-1 unit-step: the dominant array layout in the
            # benchmarks — one compare pair and a subtraction.
            d = dims[0]
            c = coords[0]
            if d.step == 1:
                if d.lo <= c <= d.hi:
                    return c - d.lo
            elif d.contains(c):
                return d.position_of(c)
            raise RuntimeError_(
                f"index {coords} out of bounds for domain "
                f"{{{', '.join(map(str, dims))}}}"
            )
        flat = 0
        for d, c in zip(dims, coords):
            if not d.contains(c):
                raise RuntimeError_(
                    f"index {coords} out of bounds for domain "
                    f"{{{', '.join(map(str, self.dims))}}}"
                )
            flat = flat * d.size + d.position_of(c)
        return flat

    def coords_of(self, flat: int) -> tuple[int, ...]:
        dims = self.dims
        if len(dims) == 1:
            d = dims[0]
            return (d.lo + (flat % d.size) * d.step,)
        coords: list[int] = []
        for d in reversed(dims):
            coords.append(d.nth(flat % d.size))
            flat //= d.size
        coords.reverse()
        return tuple(coords)

    def iter_coords(self) -> Iterator[tuple[int, ...]]:
        for flat in range(self.size):
            yield self.coords_of(flat)

    def __str__(self) -> str:
        return "{" + ", ".join(str(d) for d in self.dims) + "}"


class SparseDomainValue:
    """Sparse subdomain of a rectangular parent domain.

    Holds an explicit *sorted* (row-major coordinate order) subset of
    the parent's indices.  Mutable: ``insert`` adds an index, and every
    array declared over the domain grows in place (a default-valued
    element slides into the new position) — Chapel's sparse-domain
    ``+=`` semantics.  Iteration order is the sorted coordinate order,
    so runs are deterministic regardless of insertion order.
    """

    __slots__ = ("parent", "_coords", "_pos", "_arrays")

    def __init__(self, parent: DomainValue) -> None:
        self.parent = parent
        self._coords: list[tuple[int, ...]] = []
        self._pos: dict[tuple[int, ...], int] = {}
        #: Arrays declared over this domain (grown on insert).
        self._arrays: list[ArrayValue] = []

    @property
    def rank(self) -> int:
        return self.parent.rank

    @property
    def size(self) -> int:
        return len(self._coords)

    def register_array(self, arr: "ArrayValue") -> None:
        self._arrays.append(arr)

    def contains(self, coords: tuple[int, ...]) -> bool:
        return coords in self._pos

    def insert(self, coords: tuple[int, ...]) -> int:
        """Adds an index (no-op for duplicates); returns the new size."""
        if len(coords) != self.rank:
            raise RuntimeError_(
                f"rank-{self.rank} sparse domain given index {coords}"
            )
        if not self.parent.contains(coords):
            raise RuntimeError_(
                f"index {coords} outside parent domain {self.parent}"
            )
        if coords in self._pos:
            return len(self._coords)
        p = bisect.bisect_left(self._coords, coords)
        self._coords.insert(p, coords)
        for i in range(p, len(self._coords)):
            self._pos[self._coords[i]] = i
        for arr in self._arrays:
            arr.data.insert(p, default_value(arr.elem_type))
        return len(self._coords)

    def flat_of(self, coords: tuple[int, ...]) -> int:
        pos = self._pos.get(coords)
        if pos is None:
            raise RuntimeError_(
                f"index {coords} not a member of sparse domain "
                f"(parent {self.parent})"
            )
        return pos

    def coords_of(self, flat: int) -> tuple[int, ...]:
        return self._coords[flat]

    def iter_coords(self) -> Iterator[tuple[int, ...]]:
        return iter(self._coords)

    def __str__(self) -> str:
        return f"sparse({self.size} of {self.parent})"


class AssociativeDomainValue:
    """Associative domain keyed by int (``domain(int)``).

    An append-only insertion-ordered key set; arrays declared over it
    grow by appending a default element per new key.  Rank is always 1.
    """

    __slots__ = ("_keys", "_pos", "_arrays")

    rank = 1

    def __init__(self) -> None:
        self._keys: list[int] = []
        self._pos: dict[int, int] = {}
        self._arrays: list[ArrayValue] = []

    @property
    def size(self) -> int:
        return len(self._keys)

    def register_array(self, arr: "ArrayValue") -> None:
        self._arrays.append(arr)

    def contains(self, coords: tuple[int, ...]) -> bool:
        return coords[0] in self._pos

    def insert(self, key: int) -> int:
        """Adds a key (no-op for duplicates); returns the new size."""
        if key not in self._pos:
            self._pos[key] = len(self._keys)
            self._keys.append(key)
            for arr in self._arrays:
                arr.data.append(default_value(arr.elem_type))
        return len(self._keys)

    def flat_of(self, coords: tuple[int, ...]) -> int:
        pos = self._pos.get(coords[0])
        if pos is None:
            raise RuntimeError_(
                f"key {coords[0]} not a member of associative domain"
            )
        return pos

    def coords_of(self, flat: int) -> tuple[int, ...]:
        return (self._keys[flat],)

    def iter_coords(self) -> Iterator[tuple[int, ...]]:
        for k in self._keys:
            yield (k,)

    def __str__(self) -> str:
        return f"assoc({self.size} keys)"


@dataclass(frozen=True)
class DomainChunk:
    """A contiguous block (by linear position) of a domain's iteration
    space — a worker task's share of a forall."""

    domain: DomainValue
    lo: int  # inclusive linear positions
    hi: int

    @property
    def size(self) -> int:
        return max(0, self.hi - self.lo + 1)


# ---------------------------------------------------------------------------
# Tuples / records / classes
# ---------------------------------------------------------------------------


class TupleValue:
    """Mutable fixed-size tuple; stores copy (value semantics)."""

    __slots__ = ("elems",)

    def __init__(self, elems: list) -> None:
        self.elems = elems

    def copy(self) -> "TupleValue":
        return TupleValue([e.copy() if type(e) in _VALUE_AGGREGATES else e for e in self.elems])

    @property
    def size(self) -> int:
        return len(self.elems)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TupleValue) and self.elems == other.elems

    def __repr__(self) -> str:
        return "(" + ", ".join(_fmt(e) for e in self.elems) + ")"


class RecordValue:
    """A record (value-semantics) instance; fields by position."""

    __slots__ = ("type", "fields")

    def __init__(self, rtype: RecordType, fields: list) -> None:
        self.type = rtype
        self.fields = fields

    def copy(self) -> "RecordValue":
        return RecordValue(
            self.type, [f.copy() if type(f) in _VALUE_AGGREGATES else f for f in self.fields]
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name} = {_fmt(v)}" for (name, _), v in zip(self.type.fields, self.fields)
        )
        return f"({inner})"


class ClassValue:
    """A heap class instance (reference semantics); tracked by the
    simulated heap for the HPCToolkit-style baseline."""

    __slots__ = ("type", "fields", "heap_id")

    def __init__(self, rtype: RecordType, fields: list, heap_id: int = -1) -> None:
        self.type = rtype
        self.fields = fields
        self.heap_id = heap_id

    def __repr__(self) -> str:
        return f"<{self.type.name}#{self.heap_id}>"


#: Value-semantics aggregates: deep-copied on store.  Value classes are
#: tested by identity (none is subclassed), which is cheaper than
#: ``isinstance`` on the interpreter's hot paths.
_VALUE_AGGREGATES = frozenset((TupleValue, RecordValue))
#: Values whose slot footprint is the sum over their elements.
_SLOTTED = frozenset((TupleValue, RecordValue, ClassValue))


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------


class ArrayValue:
    """Array over a domain.

    A *root* array owns flat ``data``.  A *view* shares the root's data:

    * slice view (``A[D]``): same coordinates, restricted domain;
    * reindex view (``A.reindex(D)``): coordinates translated by a
      per-dimension delta; every access pays translation cost.
    """

    __slots__ = (
        "domain", "elem_type", "data", "root", "deltas", "is_reindex", "heap_id", "lo", "hi",
    )

    def __init__(
        self,
        domain: DomainValue,
        elem_type: Type,
        data: list | None = None,
        root: "ArrayValue | None" = None,
        deltas: tuple[int, ...] | None = None,
        is_reindex: bool = False,
        heap_id: int = -1,
    ) -> None:
        self.domain = domain
        self.elem_type = elem_type
        self.root = root if root is not None else self
        self.data = data if data is not None else self.root.data
        #: Per-dim coordinate delta view→root (reindex views only).
        self.deltas = deltas
        self.is_reindex = is_reindex
        self.heap_id = heap_id
        #: A root rank-1 unit-step array's bounds: coordinate ``c`` with
        #: ``lo <= c <= hi`` is at flat index ``c - lo``.  Every other
        #: array gets the empty interval (1, 0) and goes through its
        #: domain's ``flat_of``.
        self.lo, self.hi = 1, 0
        if root is None and isinstance(domain, DomainValue) and domain.rank == 1:
            d = domain.dims[0]
            if d.step == 1:
                self.lo, self.hi = d.lo, d.hi

    @property
    def is_view(self) -> bool:
        return self.root is not self

    @property
    def size(self) -> int:
        return self.domain.size

    def root_coords(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        if self.deltas is None:
            return coords
        return tuple(c + d for c, d in zip(coords, self.deltas))

    def flat_of(self, coords: tuple[int, ...]) -> int:
        """Flat index into the root's data for view coordinates."""
        root = self.root
        if root is self:
            # Root array: the view domain IS the storage domain and
            # there is no coordinate translation, so a single bounds
            # check (inside the domain's flat_of) suffices.  The
            # out-of-bounds message is textually identical to the view
            # path's.
            c = coords[0]
            if self.lo <= c <= self.hi:
                return c - self.lo
            return self.domain.flat_of(coords)
        if not self.domain.contains(coords):
            raise RuntimeError_(
                f"index {coords} out of bounds for domain {self.domain}"
            )
        return root.domain.flat_of(self.root_coords(coords))

    def elem_address(self, coords: tuple[int, ...]) -> tuple[list, int]:
        return (self.root.data, self.flat_of(coords))

    def slice(self, domain: DomainValue) -> "ArrayValue":
        """Aliasing slice keeping coordinates (Chapel ``A[D]``)."""
        return ArrayValue(
            domain,
            self.elem_type,
            root=self.root,
            deltas=self.deltas,
            is_reindex=self.is_reindex,
        )

    def reindex(self, domain: DomainValue) -> "ArrayValue":
        """Aliasing view with translated coordinates."""
        if domain.shape != self.domain.shape:
            raise RuntimeError_(
                f"reindex domain shape {domain.shape} != array shape "
                f"{self.domain.shape}"
            )
        base_deltas = self.deltas or tuple(0 for _ in range(self.domain.rank))
        deltas = tuple(
            old.lo - new.lo + bd
            for old, new, bd in zip(self.domain.dims, domain.dims, base_deltas)
        )
        return ArrayValue(
            domain, self.elem_type, root=self.root, deltas=deltas, is_reindex=True
        )

    def __repr__(self) -> str:
        kind = "view" if self.is_view else "array"
        return f"<{kind} {self.domain} of {self.elem_type}>"


@dataclass(frozen=True)
class ArrayChunk:
    """A contiguous block (by linear position within the view's domain)
    of an array's elements — a worker task's share of ``forall a in A``."""

    array: ArrayValue
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return max(0, self.hi - self.lo + 1)


# ---------------------------------------------------------------------------
# Construction / copying / formatting
# ---------------------------------------------------------------------------


def default_value(ty: Type) -> object:
    """Zero value of a type (Chapel default-initialization)."""
    if isinstance(ty, IntType):
        return 0
    if isinstance(ty, RealType):
        return 0.0
    if isinstance(ty, BoolType):
        return False
    if isinstance(ty, StringType):
        return ""
    if isinstance(ty, TupleType):
        return TupleValue([default_value(e) for e in ty.elems])
    if isinstance(ty, RecordType):
        if ty.is_class:
            return None  # nil
        return RecordValue(ty, [default_value(ft) for _, ft in ty.fields])
    if isinstance(ty, ArrayType):
        return None  # uninitialized descriptor
    raise RuntimeError_(f"no default value for type {ty}")


def copy_value(v: object) -> object:
    """Value-semantics copy: tuples and records deep-copy; arrays,
    classes, ranges, domains and scalars pass through."""
    return v.copy() if type(v) in _VALUE_AGGREGATES else v


def value_slots(v: object) -> int:
    """Scalar-slot footprint of a value (cost-model input for tuple and
    record construction/copy)."""
    cls = type(v)
    if cls is TupleValue:
        items = v.elems
    elif cls is RecordValue or cls is ClassValue:
        items = v.fields
    else:
        return 1
    return sum([value_slots(e) if type(e) in _SLOTTED else 1 for e in items])


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_value(v: object) -> str:
    """Chapel-ish writeln formatting."""
    if isinstance(v, ArrayValue):
        return " ".join(format_value(v.data[v.flat_of(c)]) for c in v.domain.iter_coords())
    return _fmt(v)

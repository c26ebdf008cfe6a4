"""Interprocedural locality classification of array element accesses.

Distributed Chapel programs block-distribute arrays and forall loops
across locales, so whether ``A[expr]`` is a cheap local access or a
fine-grained remote get depends on *where the index comes from*.  This
pass classifies every ``elemaddr`` in the module:

* **LOCAL** — provably local: a rank-1 identity access ``A[i]`` where
  ``i`` is the parallel iteration index and ``A`` is declared over the
  very domain the forall iterates.  Block distribution co-locates
  iteration ``i`` with element ``i``, so executing locale == owning
  locale at every trip.
* **INDIRECT** — the index is computed from array *contents*
  (``A[idx[i]]`` chains): the target locale is data-dependent and
  unknowable statically.  These are the accesses the communication
  advisor's batching/aggregation/hoisting passes act on.
* **REMOTE** — everything else, conservatively: the access may target
  another locale (computed indices, misaligned domains, rank > 1,
  serial code touching a distributed array).

The classification is *exact on the LOCAL side*: an access labeled
LOCAL must never execute with ``executing locale != owning locale``
under the simulated block distribution —
:class:`repro.runtime.locales.LocaleObserver` cross-checks this
dynamically, and the test suite gates on it.  REMOTE and INDIRECT are
over-approximations by design.

Index provenance is interprocedural: per-function formal bindings are
joined over every callsite (calls and spawn captures), to a small
fixpoint.  Two deliberate modelling rules keep the optimized (CSR /
inspector-executor) program shapes quiet:

* **Induction-cell terminal.**  A local cell with a self-increment
  store (``j = j + step`` — the shape counted ``for`` loops lower to)
  is a *direct* terminal even when its init value loads an array
  element: ``for j in rowPtr[i]..rowPtr[i+1]-1`` walks a contiguous
  index window, exactly what the CSR rewrites produce.  (A hand-rolled
  accumulator used as an index inherits this and reads as direct — a
  documented over-approximation toward fewer findings, never toward a
  false LOCAL.)
* **Sequence iterators are direct.**  ``IterValue`` over a range or
  domain yields consecutive positions regardless of how the bounds
  were computed; only iterating an *array* yields data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..blame.dataflow import DataFlow, VarKey
from ..chapel.types import ArrayType
from ..ir import instructions as I
from ..ir.module import Function
from .context import AnalysisContext

#: Callsite-binding fixpoint bound (call chains deeper than this keep
#: their conservative classification; real programs converge in 1-2).
MAX_BINDING_ROUNDS = 5


class Locality(enum.Enum):
    """Static verdict for one array element access."""

    LOCAL = "local"
    REMOTE = "remote"
    INDIRECT = "indirect"


@dataclass(frozen=True)
class AccessClass:
    """Classification of one ``elemaddr`` instruction."""

    locality: Locality
    #: User-visible names of the accessed array (empty for temps).
    arrays: tuple[str, ...]
    #: For INDIRECT: arrays whose *contents* feed the index chain.
    index_sources: tuple[str, ...]
    reason: str


class LocalityAnalysis:
    """Module-wide access classification over the blame-pipeline roots.

    Build via ``AnalysisContext.locality()`` (memoized); results live
    in :attr:`accesses` keyed by the ``elemaddr``'s instruction id.
    """

    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx
        self.module = ctx.module
        #: (function name, formal name) → indirect source names bound
        #: at the callsites (empty/missing = direct or never called).
        self._formal_sources: dict[tuple[str, str], frozenset[str]] = {}
        #: outlined function name → [(caller, spawn instruction)]
        self._spawns: dict[str, list[tuple[Function, I.SpawnJoin]]] = {}
        #: array variable → root keys of its declaring domain.
        self._array_domains: dict[VarKey, frozenset[VarKey]] = {}
        #: function name → IterValue results over its chunk formals.
        self._chunk_values: dict[str, frozenset[I.Register]] = {}
        #: elemaddr iid → classification.
        self.accesses: dict[int, AccessClass] = {}
        self._build()

    # -- public helpers ----------------------------------------------------

    def classify(self, instr: I.ElemAddr) -> AccessClass | None:
        return self.accesses.get(instr.iid)

    def index_chain(self, fn: Function, value: I.Value) -> frozenset[I.Instruction]:
        """The *dynamic points* of ``value``'s provenance: IterValue
        steps, stores chased through local cells, and nested element
        loads.  ``value`` is invariant w.r.t. a loop iff none of these
        sit inside the loop's blocks — the test the indirection-hoist
        pass applies."""
        out: set[I.Instruction] = set()
        self._chain(fn, self.ctx.dataflow(fn), value, set(), out)
        return frozenset(out)

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for fn in self.module.functions.values():
            df = self.ctx.dataflow(fn)
            for instr in fn.instructions():
                if isinstance(instr, I.SpawnJoin):
                    self._spawns.setdefault(instr.outlined, []).append(
                        (fn, instr)
                    )
                elif isinstance(instr, I.Store):
                    self._note_array_domain(df, instr)
            self._chunk_values[fn.name] = self._chunk_value_regs(fn, df)
        self._bind_formals()
        for fn in self.module.functions.values():
            df = self.ctx.dataflow(fn)
            for instr in fn.instructions():
                if isinstance(instr, I.ElemAddr):
                    self.accesses[instr.iid] = self._classify(fn, df, instr)

    def _note_array_domain(self, df: DataFlow, store: I.Store) -> None:
        """Record which domain variable each array was declared over
        (the ``makearray`` → store pattern array declarations lower to)."""
        value = store.value
        if not (
            isinstance(value, I.Register)
            and isinstance(value.producer, I.MakeArray)
        ):
            return
        dom_keys = frozenset(
            k for k, p in df.roots_of(value.producer.domain) if not p
        )
        if not dom_keys:
            return  # anonymous domain: never provably aligned
        for key, path in df.roots_of(store.addr):
            if path:
                continue
            prev = self._array_domains.get(key)
            # A variable rebound to arrays over different domains loses
            # alignment (conservative: LOCAL needs a unique domain).
            self._array_domains[key] = (
                dom_keys if prev is None or prev == dom_keys else frozenset()
            )

    @staticmethod
    def _chunk_value_regs(fn: Function, df: DataFlow) -> frozenset[I.Register]:
        """Registers holding the task-private parallel iteration index
        (IterValue over a ``_chunk*`` formal — same discovery the race
        detector uses)."""
        states: set[I.Register] = set()
        for instr in fn.instructions():
            if isinstance(instr, I.IterInit) and any(
                key.kind == "formal" and str(key.ident).startswith("_chunk")
                for key, _ in df.roots_of(instr.iterable)
            ):
                if instr.result is not None:
                    states.add(instr.result)
        regs: set[I.Register] = set()
        for instr in fn.instructions():
            if (
                isinstance(instr, I.IterValue)
                and isinstance(instr.state, I.Register)
                and instr.state in states
                and instr.result is not None
            ):
                regs.add(instr.result)
        return frozenset(regs)

    def _bind_formals(self) -> None:
        """Joins each formal's indirect sources over every callsite
        (calls and spawn iterable/capture bindings), to a fixpoint."""
        pairs: list[tuple[Function, str, str, I.Value]] = []
        for fn in self.module.functions.values():
            for instr in fn.instructions():
                if isinstance(instr, I.Call) and not instr.is_builtin:
                    callee = self.module.get_function(instr.callee)
                    if callee is not None:
                        for p, a in zip(callee.params, instr.args):
                            pairs.append((fn, callee.name, p.name, a))
                elif isinstance(instr, I.SpawnJoin):
                    outlined = self.module.get_function(instr.outlined)
                    if outlined is not None:
                        for p, a in zip(outlined.params, instr.ops):
                            pairs.append((fn, outlined.name, p.name, a))
        for _ in range(MAX_BINDING_ROUNDS):
            changed = False
            for fn, callee_name, pname, actual in pairs:
                src = self._sources(fn, self.ctx.dataflow(fn), actual, set())
                key = (callee_name, pname)
                old = self._formal_sources.get(key, frozenset())
                new = old | src
                if new != old:
                    self._formal_sources[key] = new
                    changed = True
            if not changed:
                break

    # -- index provenance --------------------------------------------------

    def _sources(
        self,
        fn: Function,
        df: DataFlow,
        value: I.Value,
        visited: set[int],
    ) -> frozenset[str]:
        if not isinstance(value, I.Register):
            return frozenset()
        producer = value.producer
        if producer is None:
            # A formal's own register: the callsite binding decides.
            for p in fn.params:
                if p.register is value:
                    return self._formal_sources.get(
                        (fn.name, p.name), frozenset()
                    )
            return frozenset()
        if producer.iid in visited:
            return frozenset()
        visited.add(producer.iid)
        if isinstance(producer, I.Load):
            return self._load_sources(fn, df, producer, visited)
        if isinstance(producer, I.IterValue):
            return self._iter_sources(df, producer)
        if isinstance(producer, I.Call):
            return frozenset()  # opaque return value: direct terminal
        out: frozenset[str] = frozenset()
        for op in producer.operands():
            out |= self._sources(fn, df, op, visited)
        return out

    def _load_sources(
        self,
        fn: Function,
        df: DataFlow,
        load: I.Load,
        visited: set[int],
    ) -> frozenset[str]:
        addr = load.addr
        ap = addr.producer if isinstance(addr, I.Register) else None
        if isinstance(ap, I.ElemAddr):
            # Loading an array element: indirect by definition.
            return self._element_names(df, ap.base) or frozenset({"<array>"})
        if isinstance(ap, I.IterValue):
            # Loading through an element reference yielded by array
            # iteration — same thing.
            return self._iter_sources(df, ap) or frozenset({"<array>"})
        out: frozenset[str] = frozenset()
        for key, path in df.roots_of(addr):
            if path:
                continue
            if key.kind == "formal":
                out |= self._formal_sources.get(
                    (fn.name, str(key.ident)), frozenset()
                )
            elif key.kind == "local":
                if self._is_induction_cell(df, key):
                    continue  # contiguous counter walk: direct terminal
                for w in df.writes.get(key, ()):
                    if isinstance(w, I.Store):
                        out |= self._sources(fn, df, w.value, visited)
            # Global scalar reads are opaque direct terminals.
        return out

    def _iter_sources(self, df: DataFlow, itervalue: I.IterValue) -> frozenset[str]:
        state = itervalue.state
        init = state.producer if isinstance(state, I.Register) else None
        if not isinstance(init, I.IterInit):
            return frozenset()
        if isinstance(getattr(init.iterable, "type", None), ArrayType):
            return self._element_names(df, init.iterable) or frozenset(
                {"<array>"}
            )
        # Ranges/domains yield positions, not data.
        return frozenset()

    def _is_induction_cell(self, df: DataFlow, key: VarKey) -> bool:
        for w in df.writes.get(key, ()):
            if not isinstance(w, I.Store):
                continue
            v = w.value
            p = v.producer if isinstance(v, I.Register) else None
            if not (isinstance(p, I.BinOp) and p.op in ("+", "-")):
                continue
            for a, b in ((p.lhs, p.rhs), (p.rhs, p.lhs)):
                if self._is_load_of(df, a, key) and isinstance(b, I.Constant):
                    return True
        return False

    @staticmethod
    def _is_load_of(df: DataFlow, value: I.Value, key: VarKey) -> bool:
        return (
            isinstance(value, I.Register)
            and isinstance(value.producer, I.Load)
            and any(k == key for k, _ in df.roots_of(value.producer.addr))
        )

    @staticmethod
    def _element_names(df: DataFlow, base: I.Value) -> frozenset[str]:
        names: set[str] = set()
        for key, _path in df.roots_of(base):
            meta = df.var_meta.get(key)
            if meta is not None and not meta.is_temp:
                names.add(meta.name)
        return frozenset(names)

    # -- invariance chain (for the hoist pass) -----------------------------

    def _chain(
        self,
        fn: Function,
        df: DataFlow,
        value: I.Value,
        visited: set[int],
        out: set[I.Instruction],
    ) -> None:
        if not isinstance(value, I.Register):
            return
        p = value.producer
        if p is None or p.iid in visited:
            return
        visited.add(p.iid)
        if isinstance(p, I.IterValue):
            out.add(p)
            return
        if isinstance(p, I.Load):
            addr = p.addr
            ap = addr.producer if isinstance(addr, I.Register) else None
            if isinstance(ap, (I.ElemAddr, I.IterValue)):
                out.add(p)  # nested element load: conservative dynamic point
                return
            for key, path in df.roots_of(addr):
                if path:
                    out.add(p)  # sub-path load: conservative
                    return
            for key, _path in df.roots_of(addr):
                if key.kind in ("local", "formal"):
                    for w in df.writes.get(key, ()):
                        if isinstance(w, I.Store):
                            out.add(w)
                            self._chain(fn, df, w.value, visited, out)
                else:
                    out.add(p)  # global cell: writable elsewhere
            return
        for op in p.operands():
            self._chain(fn, df, op, visited, out)

    # -- classification ----------------------------------------------------

    def _classify(
        self, fn: Function, df: DataFlow, instr: I.ElemAddr
    ) -> AccessClass:
        arrays = tuple(sorted(self._element_names(df, instr.base)))
        sources: frozenset[str] = frozenset()
        for ix in instr.indices:
            sources |= self._sources(fn, df, ix, set())
        if sources:
            return AccessClass(
                Locality.INDIRECT,
                arrays,
                tuple(sorted(sources)),
                "index computed from array contents",
            )
        if self._provably_local(fn, df, instr):
            return AccessClass(
                Locality.LOCAL,
                arrays,
                (),
                "identity index over the iterated domain",
            )
        return AccessClass(
            Locality.REMOTE,
            arrays,
            (),
            "not provably co-located with the executing task",
        )

    def _provably_local(
        self, fn: Function, df: DataFlow, instr: I.ElemAddr
    ) -> bool:
        if fn.outlined_from is None or len(instr.indices) != 1:
            return False
        spawns = self._spawns.get(fn.name)
        if not spawns:
            return False
        if not self._is_identity_index(fn, df, instr.indices[0]):
            return False
        base_keys = {k for k, p in df.roots_of(instr.base) if not p}
        if len(base_keys) != 1:
            return False
        (bkey,) = tuple(base_keys)
        outlined = self.module.get_function(fn.name)
        for caller, spawn in spawns:
            # Alignment must hold at *every* spawn site of this body.
            if spawn.kind != "forall" or spawn.n_iterables != 1:
                return False
            caller_df = self.ctx.dataflow(caller)
            if bkey.kind == "global":
                arr_key: VarKey | None = bkey
            elif bkey.kind == "formal":
                actual = None
                for p, a in zip(outlined.params, spawn.ops):
                    if p.name == str(bkey.ident):
                        actual = a
                        break
                if actual is None:
                    return False
                arr_keys = {
                    k for k, p in caller_df.roots_of(actual) if not p
                }
                if len(arr_keys) != 1:
                    return False
                (arr_key,) = tuple(arr_keys)
            else:
                return False
            dom_keys = self._array_domains.get(arr_key, frozenset())
            it_keys = frozenset(
                k
                for k, p in caller_df.roots_of(spawn.iterables[0])
                if not p
            )
            if not dom_keys or dom_keys != it_keys:
                return False
        return True

    def _is_identity_index(
        self, fn: Function, df: DataFlow, value: I.Value
    ) -> bool:
        """True when ``value`` is (a reload of) the task's own parallel
        iteration index, untransformed."""
        chunk_regs = self._chunk_values.get(fn.name, frozenset())
        if not isinstance(value, I.Register):
            return False
        if value in chunk_regs:
            return True
        p = value.producer
        if not isinstance(p, I.Load):
            return False
        keys = {
            k
            for k, path in df.roots_of(p.addr)
            if not path and k.kind == "local"
        }
        if len(keys) != 1:
            return False
        (key,) = tuple(keys)
        stores = [w for w in df.writes.get(key, ()) if isinstance(w, I.Store)]
        return bool(stores) and all(
            isinstance(s.value, I.Register) and s.value in chunk_regs
            for s in stores
        )

"""Explicit data-flow analysis: abstract storage roots and write sets.

This is the first half of the paper's static analysis (§IV.A): for each
function we resolve every address-like value to the *source variables*
(and field paths) it can refer to, flow-insensitively, and collect the
write set ``W(v)`` the blame definition needs.

Key modelling decisions (each mirrors a paper observation):

* **Aliases.** Loading a variable that holds an array slice/reindex
  view yields the roots of both the alias variable and the sliced base
  (Chapel slices alias; MiniMD's ``RealPos`` inherits ``Pos``'s data).
* **Descriptor writes.** Slice/reindex/domain-derivation operations
  count as *writes* to their base array/domain variables — the
  bookkeeping writes "not at the source code level, but at the llvm
  instruction level" that give MiniMD's ``Count`` (54.9 %) and
  ``binSpace`` (49.4 %) their blame.
* **Calls write their address arguments.**  A call passing a ``ref``
  arg may write it; the callsite joins the arg roots' write sets, which
  is also what lets return/exit-var blame bubble (§IV.A's transfer
  functions consume the per-callsite root map recorded here).

The analysis is one type-dispatched pass over the instructions in block
order, repeated only while a root set or alias bucket grew after the
pass had read it (a load laid out before the store that grows its
alias set).  ``tests/blame/reference_analysis.py`` keeps the set-based
whole-pass fixpoint this replaced; results are equal, down to the
iteration order of every root set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..chapel.types import ArrayType, DomainType, RecordType, Type
from ..ir import instructions as I
from ..ir.module import Function, Module

# A path element: ("field", name) or ("index",).  Paths render like the
# paper's Table IV rows: partArray -> [i] -> .zoneArray -> [j] -> .value.
PathElem = tuple
Path = tuple[PathElem, ...]

#: Maximum materialized hierarchical path depth.
MAX_PATH_DEPTH = 4


def is_pointer_like(t: object) -> bool:
    """Types with reference semantics when passed "in": arrays, domains,
    class instances — the "incoming parameters that are pointers" of the
    paper's exit-variable definition."""
    if isinstance(t, ArrayType) or isinstance(t, DomainType):
        return True
    return isinstance(t, RecordType) and t.is_class


class VarKey(NamedTuple):
    """Identity of one abstract storage root within a function scope.

    kinds: "local" (ident is the alloca iid), "formal" (ident is the
    parameter name), "global" (ident is the global name), "ret" (the
    return-value pseudo-variable).

    A named tuple, so that the hundreds of thousands of hashes and
    comparisons one program's analysis makes run in C.
    """

    kind: str
    ident: object

    def __repr__(self) -> str:
        return f"{self.kind}:{self.ident}"


RET_KEY = VarKey("ret", "$ret")


def render_path(path: Path) -> str:
    """Human form of a path, using i/j/k/l for successive indices."""
    letters = "ijkl"
    out = []
    depth = 0
    for elem in path:
        if elem[0] in ("field", "cfield"):
            out.append(f".{elem[1]}")
        else:
            out.append(f"[{letters[min(depth, len(letters) - 1)]}]")
            depth += 1
    return "".join(out)


@dataclass
class VarMeta:
    """Display metadata for a root variable."""

    key: VarKey
    name: str
    type: Type | None
    is_temp: bool
    context: str  # defining function source name, or "main" for globals


Root = tuple[VarKey, Path]

_EMPTY: frozenset = frozenset()
_INDEX: PathElem = ("index",)

#: The instruction types the flow pass propagates roots through, and
#: those write collection records writes for; every other type changes
#: neither.
_FLOW_TYPES = frozenset({
    I.Alloca, I.Load, I.Store, I.FieldAddr, I.ElemAddr, I.TupleElemAddr,
    I.ArraySlice, I.ArrayReindex, I.MakeSparseDomain, I.DomainOp,
    I.IterInit, I.IterValue,
})
_WRITE_TYPES = frozenset({
    I.Store, I.ArraySlice, I.ArrayReindex, I.DomainOp, I.MakeSparseDomain,
    I.MakeArray, I.IterInit, I.IterNext, I.Ret, I.Call, I.SpawnJoin,
})


def _extend(roots: frozenset[Root], elem: PathElem) -> frozenset[Root]:
    out = set()
    for key, path in roots:
        if len(path) < MAX_PATH_DEPTH:
            out.add((key, path + (elem,)))
        else:
            out.add((key, path))
    return frozenset(out)


class DataFlow:
    """Flow-insensitive roots/writes analysis for one function."""

    #: Ops that derive a view/domain and count as descriptor writes.
    _DESCRIPTOR_DOMAIN_OPS = frozenset({"expand", "translate", "interior", "domain"})

    def __init__(
        self,
        function: Function,
        module: Module,
        global_aliases: dict[VarKey, frozenset[Root]] | None = None,
        options: "object | None" = None,
    ) -> None:
        from .options import FULL

        self.function = function
        self.module = module
        self.options = options or FULL
        if not self.options.alias_tracking:
            global_aliases = None
        #: The function's instructions in block order.  An instruction's
        #: index here is its dense id: the slicer and the blame sets
        #: keep their instruction sets as int bitsets over these ids.
        self.instructions: list[I.Instruction] = list(function.instructions())
        #: register rid → set of (VarKey, Path) roots
        self.roots: dict[int, frozenset[Root]] = {}
        #: VarKey → roots of values stored into it (alias propagation).
        #: Seeded with module-wide global alias facts (e.g. MiniMD's
        #: RealPos = Pos[...] established in module init must be visible
        #: to every function that writes through RealPos).
        self.stored_roots: dict[VarKey, set[Root]] = {
            k: set(v) for k, v in (global_aliases or {}).items()
        }
        #: VarKey → set of write instructions (stores, descriptor writes,
        #: calls-with-address-args)
        self.writes: dict[VarKey, set[I.Instruction]] = {}
        #: (VarKey, Path) → write instructions with that path prefix
        self.path_writes: dict[Root, set[I.Instruction]] = {}
        #: iids of *deep* writes (real stores): their full backward
        #: slice joins the BlameSet. Shallow writes (callsites writing
        #: ref args, descriptor bookkeeping) contribute only themselves:
        #: the written value is produced elsewhere (in the callee / the
        #: runtime), so the local operand chain is not part of the work
        #: that computed it.
        self.deep_write_iids: set[int] = set()
        #: callsite iid → {param_name: roots of the address argument}
        self.call_arg_roots: dict[int, dict[str, frozenset[Root]]] = {}
        #: metadata for every root variable seen
        self.var_meta: dict[VarKey, VarMeta] = {}
        #: global name → its one-root set, built on first reference
        self._global_roots: dict[str, frozenset[Root]] = {}
        self._analyze()

    # -- public helpers ----------------------------------------------------

    def roots_of(self, value: I.Value) -> frozenset[Root]:
        t = type(value)
        if t is I.Register:
            return self.roots.get(value.rid, _EMPTY)
        if t is I.GlobalRef:
            return self._global_roots.get(value.name) or self._note_global(value)
        return _EMPTY

    # -- construction --------------------------------------------------------

    def _note_global(self, ref: I.GlobalRef) -> frozenset[Root]:
        key = VarKey("global", ref.name)
        if key not in self.var_meta:
            g = self.module.globals.get(ref.name)
            self.var_meta[key] = VarMeta(
                key=key,
                name=ref.name,
                type=g.type if g else ref.type,
                is_temp=g.is_temp if g else False,
                context="main",
            )
        roots = self._global_roots[ref.name] = frozenset({(key, ())})
        return roots

    def _meta_for_formal(self, name: str) -> VarKey:
        key = VarKey("formal", name)
        if key not in self.var_meta:
            ptype = None
            for p in self.function.params:
                if p.name == name:
                    ptype = p.type
                    break
            self.var_meta[key] = VarMeta(
                key=key,
                name=name,
                type=ptype,
                is_temp=name.startswith("_"),
                context=self.function.source_name,
            )
        return key

    def _analyze(self) -> None:
        # Ref formals are address roots from entry.
        for p in self.function.params:
            if p.intent == "ref":
                key = self._meta_for_formal(p.name)
                self.roots[p.register.rid] = frozenset({(key, ())})

        flow = [i for i in self.instructions if type(i) in _FLOW_TYPES]
        # Root sets only grow, over finitely many roots, so the loop
        # ends.  A pass that read nothing which grew later in the pass
        # has reached the fixpoint: running it again would change no
        # root set, only re-add each alias store's roots to its buckets.
        # Re-adding changes no bucket's contents, but a set may resize
        # when updated, so it is replayed to keep every bucket's
        # iteration order that of a whole-pass fixpoint.
        while True:
            changed, stale, alias_stores = self._flow_pass(flow)
            if not stale:
                break
        if changed:
            stored = self.stored_roots
            for value_roots, addr_roots in alias_stores:
                for key, _path in addr_roots:
                    stored[key].update(value_roots)

        collect = self._collect_writes
        for instr in self.instructions:
            if type(instr) in _WRITE_TYPES:
                collect(instr)

    def _flow_pass(self, flow: list[I.Instruction]) -> tuple[bool, bool, list]:
        """Runs every flow instruction once, in block order.  Returns
        (changed, stale, alias stores): whether any root set or alias
        bucket grew; whether one grew after this pass had read it, so
        that another pass may grow more; and the (value, address) root
        sets of each store that fed an alias bucket."""
        roots = self.roots
        get = roots.get
        stored = self.stored_roots
        var_meta = self.var_meta
        global_roots = self._global_roots
        note_global = self._note_global
        alias_tracking = self.options.alias_tracking
        descriptor_ops = self._DESCRIPTOR_DOMAIN_OPS
        Register, GlobalRef = I.Register, I.GlobalRef
        read: set[int] = set()  # rids this pass has read
        loaded: set[VarKey] = set()  # alias buckets this pass has read
        alias_stores: list[tuple[frozenset[Root], frozenset[Root]]] = []
        changed = stale = False

        def value_roots(v: I.Value) -> frozenset[Root]:
            t = type(v)
            if t is Register:
                rid = v.rid
                read.add(rid)
                return get(rid, _EMPTY)
            if t is GlobalRef:
                return global_roots.get(v.name) or note_global(v)
            return _EMPTY

        for instr in flow:
            t = type(instr)
            if t is I.Alloca:
                # The home slot of an "in" formal identifies with the
                # formal itself (pointer-like "in" formals are exit
                # variables).
                if instr.formal_home is not None:
                    key = self._meta_for_formal(instr.formal_home)
                else:
                    key = VarKey("local", instr.iid)
                if key not in var_meta:
                    var_meta[key] = VarMeta(
                        key=key,
                        name=instr.var_name,
                        type=instr.alloc_type,
                        is_temp=instr.is_temp,
                        context=self.function.source_name,
                    )
                new = frozenset({(key, ())})
            elif t is I.Store:
                # Track *alias* facts: roots flow into a variable only
                # when the stored value is itself a reference — an
                # array/domain/class descriptor, or an element address
                # yielded by array iteration. Scalar value flow is NOT
                # aliasing (writing y after y = x does not write x).
                if not alias_tracking:
                    continue
                value = instr.ops[0]
                if not is_pointer_like(getattr(value, "type", None)) and not (
                    type(value) is Register
                    and type(value.producer) is I.IterValue
                ):
                    continue
                value_set = value_roots(value)
                if not value_set:
                    continue
                addr_set = value_roots(instr.ops[1])
                alias_stores.append((value_set, addr_set))
                for key, _path in addr_set:
                    bucket = stored.get(key)
                    if bucket is None:
                        bucket = stored[key] = set()
                    before = len(bucket)
                    bucket.update(value_set)
                    if len(bucket) != before:
                        changed = True
                        if key in loaded:
                            stale = True
                continue
            elif t is I.DomainOp and instr.op not in descriptor_ops:
                continue
            else:
                # Every other flow instruction derives its roots from
                # its first operand: the address, base, iterand, state
                # or parent domain.
                v = instr.ops[0]
                if type(v) is Register:
                    rid = v.rid
                    read.add(rid)
                    base = get(rid, _EMPTY)
                else:
                    base = value_roots(v)
                if t is I.Load:
                    extra = None
                    for key, _path in base:
                        loaded.add(key)
                        bucket = stored.get(key)
                        if bucket:
                            if extra is None:
                                extra = set()
                            extra.update(bucket)
                    if extra is not None:
                        new = base | frozenset(extra)
                    elif len(base) <= 2:
                        new = base  # iterates as its copy would, see below
                    else:
                        new = base | _EMPTY
                elif t is I.ElemAddr or t is I.IterValue:
                    # IterValue: element addresses yielded by array
                    # iteration.
                    new = _extend(base, _INDEX)
                elif t is I.FieldAddr:
                    # Class fields live *behind a dereference*: mark
                    # them with a distinct element so a load of the
                    # pointer slot (path ()) does not alias stores to
                    # the pointee's fields.
                    bt = getattr(v, "type", None)
                    kind = (
                        "cfield"
                        if isinstance(bt, RecordType) and bt.is_class
                        else "field"
                    )
                    new = _extend(base, (kind, instr.field_name))
                else:
                    # TupleElemAddr: tuple elements are reported as the
                    # whole tuple variable (Table VI reports hgfx, not
                    # hgfx[3]).  ArraySlice, ArrayReindex, IterInit and
                    # descriptor DomainOps: the view, iterator or domain
                    # aliases its base.  MakeSparseDomain: a sparse
                    # subdomain is derived from (and registered with)
                    # its parent.
                    new = base
            reg = instr.result
            if reg is None or not new:
                continue
            rid = reg.rid
            old = get(rid)
            if old is None:
                # The whole-pass fixpoint stores the copy ``frozenset()
                # | new``.  A set of at most two roots always sits in
                # the smallest table, where that copy keeps every slot,
                # so the set itself iterates the same and is shared.
                roots[rid] = new if len(new) <= 2 else _EMPTY | new
            else:
                merged = old | new
                if merged == old:
                    continue
                roots[rid] = merged
            changed = True
            if rid in read:
                stale = True
        return changed, stale, alias_stores

    # -- write collection ------------------------------------------------------

    def _add_write(self, root: Root, instr: I.Instruction, deep: bool = False) -> None:
        key, path = root
        self.writes.setdefault(key, set()).add(instr)
        if deep:
            self.deep_write_iids.add(instr.iid)
        # Every path prefix is a reportable sub-variable (unless the
        # hierarchy ablation is on).
        if path and self.options.hierarchical_paths:
            path_writes = self.path_writes
            for k in range(1, len(path) + 1):
                path_writes.setdefault((key, path[:k]), set()).add(instr)

    def _collect_writes(self, instr: I.Instruction) -> None:
        t = type(instr)
        roots_of = self.roots_of
        add = self._add_write
        if t is I.Store:
            for root in roots_of(instr.ops[1]):
                add(root, instr, deep=True)
            return
        descriptor_writes = self.options.descriptor_writes
        if t is I.ArraySlice or t is I.ArrayReindex:
            if not descriptor_writes:
                return
            # Descriptor bookkeeping writes to base and domain.
            for root in roots_of(instr.ops[0]):
                add(root, instr)
            for root in roots_of(instr.ops[1]):
                add(root, instr)
            return
        if t is I.DomainOp:
            if instr.op in self._DESCRIPTOR_DOMAIN_OPS:
                if not descriptor_writes:
                    return
                for root in roots_of(instr.ops[0]):
                    add(root, instr)
            elif instr.op == "insert":
                # `spD += idx` mutates the domain (and every array
                # declared over it) — a genuine source-level write,
                # hence deep.
                for root in roots_of(instr.ops[0]):
                    add(root, instr, deep=True)
            return
        if t is I.MakeSparseDomain or t is I.MakeArray:
            if not descriptor_writes:
                return
            # Sparse subdomains register with their parent domain, and
            # arrays with their domain (a descriptor write).
            for root in roots_of(instr.ops[0]):
                add(root, instr)
            return
        if t is I.IterInit or t is I.IterNext:
            if not descriptor_writes:
                return
            # Iterator setup/advance touches the iterand's descriptor
            # (reference counting, follower-iterator state) — the
            # "written not at the source code level, but at the llvm
            # instruction level" effect the paper describes for Count
            # and binSpace (§V.A).
            for root in roots_of(instr.ops[0]):
                add(root, instr)
            return
        if t is I.Ret:
            if instr.ops:
                self.writes.setdefault(RET_KEY, set()).add(instr)
                self.deep_write_iids.add(instr.iid)
            return
        if t is I.Call:
            if instr.is_builtin:
                return
            callee = self.module.get_function(instr.callee)
            arg_map: dict[str, frozenset[Root]] = {}
            params = callee.params if callee else []
            for p, a in zip(params, instr.ops):
                roots = roots_of(a)
                # ref formals AND pointer-like "in" formals (arrays,
                # class instances, domains: Chapel reference semantics)
                # may be written by the callee. Call sites are *deep*
                # writes: the value handed back through a ref argument
                # embodies the work of everything feeding the call —
                # this is how LULESH's hgfx inherits the hourglass
                # block's samples through CalcElemFBHourglassForce
                # (paper Table VI).
                if roots and (p.intent == "ref" or is_pointer_like(p.type)):
                    arg_map[p.name] = roots
                    for root in roots:
                        add(root, instr, deep=True)
            self.call_arg_roots[instr.iid] = arg_map
            return
        # SpawnJoin.
        outlined = self.module.get_function(instr.outlined)
        arg_map = {}
        if outlined is not None:
            # Iterable (chunk) formals: spawning registers per-task
            # iterators over them — a descriptor write — and the
            # outlined body's iterator traffic on the chunk formal
            # bubbles back to the spawned-over domain/array.  Capture
            # formals bind the captured values the same way.
            for p, a in zip(outlined.params, instr.ops):
                roots = roots_of(a)
                if roots:
                    arg_map[p.name] = roots
                    for root in roots:
                        add(root, instr)
        self.call_arg_roots[instr.iid] = arg_map

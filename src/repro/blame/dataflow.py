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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chapel.types import Type
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
    from ..chapel.types import ArrayType, DomainType, RecordType

    if isinstance(t, ArrayType) or isinstance(t, DomainType):
        return True
    return isinstance(t, RecordType) and t.is_class


@dataclass(frozen=True)
class VarKey:
    """Identity of one abstract storage root within a function scope.

    kinds: "local" (ident is the alloca iid), "formal" (ident is the
    parameter name), "global" (ident is the global name), "ret" (the
    return-value pseudo-variable).
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

#: The instruction types ``DataFlow._flow_instr`` propagates roots
#: through, and those ``DataFlow._collect_writes`` records writes for;
#: every other type changes neither.
_FLOW_TYPES = (
    I.Alloca, I.Load, I.Store, I.FieldAddr, I.ElemAddr, I.TupleElemAddr,
    I.ArraySlice, I.ArrayReindex, I.MakeSparseDomain, I.DomainOp,
    I.IterInit, I.IterValue,
)
_WRITE_TYPES = (
    I.Store, I.ArraySlice, I.ArrayReindex, I.DomainOp, I.MakeSparseDomain,
    I.MakeArray, I.IterInit, I.IterNext, I.Ret, I.Call, I.SpawnJoin,
)


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
        self._analyze()

    # -- public helpers ----------------------------------------------------

    def roots_of(self, value: I.Value) -> frozenset[Root]:
        if isinstance(value, I.Register):
            return self.roots.get(value.rid, frozenset())
        if isinstance(value, I.GlobalRef):
            key = VarKey("global", value.name)
            self._note_global(key, value)
            return frozenset({(key, ())})
        return frozenset()

    # -- construction --------------------------------------------------------

    def _note_global(self, key: VarKey, ref: I.GlobalRef) -> None:
        if key not in self.var_meta:
            g = self.module.globals.get(ref.name)
            self.var_meta[key] = VarMeta(
                key=key,
                name=ref.name,
                type=g.type if g else ref.type,
                is_temp=g.is_temp if g else False,
                context="main",
            )

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
        fn = self.function
        instrs = list(fn.instructions())
        flow_instrs = [i for i in instrs if isinstance(i, _FLOW_TYPES)]

        # Ref formals are address roots from entry.
        for p in fn.params:
            if p.intent == "ref":
                key = self._meta_for_formal(p.name)
                self.roots[p.register.rid] = frozenset({(key, ())})

        # Iterate to fixpoint: root sets grow through load→store alias
        # propagation (bounded: sets only grow, keys are finite).
        changed = True
        iterations = 0
        while changed:
            changed = False
            iterations += 1
            if iterations > 50:
                break  # defensive bound; real programs converge in 2-4
            for instr in flow_instrs:
                if self._flow_instr(instr):
                    changed = True

        # Second pass: collect writes (needs final root sets).
        for instr in instrs:
            if isinstance(instr, _WRITE_TYPES):
                self._collect_writes(instr)

    def _set_roots(self, reg: I.Register | None, roots: frozenset[Root]) -> bool:
        if reg is None:
            return False
        old = self.roots.get(reg.rid, frozenset())
        new = old | roots
        if new != old:
            self.roots[reg.rid] = new
            return True
        return False

    def _extend(self, roots: frozenset[Root], elem: PathElem | None) -> frozenset[Root]:
        if elem is None:
            return roots
        out = set()
        for key, path in roots:
            if len(path) < MAX_PATH_DEPTH:
                out.add((key, path + (elem,)))
            else:
                out.add((key, path))
        return frozenset(out)

    def _flow_instr(self, instr: I.Instruction) -> bool:
        if isinstance(instr, I.Alloca):
            # The home slot of an "in" formal identifies with the formal
            # itself (pointer-like "in" formals are exit variables).
            if instr.formal_home is not None:
                key = self._meta_for_formal(instr.formal_home)
            else:
                key = VarKey("local", instr.iid)
            if key not in self.var_meta:
                self.var_meta[key] = VarMeta(
                    key=key,
                    name=instr.var_name,
                    type=instr.alloc_type,
                    is_temp=instr.is_temp,
                    context=self.function.source_name,
                )
            return self._set_roots(instr.result, frozenset({(key, ())}))
        if isinstance(instr, I.Load):
            base = self.roots_of(instr.addr)
            extra: set[Root] = set()
            for key, _path in base:
                extra.update(self.stored_roots.get(key, ()))
            return self._set_roots(instr.result, base | frozenset(extra))
        if isinstance(instr, I.Store):
            # Track *alias* facts: roots flow into a variable only when
            # the stored value is itself a reference — an array/domain/
            # class descriptor, or an element address yielded by array
            # iteration. Scalar value flow is NOT aliasing (writing y
            # after y = x does not write x).
            value = instr.value
            is_reference = is_pointer_like(getattr(value, "type", None)) or (
                isinstance(value, I.Register)
                and isinstance(value.producer, I.IterValue)
            )
            if not is_reference or not self.options.alias_tracking:
                return False
            value_roots = self.roots_of(value)
            if not value_roots:
                return False
            changed = False
            for key, _path in self.roots_of(instr.addr):
                bucket = self.stored_roots.setdefault(key, set())
                before = len(bucket)
                bucket.update(value_roots)
                if len(bucket) != before:
                    changed = True
            return changed
        if isinstance(instr, I.FieldAddr):
            # Class fields live *behind a dereference*: mark them with a
            # distinct element so a load of the pointer slot (path ())
            # does not alias stores to the pointee's fields.
            from ..chapel.types import RecordType

            bt = getattr(instr.base, "type", None)
            kind = (
                "cfield"
                if isinstance(bt, RecordType) and bt.is_class
                else "field"
            )
            roots = self._extend(self.roots_of(instr.base), (kind, instr.field_name))
            return self._set_roots(instr.result, roots)
        if isinstance(instr, I.ElemAddr):
            roots = self._extend(self.roots_of(instr.base), ("index",))
            return self._set_roots(instr.result, roots)
        if isinstance(instr, I.TupleElemAddr):
            # Tuple elements are reported as the whole tuple variable
            # (Table VI reports hgfx, not hgfx[3]).
            return self._set_roots(instr.result, self.roots_of(instr.base))
        if isinstance(instr, (I.ArraySlice, I.ArrayReindex)):
            return self._set_roots(instr.result, self.roots_of(instr.base))
        if isinstance(instr, I.MakeSparseDomain):
            # A sparse subdomain is derived from (and registered with)
            # its parent — same descriptor-derivation aliasing as
            # expand/translate/interior.
            return self._set_roots(instr.result, self.roots_of(instr.parent_domain))
        if isinstance(instr, I.DomainOp):
            if instr.op in self._DESCRIPTOR_DOMAIN_OPS:
                return self._set_roots(instr.result, self.roots_of(instr.base))
            return False
        if isinstance(instr, I.IterInit):
            return self._set_roots(instr.result, self.roots_of(instr.iterable))
        if isinstance(instr, I.IterValue):
            # Element addresses yielded by array iteration.
            roots = self._extend(self.roots_of(instr.state), ("index",))
            return self._set_roots(instr.result, roots)
        return False

    # -- write collection ------------------------------------------------------

    def _add_write(self, root: Root, instr: I.Instruction, deep: bool = False) -> None:
        key, path = root
        self.writes.setdefault(key, set()).add(instr)
        if deep:
            self.deep_write_iids.add(instr.iid)
        # Every path prefix is a reportable sub-variable (unless the
        # hierarchy ablation is on).
        if self.options.hierarchical_paths:
            for k in range(1, len(path) + 1):
                self.path_writes.setdefault((key, path[:k]), set()).add(instr)

    def _collect_writes(self, instr: I.Instruction) -> None:
        if isinstance(instr, I.Store):
            for root in self.roots_of(instr.addr):
                self._add_write(root, instr, deep=True)
            return
        if isinstance(instr, (I.ArraySlice, I.ArrayReindex)):
            if not self.options.descriptor_writes:
                return
            # Descriptor bookkeeping writes to base and domain.
            for root in self.roots_of(instr.ops[0]):
                self._add_write(root, instr)
            for root in self.roots_of(instr.ops[1]):
                self._add_write(root, instr)
            return
        if isinstance(instr, I.DomainOp) and instr.op in self._DESCRIPTOR_DOMAIN_OPS:
            if not self.options.descriptor_writes:
                return
            for root in self.roots_of(instr.base):
                self._add_write(root, instr)
            return
        if isinstance(instr, I.DomainOp) and instr.op == "insert":
            # `spD += idx` mutates the domain (and every array declared
            # over it) — a genuine source-level write, hence deep.
            for root in self.roots_of(instr.base):
                self._add_write(root, instr, deep=True)
            return
        if isinstance(instr, I.MakeSparseDomain):
            if not self.options.descriptor_writes:
                return
            # Sparse subdomains register with their parent domain.
            for root in self.roots_of(instr.parent_domain):
                self._add_write(root, instr)
            return
        if isinstance(instr, I.MakeArray):
            if not self.options.descriptor_writes:
                return
            # Arrays register with their domain (a descriptor write).
            for root in self.roots_of(instr.domain):
                self._add_write(root, instr)
            return
        if isinstance(instr, (I.IterInit, I.IterNext)):
            if not self.options.descriptor_writes:
                return
            # Iterator setup/advance touches the iterand's descriptor
            # (reference counting, follower-iterator state) — the
            # "written not at the source code level, but at the llvm
            # instruction level" effect the paper describes for Count
            # and binSpace (§V.A).
            base = instr.ops[0]
            for root in self.roots_of(base):
                self._add_write(root, instr)
            return
        if isinstance(instr, I.Ret):
            if instr.value is not None:
                self.writes.setdefault(RET_KEY, set()).add(instr)
                self.deep_write_iids.add(instr.iid)
            return
        if isinstance(instr, I.Call) and not instr.is_builtin:
            callee = self.module.get_function(instr.callee)
            arg_map: dict[str, frozenset[Root]] = {}
            params = callee.params if callee else []
            for p, a in zip(params, instr.args):
                roots = self.roots_of(a)
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
                        self._add_write(root, instr, deep=True)
            self.call_arg_roots[instr.iid] = arg_map
            return
        if isinstance(instr, I.SpawnJoin):
            outlined = self.module.get_function(instr.outlined)
            arg_map = {}
            if outlined is not None:
                # Iterable (chunk) formals: spawning registers per-task
                # iterators over them — a descriptor write — and the
                # outlined body's iterator traffic on the chunk formal
                # bubbles back to the spawned-over domain/array.
                it_params = outlined.params[: instr.n_iterables]
                for p, a in zip(it_params, instr.iterables):
                    roots = self.roots_of(a)
                    if roots:
                        arg_map[p.name] = roots
                        for root in roots:
                            self._add_write(root, instr)
                cap_params = outlined.params[instr.n_iterables :]
                for p, a in zip(cap_params, instr.captures):
                    roots = self.roots_of(a)
                    if roots:
                        arg_map[p.name] = roots
                        for root in roots:
                            self._add_write(root, instr)
            self.call_arg_roots[instr.iid] = arg_map
            return

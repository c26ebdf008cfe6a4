"""The set-based static blame analysis, kept as the oracle.

This is the analysis as it ran before it moved to dense instruction ids
and int bitsets: ``DataFlow`` iterates its root sets to a fixpoint with
whole passes, ``SliceGraph`` keeps one ``set`` of dependence iids per
instruction, and ``compute_blame_sets`` inverts every blame set into a
frozenset per blamed instruction.  Only the shared value types (root
keys, metadata, path helpers) come from the product, so that results
compare equal.  ``tests/blame/test_analysis_reference.py`` and the CI
``analysis-identity`` job compare the product against it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.ir import instructions as I
from repro.ir.cfg import CFG
from repro.ir.dominators import control_dependence
from repro.ir.module import Function, Module
from repro.blame.dataflow import (
    MAX_PATH_DEPTH,
    RET_KEY,
    Path,
    PathElem,
    Root,
    VarKey,
    VarMeta,
    is_pointer_like,
)


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
        from repro.blame.options import FULL

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
            from repro.chapel.types import RecordType

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


def instruction_control_deps(
    function: Function, transitive: bool = True
) -> dict[int, list[I.Instruction]]:
    """Maps each instruction iid to the branch instructions controlling
    its execution.  With ``transitive=True`` (default, used by the
    backward slicer) the control-dependence closure of the block is
    taken — every level of a loop nest controls the innermost body.
    With ``transitive=False`` only the immediate controllers are
    returned (used by the implicit *iterable* blame, where only the
    innermost loop's domain/array takes the body's samples).
    """
    cfg = CFG(function)
    block_deps = control_dependence(cfg)

    # Transitive closure over blocks (loop nests chain dependences).
    # Iterative fixpoint: correct in the presence of dependence cycles
    # (loops are control-dependent on themselves).
    closure: dict[object, set[object]] = {
        b: set(block_deps.get(b, ())) for b in function.blocks
    }
    if transitive:
        changed = True
        while changed:
            changed = False
            for b in function.blocks:
                current = closure[b]
                add: set[object] = set()
                for dep in current:
                    add |= closure.get(dep, set())
                if not add <= current:
                    current |= add
                    changed = True

    result: dict[int, list[I.Instruction]] = {}
    for block in function.blocks:
        controllers: list[I.Instruction] = []
        for dep_block in closure[block]:
            term = dep_block.terminator
            if isinstance(term, I.CBr):
                controllers.append(term)
        for instr in block.instructions:
            result[instr.iid] = controllers
    return result


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


class SliceGraph:
    """Backward dependency edges (iid → dep iids) for one function."""

    def __init__(self, function: Function, dataflow: DataFlow) -> None:
        self.function = function
        self.df = dataflow
        self.deps: dict[int, set[int]] = {}
        self._slice_cache: dict[frozenset[int], frozenset[int]] = {}
        self._build()

    @property
    def options(self):
        return self.df.options

    @staticmethod
    def _path_head(path: Path):
        """Bucket key for a store's access path: only stores whose head
        is compatible with a load's head can alias it (the first loop
        iteration of :func:`paths_may_alias`), so bucketing by head cuts
        the loads×stores product to compatible pairs.  Index heads match
        any index, so they share one bucket."""
        if not path:
            return ()
        head = path[0]
        if head[0] == "index":
            return ("index",)
        return head

    def _build(self) -> None:
        fn = self.function
        df = self.df
        # Stores to each root variable (for load→store memory edges),
        # bucketed by access-path head for field-sensitive aliasing.
        stores_by_var: dict[VarKey, dict[tuple, list[tuple[Path, int]]]] = {}
        path_head = self._path_head
        for instr in fn.instructions():
            if isinstance(instr, I.Store):
                for key, path in df.roots_of(instr.addr):
                    buckets = stores_by_var.setdefault(key, {})
                    buckets.setdefault(path_head(path), []).append(
                        (path, instr.iid)
                    )

        control = instruction_control_deps(fn)

        for instr in fn.instructions():
            deps = self.deps.setdefault(instr.iid, set())
            # Operand (explicit data) edges.
            for op in instr.operands():
                if isinstance(op, I.Register) and op.producer is not None:
                    deps.add(op.producer.iid)
            # Memory edges: loads depend on the stores to the same root
            # whose paths may alias (flow-insensitive otherwise — the
            # paper's Table I gives c both writes to a).
            if isinstance(instr, I.Load):
                for key, path in df.roots_of(instr.addr):
                    buckets = stores_by_var.get(key)
                    if buckets is None:
                        continue
                    if not path:
                        # An empty load path aliases every store except
                        # those reaching through a class dereference.
                        for hkey, entries in buckets.items():
                            if hkey and hkey[0] == "cfield":
                                continue
                            deps.update(siid for _spath, siid in entries)
                        continue
                    # Same-head stores: tails still need the full check.
                    for spath, siid in buckets.get(path_head(path), ()):
                        if paths_may_alias(path, spath):
                            deps.add(siid)
                    # Empty-path stores (whole-variable writes) alias any
                    # load not crossing a class dereference first.
                    if path[0][0] != "cfield":
                        deps.update(
                            siid for _spath, siid in buckets.get((), ())
                        )
            # Implicit (control) edges: the controlling branches and,
            # through their operand edges, the condition producers.
            if df.options.implicit_control:
                for cbr in control.get(instr.iid, ()):
                    if cbr.iid != instr.iid:
                        deps.add(cbr.iid)

    def backward_slice(self, seeds: set[int]) -> frozenset[int]:
        """Multi-source backward closure from ``seeds``.

        Memoized on the seed set: distinct variables frequently share
        write sets (zippered iterands, ref formals of one callsite), and
        the closure is the hot inner step of blame-set construction.
        """
        key = frozenset(seeds)
        cached = self._slice_cache.get(key)
        if cached is not None:
            return cached
        seen: set[int] = set(seeds)
        queue = deque(seeds)
        while queue:
            iid = queue.popleft()
            for dep in self.deps.get(iid, ()):
                if dep not in seen:
                    seen.add(dep)
                    queue.append(dep)
        result = frozenset(seen)
        self._slice_cache[key] = result
        return result


@dataclass
class BlameSets:
    """Per-function blame sets, both directions.

    ``by_var[(key, path)]`` is the BlameSet (iids) of a variable or a
    hierarchical sub-variable; ``by_iid[iid]`` is the set of roots
    blamed when a sample lands on that instruction.
    """

    by_var: dict[Root, frozenset[int]]
    by_iid: dict[int, frozenset[Root]]

    def blamed_at(self, iid: int) -> frozenset[Root]:
        return self.by_iid.get(iid, frozenset())


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
    function: Function, dataflow: DataFlow
) -> dict[Root, frozenset[int]]:
    """Maps iterand roots to the body instructions they implicitly blame
    (innermost enclosing loop only)."""
    imm = instruction_control_deps(function, transitive=False)
    cbr_roots: dict[int, frozenset[Root]] = {}
    out: dict[Root, set[int]] = {}
    for instr in function.instructions():
        for cbr in imm.get(instr.iid, ()):
            if not isinstance(cbr, I.CBr):
                continue
            roots = cbr_roots.get(cbr.iid)
            if roots is None:
                roots = _cbr_iterable_roots(cbr, dataflow)
                cbr_roots[cbr.iid] = roots
            for root in roots:
                out.setdefault(root, set()).add(instr.iid)
    return {root: frozenset(iids) for root, iids in out.items()}


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
    graph = SliceGraph(function, dataflow)
    by_var: dict[Root, frozenset[int]] = {}
    deep = dataflow.deep_write_iids

    def blame_set(writes) -> frozenset[int]:
        deep_seeds = {w.iid for w in writes if w.iid in deep}
        shallow = {w.iid for w in writes if w.iid not in deep}
        if not shallow:
            # The memoized slice is returned as-is (no union copy);
            # callers treat blame sets as immutable.
            return graph.backward_slice(deep_seeds)
        if not deep_seeds:
            return frozenset(shallow)
        return graph.backward_slice(deep_seeds) | shallow

    for key, writes in dataflow.writes.items():
        by_var[(key, ())] = blame_set(writes)
    for root, writes in dataflow.path_writes.items():
        by_var[root] = blame_set(writes)

    # Implicit iterable blame (paper §IV.A): "all variables within the
    # loop body inherit blame from the index variable" — generalized to
    # the domain/array *driving* the loop: instructions in a loop body
    # join the BlameSet of the innermost loop's iterands (how MiniMD's
    # binSpace earns 49 % without a single source-level write).
    if dataflow.options.implicit_iterable:
        iterable_extra = _implicit_iterable_blame(function, dataflow)
        for root, iids in iterable_extra.items():
            by_var[root] = by_var.get(root, frozenset()) | iids

    # Invert, walking each distinct blame set once: variables routinely
    # share one set object (memoized slices, zippered iterands), so
    # grouping by the set first avoids re-walking large slices per root.
    groups: dict[frozenset[int], list[Root]] = {}
    for root, iids in by_var.items():
        groups.setdefault(iids, []).append(root)

    by_iid: dict[int, set[Root]] = {}
    for iids, roots in groups.items():
        for iid in iids:
            by_iid.setdefault(iid, set()).update(roots)

    return BlameSets(
        by_var=by_var,
        by_iid={iid: frozenset(roots) for iid, roots in by_iid.items()},
    )


# -- comparison with the product ----------------------------------------------


def reference_flows(
    module: Module, options
) -> tuple[dict[VarKey, frozenset[Root]], dict[str, DataFlow]]:
    """``ModuleBlameInfo``'s two phases over the reference ``DataFlow``:
    (global alias facts, per-function flows built from them)."""

    def flows(aliases):
        return {
            name: DataFlow(fn, module, global_aliases=aliases, options=options)
            for name, fn in module.functions.items()
        }

    aliases: dict[VarKey, frozenset[Root]] = {}
    for _round in range(3):
        round_flows = flows(aliases)
        merged = {k: set(v) for k, v in aliases.items()}
        for df in round_flows.values():
            for key, roots in df.stored_roots.items():
                if key.kind == "global":
                    merged.setdefault(key, set()).update(
                        r for r in roots if r[0].kind == "global"
                    )
        new_aliases = {k: frozenset(v) for k, v in merged.items()}
        if new_aliases == aliases:
            return aliases, round_flows
        aliases = new_aliases
    return aliases, flows(aliases)


def _same(label: str, got, want, out: list[str]) -> None:
    if got != want:
        out.append(f"{label}: {got!r} != {want!r}")


def _same_order(label: str, got, want, out: list[str]) -> None:
    """Equal, and iterating in the same order (keys of a mapping, or
    elements of a set): rows and artifact bytes follow these orders."""
    if got != want:
        out.append(f"{label}: {got!r} != {want!r}")
    elif list(got) != list(want):
        out.append(f"{label}: iteration order {list(got)!r} != {list(want)!r}")


def analysis_mismatches(module: Module, options=None) -> list[str]:
    """Every difference between the product's static blame analysis of
    ``module`` and the reference's, per function: root sets (and their
    iteration order), alias buckets, write sets, deep writes, call-site
    root maps, variable metadata, global alias facts, ``by_var`` (values
    and key order), ``blamed_at`` for every instruction, exit variables
    and transfer maps.  Empty when they agree."""
    from repro.blame.exit_vars import compute_exit_vars
    from repro.blame.options import FULL
    from repro.blame.static_info import ModuleBlameInfo
    from repro.blame.transfer import TransferFunction

    options = options or FULL
    info = ModuleBlameInfo(module, options=options)
    aliases, flows = reference_flows(module, options)
    out: list[str] = []
    _same("global aliases", info.global_aliases, aliases, out)
    for key, roots in aliases.items():
        _same_order(f"global alias {key!r}", info.global_aliases.get(key), roots, out)
    for name, fn in module.functions.items():
        got, df = info.functions[name], flows[name]
        g = got.dataflow
        at = f"{name}:"
        want = compute_blame_sets(fn, df)
        _same(at + " var_meta", g.var_meta, df.var_meta, out)
        _same(at + " roots", g.roots, df.roots, out)
        for rid, roots in df.roots.items():
            _same_order(f"{at} roots of %{rid}", g.roots.get(rid), roots, out)
        for instr in fn.instructions():
            for op in instr.operands():
                _same_order(
                    f"{at} roots_of {op} in [{instr.iid}]",
                    g.roots_of(op), df.roots_of(op), out,
                )
        _same(at + " stored_roots", g.stored_roots, df.stored_roots, out)
        for key, bucket in df.stored_roots.items():
            _same_order(f"{at} stored_roots[{key!r}]", g.stored_roots.get(key), bucket, out)
        _same_order(at + " writes", g.writes, df.writes, out)
        _same_order(at + " path_writes", g.path_writes, df.path_writes, out)
        _same(at + " deep_write_iids", g.deep_write_iids, df.deep_write_iids, out)
        _same(at + " call_arg_roots", g.call_arg_roots, df.call_arg_roots, out)
        _same_order(at + " by_var", got.blame_sets.by_var, want.by_var, out)
        for instr in fn.instructions():
            _same_order(
                f"{at} blamed_at({instr.iid})",
                got.blamed_at(instr.iid), want.blamed_at(instr.iid), out,
            )
        _same(at + " by_iid", got.blame_sets.by_iid, want.by_iid, out)
        _same(at + " exit_vars", got.exit_vars, compute_exit_vars(fn, df), out)
        _same(
            at + " transfer",
            got.transfer._by_callsite, TransferFunction(df)._by_callsite, out,
        )
    return out


def e2e_mismatches() -> list[str]:
    """:func:`analysis_mismatches` on every ``benchmarks/e2e/inputs``
    program under every named ablation; prints one line per analysis."""
    import glob
    import os

    from repro.blame.options import ABLATIONS
    from repro.compiler.lower import compile_source

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    inputs = sorted(
        glob.glob(os.path.join(root, "benchmarks", "e2e", "inputs", "**", "*.chpl"),
                  recursive=True)
    )
    out: list[str] = []
    for path in inputs:
        with open(path) as f:
            module = compile_source(f.read(), os.path.basename(path))
        for name, options in ABLATIONS.items():
            found = analysis_mismatches(module, options)
            print(f"{os.path.relpath(path, root)} [{name}]: "
                  f"{'ok' if not found else f'{len(found)} mismatches'}")
            out.extend(f"{path} [{name}] {m}" for m in found)
    for line in out[:20]:
        print(line)
    return out

"""AST → IR lowering as it ran before the front end was tuned, kept as
the oracle.

This is ``repro.compiler.lower`` before it cached one symbol per global,
dispatched on node types and memoized static types: every global
reference builds a fresh ``Symbol`` and ``GlobalRef``, ``lower_expr``
and ``lower_stmt`` walk ``isinstance`` chains, and ``_type_of_base``
re-types each index chain on every level.  The verifier below is the
two-pass ``verify_function`` with ``verify_module``'s second walk over
every instruction.  Value types, instruction classes, the IR builder,
the symbol table and the AST come from the product, so that modules
print alike.
``tests/compiler/test_frontend_reference.py`` and the CI
``frontend-identity`` job compare the product front end against it.
Do not change this file to follow the product.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass

from repro.chapel import ast_nodes as A
from repro.chapel.arith import int_div, int_mod, real_mod
from repro.chapel.errors import NameError_, TypeError_
from repro.chapel.symbols import Scope, Symbol
from repro.chapel.tokens import SourceLocation
from repro.chapel.types import (
    BOOL,
    INT,
    RANGE,
    REAL,
    STRING,
    VOID,
    ArrayType,
    AssociativeDomainType,
    BoolType,
    DomainType,
    IntType,
    RangeType,
    RealType,
    RecordType,
    SparseDomainType,
    StringType,
    TupleType,
    Type,
    VoidType,
    assignable,
    unify_numeric,
)
from repro.ir.instructions import (
    Alloca,
    Br,
    Call,
    CBr,
    Constant,
    GlobalRef,
    Register,
    Ret,
    SpawnJoin,
    Value,
    reset_ir_counters,
)
from repro.ir.builder import IRBuilder
from repro.ir.module import Function, FunctionParam, GlobalVar, Module
from repro.ir.verifier import VerificationError
from repro.compiler.intrinsics import INTERNAL_ONLY, INTRINSICS, POLYMORPHIC_NUMERIC, is_intrinsic

from ..chapel.reference_parser import parse


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}
_ARITH_OPS = {"+", "-", "*", "/", "%", "**"}


@dataclass
class _LoopTargets:
    """break/continue destinations for the innermost loop."""

    continue_block: object
    break_block: object


@dataclass
class ProcSig:
    """Resolved signature of a user proc."""

    name: str
    param_names: list[str]
    param_types: list[Type]
    intents: list[str]
    return_type: Type
    decl: A.ProcDecl


def _reduce_identity(op: str, ty: Type) -> Constant:
    """Identity element of a reduction over a numeric type."""
    is_int = isinstance(ty, IntType)
    if op == "+":
        return Constant(ty, 0 if is_int else 0.0)
    if op == "*":
        return Constant(ty, 1 if is_int else 1.0)
    if op == "min":
        return Constant(ty, (1 << 62) if is_int else float("inf"))
    if op == "max":
        return Constant(ty, -(1 << 62) if is_int else float("-inf"))
    raise TypeError_(f"unsupported reduction {op!r}", None)


def _free_idents(node: object, bound: set[str]) -> set[str]:
    """Names referenced free (not locally bound) in an AST subtree.

    Used to compute the capture list of outlined parallel-loop bodies.
    Conservative: method names and field names are not identifiers.
    """
    free: set[str] = set()

    def walk(n: object, bound: set[str]) -> None:
        if isinstance(n, A.Ident):
            if n.name not in bound:
                free.add(n.name)
        elif isinstance(n, A.VarDecl):
            if n.init is not None:
                walk(n.init, bound)
            if n.declared_type is not None:
                walk_type(n.declared_type, bound)
            bound.add(n.name)
        elif isinstance(n, A.For):
            for it in n.iterables:
                walk(it, bound)
            inner = set(bound) | {ix.name for ix in n.indices}
            walk(n.body, inner)
        elif isinstance(n, A.Block):
            inner = set(bound)
            for s in n.stmts:
                walk(s, inner)
        elif isinstance(n, A.ProcDecl):
            bound.add(n.name)
        elif isinstance(n, A.Call):
            for a in n.args:
                walk(a, bound)
        elif isinstance(n, A.MethodCall):
            walk(n.receiver, bound)
            for a in n.args:
                walk(a, bound)
        elif isinstance(n, A.FieldAccess):
            walk(n.base, bound)
        elif isinstance(n, A.Select):
            walk(n.subject, bound)
            for w in n.whens:
                for v in w.values:
                    walk(v, bound)
                walk(w.body, set(bound))
            if n.otherwise is not None:
                walk(n.otherwise, set(bound))
        elif isinstance(n, A.When):
            pass
        elif hasattr(n, "__dataclass_fields__"):
            for fname in n.__dataclass_fields__:
                if fname == "loc":
                    continue
                v = getattr(n, fname)
                if isinstance(v, list):
                    for item in v:
                        if isinstance(item, A.Node):
                            walk(item, bound)
                elif isinstance(v, A.Node):
                    walk(v, bound)

    def walk_type(t: A.TypeExpr, bound: set[str]) -> None:
        if isinstance(t, A.ArrayTypeExpr):
            if t.domain is not None:
                walk(t.domain, bound)
            walk_type(t.elem, bound)
        elif isinstance(t, A.SparseSubdomainTypeExpr):
            walk(t.parent, bound)
        elif isinstance(t, A.TupleTypeExpr):
            if t.elem is not None:
                walk_type(t.elem, bound)
            for e in t.elems:
                walk_type(e, bound)

    walk(node, set(bound))
    return free


# ---------------------------------------------------------------------------
# Program-level lowering
# ---------------------------------------------------------------------------


class Lowerer:
    """Compiles a parsed :class:`Program` into an IR :class:`Module`."""

    def __init__(self, program: A.Program, module_name: str = "module") -> None:
        self.program = program
        self.module = Module(module_name)
        self.procs: dict[str, ProcSig] = {}
        #: Serial iterators (``iter`` procs) — consumed by for-loops via
        #: inline expansion, as the Chapel compiler lowers them.
        self.iters: dict[str, A.ProcDecl] = {}
        self.param_values: dict[str, tuple[object, Type]] = {}
        self._outline_counter = itertools.count(1)

    # -- type resolution ----------------------------------------------------

    def resolve_type(self, t: A.TypeExpr, fl: "FunctionLowerer | None" = None) -> Type:
        if isinstance(t, A.NamedType):
            if t.name == "int":
                return IntType(t.width or 64)
            if t.name == "real":
                return RealType(t.width or 64)
            if t.name == "bool":
                return BOOL
            if t.name == "string":
                return STRING
            if t.name == "void":
                return VOID
            rec = self.module.records.get(t.name)
            if rec is None:
                raise TypeError_(f"unknown type {t.name!r}", t.loc)
            return rec
        if isinstance(t, A.TupleTypeExpr):
            if t.count is not None:
                elem = self.resolve_type(t.elem, fl)  # type: ignore[arg-type]
                return TupleType(tuple([elem] * t.count))
            return TupleType(tuple(self.resolve_type(e, fl) for e in t.elems))
        if isinstance(t, A.DomainTypeExpr):
            return DomainType(t.rank)
        if isinstance(t, A.SparseSubdomainTypeExpr):
            rank, _ = self._domain_expr_rank(t.parent, fl)
            return SparseDomainType(rank)
        if isinstance(t, A.AssocDomainTypeExpr):
            return AssociativeDomainType(1)
        if isinstance(t, A.RangeTypeExpr):
            return RANGE
        if isinstance(t, A.ArrayTypeExpr):
            elem = self.resolve_type(t.elem, fl)
            if t.open_rank is not None:
                return ArrayType(elem, t.open_rank)
            rank, dom_name = self._domain_expr_rank(t.domain, fl)
            return ArrayType(elem, rank, domain_name=dom_name)
        raise TypeError_(f"unsupported type annotation {type(t).__name__}", t.loc)

    def _domain_expr_rank(
        self, e: A.Expr, fl: "FunctionLowerer | None"
    ) -> tuple[int, str | None]:
        """Static rank (and display name) of a domain-valued type expr."""
        if isinstance(e, A.DomainLit):
            return len(e.dims), None
        if isinstance(e, A.RangeLit):
            return 1, None
        if isinstance(e, A.Ident):
            ty: Type | None = None
            if fl is not None:
                sym = fl.scope.lookup(e.name)
                if sym is not None:
                    ty = sym.type
            if ty is None:
                g = self.module.globals.get(e.name)
                if g is not None:
                    ty = g.type
            if isinstance(ty, DomainType):
                return ty.rank, e.name
            if isinstance(ty, RangeType):
                return 1, e.name
            raise TypeError_(f"{e.name!r} is not a domain", e.loc)
        if isinstance(e, A.MethodCall):
            # e.g. [binSpace.expand(1)] T keeps the receiver's rank.
            rank, name = self._domain_expr_rank(e.receiver, fl)
            return rank, f"{name}.{e.method}()" if name else None
        raise TypeError_("unsupported domain expression in array type", e.loc)

    # -- top level -----------------------------------------------------------

    def lower(self) -> Module:
        # Pass 1: record types (in order; records may use earlier records).
        for decl in self.program.decls:
            if isinstance(decl, A.RecordDecl):
                self._lower_record(decl)
        # Pass 2: proc signatures (so call sites can type-check).
        for decl in self.program.decls:
            if isinstance(decl, A.ProcDecl):
                if decl.is_iter:
                    self._register_iter(decl)
                else:
                    self._register_proc(decl)
        # Pass 3: module init (globals + loose top-level statements).
        init_fn = Function(
            "__module_init",
            [],
            VOID,
            self.program.loc,
            is_artificial=True,
        )
        self.add_function(init_fn)
        self.module.global_init = init_fn
        init_lowerer = FunctionLowerer(self, init_fn, Scope(), is_module_init=True)
        init_lowerer.start()
        for decl in self.program.decls:
            if isinstance(decl, (A.RecordDecl, A.ProcDecl)):
                continue
            init_lowerer.lower_stmt(decl)
        init_lowerer.finish()
        # Pass 4: proc bodies (iterators have none — they expand inline).
        for decl in self.program.decls:
            if isinstance(decl, A.ProcDecl) and not decl.is_iter:
                self._lower_proc(decl)
        self.module.main = self.module.functions.get("main")
        return self.module

    def _register_iter(self, decl: A.ProcDecl) -> None:
        """Validates and registers a serial iterator.

        Restrictions (checked here, mirroring what inline expansion can
        support): a declared yield type, at least one ``yield``, no
        ``return`` statements, typed formals, no recursion (checked at
        expansion time).
        """
        if decl.name in self.iters or decl.name in self.procs:
            raise NameError_(f"duplicate proc/iter {decl.name!r}", decl.loc)
        if decl.return_type is None:
            raise TypeError_(
                f"iterator {decl.name!r} needs a declared yield type", decl.loc
            )
        for p in decl.params:
            if p.declared_type is None:
                raise TypeError_(
                    f"parameter {p.name!r} of iter {decl.name!r} needs a type",
                    p.loc,
                )
        has_yield = False
        stack: list[object] = [decl.body]
        while stack:
            node = stack.pop()
            if isinstance(node, A.Yield):
                has_yield = True
            if isinstance(node, A.Return):
                raise TypeError_(
                    f"iterator {decl.name!r} may not contain 'return' "
                    "(end iteration by falling off the body)",
                    node.loc,
                )
            if isinstance(node, A.ProcDecl):
                continue  # nested proc bodies are separate scopes
            if hasattr(node, "__dataclass_fields__"):
                for fname in node.__dataclass_fields__:
                    v = getattr(node, fname)
                    if isinstance(v, list):
                        stack.extend(x for x in v if isinstance(x, A.Node))
                    elif isinstance(v, A.Node):
                        stack.append(v)
        if not has_yield:
            raise TypeError_(
                f"iterator {decl.name!r} never yields", decl.loc
            )
        self.iters[decl.name] = decl

    def _lower_record(self, decl: A.RecordDecl) -> None:
        if decl.name in self.module.records:
            raise NameError_(f"duplicate record {decl.name!r}", decl.loc)
        fields: list[tuple[str, Type]] = []
        for f in decl.fields:
            fields.append((f.name, self.resolve_type(f.declared_type)))
        self.module.records[decl.name] = RecordType(
            decl.name, tuple(fields), is_class=decl.is_class
        )

    def _register_proc(self, decl: A.ProcDecl) -> ProcSig:
        if decl.name in self.procs:
            raise NameError_(f"duplicate proc {decl.name!r}", decl.loc)
        names, types, intents = [], [], []
        for p in decl.params:
            if p.declared_type is None:
                raise TypeError_(
                    f"parameter {p.name!r} of proc {decl.name!r} needs a type",
                    p.loc,
                )
            names.append(p.name)
            types.append(self.resolve_type(p.declared_type))
            intents.append(p.intent)
        ret = VOID if decl.return_type is None else self.resolve_type(decl.return_type)
        sig = ProcSig(decl.name, names, types, intents, ret, decl)
        self.procs[decl.name] = sig
        return sig

    def _lower_proc(self, decl: A.ProcDecl, outlined_from: str | None = None) -> Function:
        sig = self.procs[decl.name]
        params: list[FunctionParam] = []
        for name, ty, intent in zip(sig.param_names, sig.param_types, sig.intents):
            ir_intent = "ref" if intent in ("ref", "out", "inout") else "in"
            reg = Register(ty, hint=f"arg_{name}")
            params.append(FunctionParam(name, ty, ir_intent, reg))
        fn = Function(decl.name, params, sig.return_type, decl.loc, outlined_from=outlined_from)
        self.add_function(fn)
        fl = FunctionLowerer(self, fn, Scope())
        fl.start()
        # Bind formals: "in" formals get a home alloca (addressable, and
        # their incoming-value store is a blame-visible write); "ref"
        # formals ARE addresses.
        for p, (pname, ptype, pintent) in zip(
            fn.params, zip(sig.param_names, sig.param_types, sig.intents)
        ):
            if p.intent == "ref":
                sym = Symbol(pname, ptype, "formal", decl.loc, intent=pintent)
                sym.storage = p.register
            else:
                addr = fl.builder.alloca(decl.loc, ptype, pname, formal_home=pname)
                fl.builder.store(decl.loc, p.register, addr)
                sym = Symbol(pname, ptype, "formal", decl.loc, intent="in")
                sym.storage = addr
            fl.scope.define(sym)
        for stmt in decl.body.stmts:
            fl.lower_stmt(stmt)
        fl.finish()
        return fn

    def add_function(self, fn: Function) -> None:
        """Adds a function about to be lowered.  ``lower_program``
        verifies the functions ``module.functions`` holds, so a proc
        named like a compiler-generated function must not replace it."""
        if fn.name in self.module.functions:
            raise NameError_(
                f"proc name {fn.name!r} collides with a compiler-generated "
                "function",
                fn.loc,
            )
        self.module.add_function(fn)

    def next_outline_name(self, kind: str) -> str:
        return f"{kind}_fn_chpl{next(self._outline_counter)}"


# ---------------------------------------------------------------------------
# Function-level lowering
# ---------------------------------------------------------------------------


class FunctionLowerer:
    """Lowers statements/expressions of one function."""

    def __init__(
        self,
        lowerer: Lowerer,
        fn: Function,
        scope: Scope,
        is_module_init: bool = False,
    ) -> None:
        self.L = lowerer
        self.module = lowerer.module
        self.fn = fn
        self.scope = scope
        self.builder = IRBuilder(fn)
        self.is_module_init = is_module_init
        self.loop_stack: list[_LoopTargets] = []
        #: Active inline-iterator expansions: (consumer For stmt,
        #: index storage, yield type, exit block). Stack because a
        #: consumer body may itself loop over another iterator.
        self._yield_stack: list[tuple] = []
        #: Iterator names currently being expanded (recursion guard).
        self._iter_expansion: list[str] = []

    # -- plumbing -------------------------------------------------------------

    def start(self) -> None:
        entry = self.builder.new_block("entry")
        self.builder.set_block(entry)

    def finish(self) -> None:
        if not self.builder.terminated:
            if isinstance(self.fn.return_type, VoidType):
                self.builder.ret(self.fn.loc)
            else:
                raise TypeError_(
                    f"proc {self.fn.source_name!r} may fall off the end "
                    "without returning a value",
                    self.fn.loc,
                )

    def _push_scope(self) -> Scope:
        self.scope = self.scope.child()
        return self.scope

    def _pop_scope(self) -> None:
        assert self.scope.parent is not None
        self.scope = self.scope.parent

    def _resolve(self, name: str, loc: SourceLocation) -> Symbol:
        sym = self.scope.lookup(name)
        if sym is not None:
            return sym
        g = self.module.globals.get(name)
        if g is not None:
            sym = Symbol(name, g.type, "global", g.loc, is_config=g.is_config)
            sym.storage = GlobalRef(g.type, g.name)
            return sym
        pv = self.L.param_values.get(name)
        if pv is not None:
            sym = Symbol(name, pv[1], "param", loc)
            sym.param_value = pv[0]
            return sym
        raise NameError_(f"undefined identifier {name!r}", loc)

    # -- const evaluation (param decls, param loop bounds) -------------------

    def const_eval(self, e: A.Expr) -> tuple[object, Type]:
        if isinstance(e, A.IntLit):
            return e.value, INT
        if isinstance(e, A.RealLit):
            return e.value, REAL
        if isinstance(e, A.BoolLit):
            return e.value, BOOL
        if isinstance(e, A.Ident):
            sym = self.scope.lookup(e.name)
            if sym is not None and sym.kind == "param":
                return sym.param_value, sym.type
            pv = self.L.param_values.get(e.name)
            if pv is not None:
                return pv
            raise TypeError_(f"{e.name!r} is not a compile-time constant", e.loc)
        if isinstance(e, A.UnOp):
            v, t = self.const_eval(e.operand)
            if e.op == "-":
                return -v, t  # type: ignore[operator]
            if e.op == "!":
                return not v, BOOL
            return v, t
        if isinstance(e, A.BinOp):
            lv, lt = self.const_eval(e.lhs)
            rv, rt = self.const_eval(e.rhs)
            ty = unify_numeric(lt, rt) or lt
            if e.op in ("/", "%") and rv == 0:
                what = "division" if e.op == "/" else "modulo"
                raise TypeError_(f"{what} by zero in param expression", e.loc)
            real = isinstance(ty, RealType)
            ops = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a / b if real else int_div(a, b),
                "%": lambda a, b: real_mod(a, b) if real else int_mod(a, b),
                "**": lambda a, b: a**b,
            }
            if e.op in ops:
                return ops[e.op](lv, rv), ty
            raise TypeError_(f"operator {e.op!r} not allowed in param expression", e.loc)
        raise TypeError_("expression is not a compile-time constant", e.loc)

    # -- coercion -------------------------------------------------------------

    def coerce(self, loc: SourceLocation, value: Value, have: Type, want: Type) -> Value:
        if have == want:
            return value
        if isinstance(want, RealType) and isinstance(have, IntType):
            if isinstance(value, Constant):
                return Constant(want, float(value.value))  # type: ignore[arg-type]
            return self.builder.cast(loc, value, want)
        if isinstance(want, IntType) and isinstance(have, IntType):
            return value
        if isinstance(want, RealType) and isinstance(have, RealType):
            return value
        if assignable(want, have):
            return value
        raise TypeError_(f"cannot convert {have} to {want}", loc)

    def default_value(self, loc: SourceLocation, ty: Type) -> Value:
        if isinstance(ty, IntType):
            return Constant(ty, 0)
        if isinstance(ty, RealType):
            return Constant(ty, 0.0)
        if isinstance(ty, BoolType):
            return Constant(ty, False)
        if isinstance(ty, StringType):
            return Constant(ty, "")
        if isinstance(ty, TupleType):
            elems = [self.default_value(loc, e) for e in ty.elems]
            return self.builder.make_tuple(loc, elems, ty)
        if isinstance(ty, RecordType):
            return self.builder.new_object(loc, ty.name, [], ty)
        raise TypeError_(f"type {ty} has no default value", loc)

    # ======================================================================
    # Statements
    # ======================================================================

    def lower_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, A.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, A.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, A.Block):
            self._push_scope()
            for s in stmt.stmts:
                self.lower_stmt(s)
            self._pop_scope()
        elif isinstance(stmt, A.If):
            self._lower_if(stmt)
        elif isinstance(stmt, A.While):
            self._lower_while(stmt)
        elif isinstance(stmt, A.For):
            self._lower_for(stmt)
        elif isinstance(stmt, A.Select):
            self._lower_select(stmt)
        elif isinstance(stmt, A.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, A.Break):
            if not self.loop_stack:
                raise TypeError_("break outside of a loop", stmt.loc)
            self.builder.br(stmt.loc, self.loop_stack[-1].break_block)  # type: ignore[arg-type]
        elif isinstance(stmt, A.Continue):
            if not self.loop_stack:
                raise TypeError_("continue outside of a loop", stmt.loc)
            self.builder.br(stmt.loc, self.loop_stack[-1].continue_block)  # type: ignore[arg-type]
        elif isinstance(stmt, A.Use):
            pass
        elif isinstance(stmt, A.Yield):
            self._lower_yield(stmt)
        elif isinstance(stmt, A.ProcDecl):
            # Nested proc: hoisted to module level. It may not capture
            # enclosing locals (checked), so hoisting is sound.
            free = _free_idents(stmt.body, {p.name for p in stmt.params} | {stmt.name})
            for name in sorted(free):
                sym = self.scope.lookup(name)
                if sym is not None and sym.kind not in ("param",):
                    raise TypeError_(
                        f"nested proc {stmt.name!r} captures enclosing "
                        f"variable {name!r}; pass it as a (ref) parameter",
                        stmt.loc,
                    )
            if stmt.is_iter:
                self.L._register_iter(stmt)
            else:
                self.L._register_proc(stmt)
                self.L._lower_proc(stmt)
        elif isinstance(stmt, A.RecordDecl):
            raise TypeError_("records must be declared at module level", stmt.loc)
        else:
            raise TypeError_(f"unsupported statement {type(stmt).__name__}", stmt.loc)

    # -- declarations -----------------------------------------------------------

    def _lower_var_decl(self, stmt: A.VarDecl) -> None:
        loc = stmt.loc
        if stmt.kind == "param":
            value, ty = self.const_eval(stmt.init)  # type: ignore[arg-type]
            if stmt.declared_type is not None:
                want = self.L.resolve_type(stmt.declared_type, self)
                if isinstance(want, RealType) and isinstance(ty, IntType):
                    value, ty = float(value), want  # type: ignore[arg-type]
            if self.is_module_init and self.scope.parent is None:
                self.L.param_values[stmt.name] = (value, ty)
            sym = Symbol(stmt.name, ty, "param", loc)
            sym.param_value = value
            self.scope.define(sym)
            return

        if stmt.is_config:
            if not self.is_module_init or self.scope.parent is not None:
                raise TypeError_("config declarations must be at module level", loc)
            self._lower_config_decl(stmt)
            return

        declared = (
            self.L.resolve_type(stmt.declared_type, self)
            if stmt.declared_type is not None
            else None
        )

        init_value: Value | None = None
        init_type: Type | None = None
        if stmt.init is not None:
            init_value, init_type = self.lower_expr(stmt.init)

        ty = declared if declared is not None else init_type
        assert ty is not None  # parser guarantees type or init

        is_global = self.is_module_init and self.scope.parent is None
        if is_global:
            if stmt.name in self.module.globals:
                raise NameError_(f"duplicate global {stmt.name!r}", loc)
            self.module.add_global(GlobalVar(stmt.name, ty, loc))
            addr: Value = GlobalRef(ty, stmt.name)
        else:
            addr = self.builder.alloca(loc, ty, stmt.name)

        sym = Symbol(stmt.name, ty, "global" if is_global else stmt.kind, loc)
        sym.storage = addr
        if not is_global:
            self.scope.define(sym)

        if isinstance(ty, ArrayType):
            self._init_array_var(stmt, ty, addr, init_value, init_type)
            return
        if isinstance(ty, SparseDomainType) and init_value is None:
            # `var spD: sparse subdomain(D);` starts empty; indices are
            # added with `spD += idx`.
            if not isinstance(stmt.declared_type, A.SparseSubdomainTypeExpr):
                raise TypeError_(
                    f"sparse domain {stmt.name!r} needs a parent domain", loc
                )
            parent_v, parent_t = self.lower_expr(stmt.declared_type.parent)
            if not isinstance(parent_t, DomainType):
                raise TypeError_(
                    "sparse subdomain parent must be a rectangular domain", loc
                )
            dom = self.builder.make_sparse_domain(loc, parent_v, ty)
            self.builder.store(loc, dom, addr)
            return
        if isinstance(ty, AssociativeDomainType) and init_value is None:
            dom = self.builder.make_assoc_domain(loc, ty)
            self.builder.store(loc, dom, addr)
            return
        if isinstance(ty, DomainType) and init_value is None:
            raise TypeError_(f"domain {stmt.name!r} needs an initializer", loc)

        if init_value is not None:
            assert init_type is not None
            value = self.coerce(loc, init_value, init_type, ty)
            self.builder.store(loc, value, addr)
        else:
            self.builder.store(loc, self.default_value(loc, ty), addr)

    def _init_array_var(
        self,
        stmt: A.VarDecl,
        ty: ArrayType,
        addr: Value,
        init_value: Value | None,
        init_type: Type | None,
    ) -> None:
        """Array declaration semantics:

        * declared over a domain, no init → allocate (zero-filled);
        * initialized from a slice/reindex expression → *alias* (Chapel
          slice semantics; how MiniMD's ``RealPos`` aliases ``Pos``);
        * initialized from another array variable/element → allocate a
          copy (Chapel array assignment copies);
        * initialized from a fresh array value (call result) → adopt.
        """
        loc = stmt.loc
        if init_value is None:
            if stmt.declared_type is None or not isinstance(
                stmt.declared_type, A.ArrayTypeExpr
            ):
                raise TypeError_(f"array {stmt.name!r} needs a domain", loc)
            dte = stmt.declared_type
            if dte.domain is None:
                raise TypeError_(
                    f"array {stmt.name!r} declared with an open type needs "
                    "an initializer",
                    loc,
                )
            dom_value, dom_type = self.lower_expr(dte.domain)
            if isinstance(dom_type, RangeType):
                dom_value = self.builder.make_domain(loc, [dom_value])
            elif not isinstance(dom_type, DomainType):
                raise TypeError_("array domain expression is not a domain", loc)
            arr = self.builder.make_array(loc, dom_value, ty.elem, ty)
            self.builder.store(loc, arr, addr)
            return

        assert init_type is not None
        if not isinstance(init_type, ArrayType):
            raise TypeError_(
                f"cannot initialize array {stmt.name!r} from {init_type}", loc
            )
        if isinstance(stmt.init, (A.Index, A.MethodCall)):
            # Slice / reindex / domain-indexed view: alias.
            self.builder.store(loc, init_value, addr)
        elif isinstance(stmt.init, (A.Ident, A.FieldAccess)):
            dom = self.builder.domain_op(
                loc, "domain", init_value, [], DomainType(init_type.rank)
            )
            arr = self.builder.make_array(loc, dom, ty.elem, ty)
            self.builder.store(loc, arr, addr)
            self.builder.call(loc, "_array_copy", [arr, init_value], VOID, is_builtin=True)
        else:
            self.builder.store(loc, init_value, addr)

    def _lower_config_decl(self, stmt: A.VarDecl) -> None:
        loc = stmt.loc
        declared = (
            self.L.resolve_type(stmt.declared_type, self)
            if stmt.declared_type is not None
            else None
        )
        default_value: Value
        default_type: Type
        if stmt.init is not None:
            default_value, default_type = self.lower_expr(stmt.init)
        else:
            assert declared is not None
            default_value = self.default_value(loc, declared)
            default_type = declared
        ty = declared if declared is not None else default_type
        if isinstance(ty, IntType):
            getter = "_config_get_int"
        elif isinstance(ty, RealType):
            getter = "_config_get_real"
        elif isinstance(ty, BoolType):
            getter = "_config_get_bool"
        else:
            raise TypeError_(f"config variables must be scalar, got {ty}", loc)
        default_value = self.coerce(loc, default_value, default_type, ty)
        self.module.add_global(GlobalVar(stmt.name, ty, loc, is_config=True))
        got = self.builder.call(
            loc, getter, [Constant(STRING, stmt.name), default_value], ty, is_builtin=True
        )
        assert got is not None
        self.builder.store(loc, got, GlobalRef(ty, stmt.name))

    # -- assignment -----------------------------------------------------------

    def _lower_assign(self, stmt: A.Assign) -> None:
        loc = stmt.loc
        addr, target_ty = self.lower_addr(stmt.target)
        if stmt.op == "=":
            value, value_ty = self.lower_expr(stmt.value)
            if isinstance(target_ty, ArrayType) and isinstance(value_ty, ArrayType):
                dst = self.builder.load(loc, addr, target_ty)
                self.builder.call(
                    loc, "_array_copy", [dst, value], VOID, is_builtin=True
                )
                return
            value = self.coerce(loc, value, value_ty, target_ty)
            self.builder.store(loc, value, addr)
            return
        if stmt.op == "+=" and isinstance(
            target_ty, (SparseDomainType, AssociativeDomainType)
        ):
            # `spD += (i, j)` / `keys += k`: domain index insertion
            # (Chapel's irregular-domain grow operation).
            dom = self.builder.load(loc, addr, target_ty)
            idx_v, idx_t = self.lower_expr(stmt.value)
            if target_ty.rank == 1:
                if not isinstance(idx_t, IntType):
                    raise TypeError_(
                        f"inserting into {target_ty} needs an int index", loc
                    )
            else:
                if not (
                    isinstance(idx_t, TupleType)
                    and len(idx_t.elems) == target_ty.rank
                    and all(isinstance(e, IntType) for e in idx_t.elems)
                ):
                    raise TypeError_(
                        f"inserting into {target_ty} needs a "
                        f"{target_ty.rank}-tuple of ints",
                        loc,
                    )
            self.builder.domain_op(loc, "insert", dom, [idx_v], INT)
            return
        # Compound assignment: evaluate address once.
        op = stmt.op[0]
        old = self.builder.load(loc, addr, target_ty)
        rhs, rhs_ty = self.lower_expr(stmt.value)
        result, result_ty = self._emit_binop(loc, op, old, target_ty, rhs, rhs_ty)
        result = self.coerce(loc, result, result_ty, target_ty)
        self.builder.store(loc, result, addr)

    # -- control flow --------------------------------------------------------------

    def _lower_cond(self, e: A.Expr) -> Value:
        value, ty = self.lower_expr(e)
        if not isinstance(ty, BoolType):
            raise TypeError_(f"condition must be bool, got {ty}", e.loc)
        return value

    def _lower_if(self, stmt: A.If) -> None:
        cond = self._lower_cond(stmt.cond)
        then_block = self.builder.new_block("if.then")
        merge_block = self.builder.new_block("if.end")
        else_block = (
            self.builder.new_block("if.else") if stmt.else_body is not None else merge_block
        )
        self.builder.cbr(stmt.loc, cond, then_block, else_block)
        self.builder.set_block(then_block)
        self.lower_stmt(stmt.then_body)
        if not self.builder.terminated:
            self.builder.br(stmt.loc, merge_block)
        if stmt.else_body is not None:
            self.builder.set_block(else_block)
            self.lower_stmt(stmt.else_body)
            if not self.builder.terminated:
                self.builder.br(stmt.loc, merge_block)
        self.builder.set_block(merge_block)

    def _lower_while(self, stmt: A.While) -> None:
        header = self.builder.new_block("while.header")
        body = self.builder.new_block("while.body")
        exit_block = self.builder.new_block("while.end")
        self.builder.br(stmt.loc, header)
        self.builder.set_block(header)
        cond = self._lower_cond(stmt.cond)
        self.builder.cbr(stmt.loc, cond, body, exit_block)
        self.builder.set_block(body)
        self.loop_stack.append(_LoopTargets(header, exit_block))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        if not self.builder.terminated:
            self.builder.br(stmt.loc, header)
        self.builder.set_block(exit_block)

    def _lower_select(self, stmt: A.Select) -> None:
        loc = stmt.loc
        subject, subject_ty = self.lower_expr(stmt.subject)
        subj_addr = self.builder.alloca(loc, subject_ty, "_select_subject", is_temp=True)
        self.builder.store(loc, subject, subj_addr)
        merge = self.builder.new_block("select.end")
        for when in stmt.whens:
            body_block = self.builder.new_block("when.body")
            for vexpr in when.values:
                value, vty = self.lower_expr(vexpr)
                subj = self.builder.load(vexpr.loc, subj_addr, subject_ty)
                eq, _ = self._emit_binop(vexpr.loc, "==", subj, subject_ty, value, vty)
                after = self.builder.new_block("when.next")
                self.builder.cbr(vexpr.loc, eq, body_block, after)
                self.builder.set_block(after)
            saved = self.builder.block
            self.builder.set_block(body_block)
            self.lower_stmt(when.body)
            if not self.builder.terminated:
                self.builder.br(when.loc, merge)
            self.builder.set_block(saved)
        if stmt.otherwise is not None:
            self.lower_stmt(stmt.otherwise)
        if not self.builder.terminated:
            self.builder.br(loc, merge)
        self.builder.set_block(merge)

    def _lower_return(self, stmt: A.Return) -> None:
        if stmt.value is None:
            if not isinstance(self.fn.return_type, VoidType):
                raise TypeError_("return without a value in non-void proc", stmt.loc)
            self.builder.ret(stmt.loc)
            return
        value, ty = self.lower_expr(stmt.value)
        value = self.coerce(stmt.loc, value, ty, self.fn.return_type)
        self.builder.ret(stmt.loc, value)

    # -- loops --------------------------------------------------------------------

    def _lower_for(self, stmt: A.For) -> None:
        iter_calls = [
            it
            for it in stmt.iterables
            if isinstance(it, A.Call) and it.callee in self.L.iters
        ]
        if iter_calls:
            if stmt.kind != "for" or stmt.zippered or len(stmt.iterables) != 1:
                raise TypeError_(
                    f"serial iterator {iter_calls[0].callee!r} can only "
                    "drive a plain (non-zippered) for loop",
                    stmt.loc,
                )
            if stmt.is_param:
                raise TypeError_("param loops cannot use iterators", stmt.loc)
            self._lower_inline_iterator(stmt, iter_calls[0])
            return
        if stmt.kind in ("forall", "coforall"):
            self._lower_parallel_for(stmt)
            return
        if stmt.is_param:
            self._lower_param_for(stmt)
            return
        if (
            not stmt.zippered
            and len(stmt.iterables) == 1
            and isinstance(stmt.iterables[0], A.RangeLit)
        ):
            self._lower_counted_for(stmt)
            return
        self._lower_iterator_for(stmt)

    def _lower_param_for(self, stmt: A.For) -> None:
        """``for param i in lo..hi`` — unrolled at compile time (the
        optimization paper Table VII toggles via the ``param`` keyword)."""
        if stmt.zippered or len(stmt.iterables) != 1:
            raise TypeError_("param loops cannot be zippered", stmt.loc)
        rng = stmt.iterables[0]
        if not isinstance(rng, A.RangeLit):
            raise TypeError_("param loop needs a literal range", stmt.loc)
        lo, _ = self.const_eval(rng.lo)
        hi, _ = self.const_eval(rng.hi)
        step = 1
        if rng.step is not None:
            step, _ = self.const_eval(rng.step)  # type: ignore[assignment]
        if rng.counted:
            hi = lo + hi - 1
        if not all(isinstance(v, int) for v in (lo, hi, step)) or step == 0:
            raise TypeError_("param loop bounds must be integer constants", stmt.loc)
        index_name = stmt.indices[0].name
        for k in range(lo, hi + (1 if step > 0 else -1), step):  # type: ignore[arg-type]
            self._push_scope()
            sym = Symbol(index_name, INT, "param", stmt.loc)
            sym.param_value = k
            self.scope.define(sym)
            for s in stmt.body.stmts:
                self.lower_stmt(s)
            self._pop_scope()

    def _lower_counted_for(self, stmt: A.For) -> None:
        """Fast path: ``for i in lo..hi [by step]`` with plain counters
        (Chapel's simple range loops compile to cheap counted loops)."""
        loc = stmt.loc
        rng = stmt.iterables[0]
        assert isinstance(rng, A.RangeLit)
        lo_v, lo_t = self.lower_expr(rng.lo)
        hi_v, hi_t = self.lower_expr(rng.hi)
        if not isinstance(lo_t, IntType) or not isinstance(hi_t, IntType):
            raise TypeError_("range bounds must be integers", loc)
        step_v: Value = Constant(INT, 1)
        step_const = 1
        if rng.step is not None:
            sv, st = self.lower_expr(rng.step)
            if not isinstance(st, IntType):
                raise TypeError_("range step must be an integer", loc)
            step_v = sv
            step_const = sv.value if isinstance(sv, Constant) else None  # type: ignore[assignment]
        if rng.counted:
            # lo..#n  →  lo .. lo+n-1
            n_minus_1 = self.builder.binop(loc, "-", hi_v, Constant(INT, 1), INT)
            hi_v = self.builder.binop(loc, "+", lo_v, n_minus_1, INT)

        index_name = stmt.indices[0].name
        idx_addr = self.builder.alloca(loc, INT, index_name)
        self.builder.store(loc, lo_v, idx_addr)
        # Keep the bound in a temp so the loop test re-reads a stable value.
        hi_addr = self.builder.alloca(loc, INT, f"_{index_name}_hi", is_temp=True)
        self.builder.store(loc, hi_v, hi_addr)

        header = self.builder.new_block("for.header")
        body = self.builder.new_block("for.body")
        latch = self.builder.new_block("for.latch")
        exit_block = self.builder.new_block("for.end")
        self.builder.br(loc, header)
        self.builder.set_block(header)
        cur = self.builder.load(loc, idx_addr, INT)
        bound = self.builder.load(loc, hi_addr, INT)
        cmp_op = "<=" if (step_const is None or step_const > 0) else ">="
        cond = self.builder.binop(loc, cmp_op, cur, bound, BOOL)
        self.builder.cbr(loc, cond, body, exit_block)

        self.builder.set_block(body)
        self._push_scope()
        sym = Symbol(index_name, INT, "index", stmt.loc)
        sym.storage = idx_addr
        self.scope.define(sym)
        self.loop_stack.append(_LoopTargets(latch, exit_block))
        for s in stmt.body.stmts:
            self.lower_stmt(s)
        self.loop_stack.pop()
        self._pop_scope()
        if not self.builder.terminated:
            self.builder.br(loc, latch)
        self.builder.set_block(latch)
        cur2 = self.builder.load(loc, idx_addr, INT)
        nxt = self.builder.binop(loc, "+", cur2, step_v, INT)
        self.builder.store(loc, nxt, idx_addr)
        self.builder.br(loc, header)
        self.builder.set_block(exit_block)

    def _iteration_binding(self, iter_ty: Type, loc: SourceLocation) -> tuple[Type, bool]:
        """(element type, is_ref) yielded when iterating a value of
        ``iter_ty``.  Arrays yield element *references* (Chapel loops
        over arrays can write through the index variable)."""
        if isinstance(iter_ty, RangeType):
            return INT, False
        if isinstance(iter_ty, DomainType):
            if iter_ty.rank == 1:
                return INT, False
            return TupleType(tuple([INT] * iter_ty.rank)), False
        if isinstance(iter_ty, ArrayType):
            return iter_ty.elem, True
        raise TypeError_(f"cannot iterate a value of type {iter_ty}", loc)

    def _lower_iterator_for(self, stmt: A.For) -> None:
        """General loop via the iterator protocol (domains, arrays,
        slices, zippered groups) — the code shape whose overhead the
        paper's MiniMD optimization removes."""
        loc = stmt.loc
        zippered = stmt.zippered
        iter_vals: list[Value] = []
        iter_types: list[Type] = []
        for it in stmt.iterables:
            v, t = self.lower_expr(it)
            iter_vals.append(v)
            iter_types.append(t)
        states = [
            self.builder.iter_init(loc, v, zippered) for v in iter_vals
        ]

        header = self.builder.new_block("iter.header")
        body = self.builder.new_block("iter.body")
        exit_block = self.builder.new_block("iter.end")
        self.builder.br(loc, header)
        self.builder.set_block(header)
        ok: Value | None = None
        for s in states:
            step_ok = self.builder.iter_next(loc, s)
            ok = step_ok if ok is None else self.builder.binop(loc, "&&", ok, step_ok, BOOL)
        assert ok is not None
        self.builder.cbr(loc, ok, body, exit_block)

        self.builder.set_block(body)
        self._push_scope()
        if len(stmt.indices) > 1 and len(states) == 1:
            # Destructuring: `for (i, j) in D2` binds the components of
            # the yielded index tuple.
            elem_ty, is_ref = self._iteration_binding(iter_types[0], loc)
            if is_ref or not isinstance(elem_ty, TupleType):
                raise TypeError_(
                    "destructuring loop needs a tuple-yielding iterand", loc
                )
            if len(elem_ty.elems) != len(stmt.indices):
                raise TypeError_(
                    f"loop destructures {len(stmt.indices)} names from a "
                    f"{len(elem_ty.elems)}-tuple",
                    loc,
                )
            tup = self.builder.iter_value(loc, states[0], elem_ty)
            for k, idx in enumerate(stmt.indices):
                comp_ty = elem_ty.elems[k]
                cell = self.builder.alloca(loc, comp_ty, idx.name)
                comp = self.builder.tuple_get(loc, tup, Constant(INT, k), comp_ty)
                self.builder.store(loc, comp, cell)
                sym = Symbol(idx.name, comp_ty, "index", idx.loc)
                sym.storage = cell
                self.scope.define(sym)
            self.loop_stack.append(_LoopTargets(header, exit_block))
            for s in stmt.body.stmts:
                self.lower_stmt(s)
            self.loop_stack.pop()
            self._pop_scope()
            if not self.builder.terminated:
                self.builder.br(loc, header)
            self.builder.set_block(exit_block)
            return
        for idx, state, ity in zip(stmt.indices, states, iter_types):
            elem_ty, is_ref = self._iteration_binding(ity, loc)
            if is_ref:
                # The iterator yields an element address; the index var is
                # a reference cell holding that address.
                cell = self.builder.alloca(loc, elem_ty, idx.name)
                addr = self.builder.iter_value(loc, state, elem_ty)
                self.builder.store(loc, addr, cell)
                sym = Symbol(idx.name, elem_ty, "index", idx.loc, intent="ref")
                sym.storage = cell
                sym.kind = "indexref"
            else:
                cell = self.builder.alloca(loc, elem_ty, idx.name)
                value = self.builder.iter_value(loc, state, elem_ty)
                self.builder.store(loc, value, cell)
                sym = Symbol(idx.name, elem_ty, "index", idx.loc)
                sym.storage = cell
            self.scope.define(sym)
        self.loop_stack.append(_LoopTargets(header, exit_block))
        for s in stmt.body.stmts:
            self.lower_stmt(s)
        self.loop_stack.pop()
        self._pop_scope()
        if not self.builder.terminated:
            self.builder.br(loc, header)
        self.builder.set_block(exit_block)

    def _lower_inline_iterator(self, stmt: A.For, call: A.Call) -> None:
        """Expands ``for x in myIter(args)`` inline: the iterator body
        is spliced in with formals bound to the actuals, and each
        ``yield e`` becomes {x = e; <consumer body>} — how Chapel's
        compiler lowers serial iterators (the feature the paper lists
        as future work)."""
        decl = self.L.iters[call.callee]
        if call.callee in self._iter_expansion:
            raise TypeError_(
                f"recursive iterator {call.callee!r} cannot be expanded "
                "inline",
                stmt.loc,
            )
        if len(stmt.indices) != 1:
            raise TypeError_(
                "iterator loops bind exactly one index variable", stmt.loc
            )
        if len(call.args) != len(decl.params):
            raise TypeError_(
                f"iter {call.callee!r} takes {len(decl.params)} args, "
                f"got {len(call.args)}",
                call.loc,
            )
        loc = stmt.loc
        yield_ty = self.L.resolve_type(decl.return_type, self)  # type: ignore[arg-type]

        loop_scope = self.scope
        self._push_scope()
        # Bind formals to actuals (ref formals get the actual's address;
        # value formals get a home slot, like a call's prologue).
        for p, arg in zip(decl.params, call.args):
            pty = self.L.resolve_type(p.declared_type, self)  # type: ignore[arg-type]
            if p.intent in ("ref", "out", "inout"):
                addr, aty = self.lower_addr(arg)
                sym = Symbol(p.name, pty, "formal", p.loc, intent="ref")
                sym.storage = addr
            else:
                value, aty = self.lower_expr(arg)
                value = self.coerce(arg.loc, value, aty, pty)
                home = self.builder.alloca(p.loc, pty, p.name)
                self.builder.store(p.loc, value, home)
                sym = Symbol(p.name, pty, "formal", p.loc, intent="in")
                sym.storage = home
            self.scope.define(sym)

        index = stmt.indices[0]
        idx_addr = self.builder.alloca(loc, yield_ty, index.name)
        exit_block = self.builder.new_block("iterx.end")

        self._yield_stack.append((stmt, idx_addr, yield_ty, exit_block, index, loop_scope))
        self._iter_expansion.append(call.callee)
        try:
            for s in decl.body.stmts:
                self.lower_stmt(s)
        finally:
            self._iter_expansion.pop()
            self._yield_stack.pop()
        self._pop_scope()
        if not self.builder.terminated:
            self.builder.br(loc, exit_block)
        self.builder.set_block(exit_block)

    def _lower_yield(self, stmt: A.Yield) -> None:
        if not self._yield_stack:
            raise TypeError_("yield outside of an iterator", stmt.loc)
        consumer, idx_addr, yield_ty, exit_block, index, loop_scope = self._yield_stack[-1]
        value, vty = self.lower_expr(stmt.value)
        value = self.coerce(stmt.loc, value, vty, yield_ty)
        self.builder.store(stmt.loc, value, idx_addr)

        after = self.builder.new_block("yield.after")
        # The consumer body sees the loop's names, not the iterator's.
        iterator_scope = self.scope
        self.scope = loop_scope.child()
        sym = Symbol(index.name, yield_ty, "index", index.loc)
        sym.storage = idx_addr
        self.scope.define(sym)
        # In the consumer body, continue skips to after this yield and
        # break leaves the whole expanded iteration.
        self.loop_stack.append(_LoopTargets(after, exit_block))
        # Hide the enclosing iterator expansion while lowering the
        # consumer body: its own yields belong to inner iterators only,
        # and a fresh `for ... in sameIter()` inside it is legal nesting,
        # not recursion (expansion depth stays finite).
        saved_yields = self._yield_stack
        saved_expansion = self._iter_expansion
        self._yield_stack = []
        self._iter_expansion = []
        try:
            for s in consumer.body.stmts:
                self.lower_stmt(s)
        finally:
            self._yield_stack = saved_yields
            self._iter_expansion = saved_expansion
        self.loop_stack.pop()
        self.scope = iterator_scope
        if not self.builder.terminated:
            self.builder.br(stmt.loc, after)
        self.builder.set_block(after)

    def _lower_parallel_for(self, stmt: A.For) -> None:
        """Outlines a forall/coforall body into a generated function and
        emits a SpawnJoin — the tasking-layer event the sampling monitor
        tags (paper §IV.B)."""
        loc = stmt.loc
        iter_vals: list[Value] = []
        iter_types: list[Type] = []
        for it in stmt.iterables:
            v, t = self.lower_expr(it)
            iter_vals.append(v)
            iter_types.append(t)

        index_names = {ix.name for ix in stmt.indices}
        free = _free_idents(stmt.body, index_names)
        captures: list[Symbol] = []
        for name in sorted(free):
            sym = self.scope.lookup(name)
            if sym is None:
                continue  # global / proc / builtin — reachable directly
            if sym.kind == "param":
                continue
            captures.append(sym)

        outlined_name = self.L.next_outline_name(stmt.kind)
        chunk_params: list[FunctionParam] = []
        for i, ity in enumerate(iter_types):
            reg = Register(ity, hint=f"chunk{i}")
            chunk_params.append(FunctionParam(f"_chunk{i}", ity, "in", reg, is_temp=True))
        cap_params: list[FunctionParam] = []
        for sym in captures:
            reg = Register(sym.type, hint=f"cap_{sym.name}")
            cap_params.append(FunctionParam(sym.name, sym.type, "ref", reg))

        outlined = Function(
            outlined_name,
            chunk_params + cap_params,
            VOID,
            loc,
            outlined_from=self.fn.name,
        )
        if stmt.reduce_intents:
            # Debug metadata for the static race detector: writes to
            # these names are reduce-protected (private accumulator +
            # task-end combine), not data races.
            outlined.reduce_vars = frozenset(
                name for _op, name in stmt.reduce_intents
            )
        self.L.add_function(outlined)

        ofl = FunctionLowerer(self.L, outlined, Scope())
        ofl.start()
        for p, sym in zip(cap_params, captures):
            csym = Symbol(sym.name, sym.type, "formal", loc, intent="ref")
            csym.storage = p.register
            if sym.kind == "indexref":
                csym.kind = "formal"
            ofl.scope.define(csym)

        # Reduce intents: each task accumulates into a private copy,
        # combined into the shared variable at task end (Chapel's
        # `with (+ reduce x)` semantics).
        reduce_privates: list[tuple[str, str, Value, Register, Type]] = []
        if stmt.reduce_intents:
            ofl._push_scope()
            for op, name in stmt.reduce_intents:
                shared_sym = ofl.scope.lookup(name)
                if shared_sym is not None:
                    shared_addr: Value = shared_sym.storage  # type: ignore[assignment]
                    rty = shared_sym.type
                else:
                    g = self.module.globals.get(name)
                    if g is None:
                        raise NameError_(
                            f"reduce intent names unknown variable {name!r}",
                            stmt.loc,
                        )
                    shared_addr = GlobalRef(g.type, name)
                    rty = g.type
                if not rty.is_numeric():
                    raise TypeError_(
                        f"reduce intent variable {name!r} must be numeric",
                        stmt.loc,
                    )
                private = ofl.builder.alloca(loc, rty, name)
                ofl.builder.store(loc, _reduce_identity(op, rty), private)
                shadow = Symbol(name, rty, "var", stmt.loc)
                shadow.storage = private
                ofl.scope.define(shadow)
                reduce_privates.append((op, name, shared_addr, private, rty))
        # Body of the outlined fn: a serial loop over the chunk(s).
        inner = A.For(
            loc=stmt.loc,
            kind="for",
            indices=stmt.indices,
            iterables=[
                A.Ident(loc=stmt.loc, name=f"_chunk{i}")
                for i in range(len(iter_types))
            ],
            body=stmt.body,
            is_param=False,
            zippered=stmt.zippered,
        )
        for i, (p, ity) in enumerate(zip(chunk_params, iter_types)):
            csym = Symbol(f"_chunk{i}", ity, "formal", loc)
            # "in" chunk formals: home alloca marked temp, identified
            # with the formal so iterator traffic on the chunk bubbles
            # back to the spawned-over domain/array.
            addr = ofl.builder.alloca(
                loc, ity, f"_chunk{i}", is_temp=True, formal_home=f"_chunk{i}"
            )
            ofl.builder.store(loc, p.register, addr)
            csym.storage = addr
            ofl.scope.define(csym)
        ofl._lower_iterator_for(inner)
        # Combine per-task reduce accumulators into the shared storage.
        for op, _name, shared_addr, private, rty in reduce_privates:
            mine = ofl.builder.load(loc, private, rty)
            current = ofl.builder.load(loc, shared_addr, rty)
            if op in ("min", "max"):
                combined = ofl.builder.call(
                    loc, op, [current, mine], rty, is_builtin=True
                )
                assert combined is not None
            else:
                combined = ofl.builder.binop(loc, op, current, mine, rty)
            ofl.builder.store(loc, combined, shared_addr)
        if stmt.reduce_intents:
            ofl._pop_scope()
        ofl.finish()

        capture_addrs: list[Value] = []
        for sym in captures:
            assert sym.storage is not None
            capture_addrs.append(sym.storage)  # type: ignore[arg-type]
        self.builder.spawn_join(loc, outlined_name, stmt.kind, iter_vals, capture_addrs)

    # ======================================================================
    # Expressions
    # ======================================================================

    def lower_expr(self, e: A.Expr) -> tuple[Value, Type]:
        if isinstance(e, A.IntLit):
            return Constant(INT, e.value), INT
        if isinstance(e, A.RealLit):
            return Constant(REAL, e.value), REAL
        if isinstance(e, A.BoolLit):
            return Constant(BOOL, e.value), BOOL
        if isinstance(e, A.StringLit):
            return Constant(STRING, e.value), STRING
        if isinstance(e, A.Ident):
            return self._lower_ident(e)
        if isinstance(e, A.BinOp):
            return self._lower_binop_expr(e)
        if isinstance(e, A.UnOp):
            return self._lower_unop_expr(e)
        if isinstance(e, A.Call):
            return self._lower_call(e)
        if isinstance(e, A.MethodCall):
            return self._lower_method_call(e)
        if isinstance(e, A.Index):
            return self._lower_index_rvalue(e)
        if isinstance(e, A.FieldAccess):
            addr, ty = self.lower_addr(e)
            return self.builder.load(e.loc, addr, ty), ty
        if isinstance(e, A.TupleLit):
            values: list[Value] = []
            types: list[Type] = []
            for elem in e.elems:
                v, t = self.lower_expr(elem)
                values.append(v)
                types.append(t)
            ty = TupleType(tuple(types))
            return self.builder.make_tuple(e.loc, values, ty), ty
        if isinstance(e, A.RangeLit):
            return self._lower_range(e)
        if isinstance(e, A.DomainLit):
            dims: list[Value] = []
            for d in e.dims:
                v, t = self.lower_expr(d)
                if not isinstance(t, RangeType):
                    raise TypeError_("domain dimensions must be ranges", d.loc)
                dims.append(v)
            return self.builder.make_domain(e.loc, dims), DomainType(len(dims))
        if isinstance(e, A.New):
            return self._lower_new(e)
        if isinstance(e, A.Reduce):
            return self._lower_reduce(e)
        if isinstance(e, A.IfExpr):
            return self._lower_if_expr(e)
        raise TypeError_(f"unsupported expression {type(e).__name__}", e.loc)

    def _lower_ident(self, e: A.Ident) -> tuple[Value, Type]:
        sym = self._resolve(e.name, e.loc)
        if sym.kind == "param":
            v = sym.param_value
            if isinstance(v, bool):
                return Constant(BOOL, v), BOOL
            if isinstance(v, int):
                return Constant(INT, v), INT
            if isinstance(v, float):
                return Constant(REAL, v), REAL
            raise TypeError_(f"param {e.name!r} has unsupported value", e.loc)
        assert sym.storage is not None
        if sym.kind == "indexref":
            addr = self.builder.load(e.loc, sym.storage, sym.type)  # type: ignore[arg-type]
            return self.builder.load(e.loc, addr, sym.type), sym.type
        return self.builder.load(e.loc, sym.storage, sym.type), sym.type  # type: ignore[arg-type]

    def _lower_range(self, e: A.RangeLit) -> tuple[Value, Type]:
        lo, lo_t = self.lower_expr(e.lo)
        hi, hi_t = self.lower_expr(e.hi)
        if not isinstance(lo_t, IntType) or not isinstance(hi_t, IntType):
            raise TypeError_("range bounds must be integers", e.loc)
        step = None
        if e.step is not None:
            step, step_t = self.lower_expr(e.step)
            if not isinstance(step_t, IntType):
                raise TypeError_("range step must be an integer", e.loc)
        return self.builder.make_range(e.loc, lo, hi, step, counted=e.counted), RANGE

    def _emit_binop(
        self,
        loc: SourceLocation,
        op: str,
        lhs: Value,
        lhs_t: Type,
        rhs: Value,
        rhs_t: Type,
    ) -> tuple[Value, Type]:
        if op in ("&&", "||"):
            if not isinstance(lhs_t, BoolType) or not isinstance(rhs_t, BoolType):
                raise TypeError_(f"{op} needs bool operands", loc)
            return self.builder.binop(loc, op, lhs, rhs, BOOL), BOOL
        if op in _CMP_OPS:
            if isinstance(lhs_t, (IntType, RealType)) and isinstance(
                rhs_t, (IntType, RealType)
            ):
                common = unify_numeric(lhs_t, rhs_t)
                assert common is not None
                lhs = self.coerce(loc, lhs, lhs_t, common)
                rhs = self.coerce(loc, rhs, rhs_t, common)
                return self.builder.binop(loc, op, lhs, rhs, BOOL), BOOL
            if lhs_t == rhs_t and op in ("==", "!="):
                return self.builder.binop(loc, op, lhs, rhs, BOOL), BOOL
            raise TypeError_(f"cannot compare {lhs_t} with {rhs_t}", loc)
        if op in _ARITH_OPS:
            # tuple ⊕ tuple (elementwise) and tuple ⊕ scalar broadcast —
            # Chapel tuple math, the cost CENN eliminates.
            if isinstance(lhs_t, TupleType) and isinstance(rhs_t, TupleType):
                if len(lhs_t.elems) != len(rhs_t.elems):
                    raise TypeError_("tuple size mismatch", loc)
                return self.builder.binop(loc, op, lhs, rhs, lhs_t), lhs_t
            if isinstance(lhs_t, TupleType) and rhs_t.is_numeric():
                return self.builder.binop(loc, op, lhs, rhs, lhs_t), lhs_t
            if lhs_t.is_numeric() and isinstance(rhs_t, TupleType):
                return self.builder.binop(loc, op, lhs, rhs, rhs_t), rhs_t
            if lhs_t.is_numeric() and rhs_t.is_numeric():
                common = unify_numeric(lhs_t, rhs_t)
                assert common is not None
                if op == "/" and isinstance(common, IntType):
                    pass  # integer division stays integral (Chapel semantics)
                if op == "**":
                    common = (
                        common
                        if isinstance(common, IntType)
                        and isinstance(rhs_t, IntType)
                        else RealType()
                    )
                lhs = self.coerce(loc, lhs, lhs_t, common)
                rhs = self.coerce(loc, rhs, rhs_t, common)
                return self.builder.binop(loc, op, lhs, rhs, common), common
            if isinstance(lhs_t, StringType) and op == "+":
                return self.builder.binop(loc, op, lhs, rhs, STRING), STRING
            raise TypeError_(f"invalid operands for {op}: {lhs_t}, {rhs_t}", loc)
        raise TypeError_(f"unknown operator {op!r}", loc)

    def _lower_binop_expr(self, e: A.BinOp) -> tuple[Value, Type]:
        if e.op in ("&&", "||"):
            return self._lower_short_circuit(e)
        lhs, lhs_t = self.lower_expr(e.lhs)
        rhs, rhs_t = self.lower_expr(e.rhs)
        return self._emit_binop(e.loc, e.op, lhs, lhs_t, rhs, rhs_t)

    def _lower_short_circuit(self, e: A.BinOp) -> tuple[Value, Type]:
        """&&/|| with control flow, so conditions create the implicit
        (control-dependence) blame edges the paper describes."""
        loc = e.loc
        result = self.builder.alloca(loc, BOOL, "_sc", is_temp=True)
        lhs = self._lower_cond(e.lhs)
        rhs_block = self.builder.new_block("sc.rhs")
        short_block = self.builder.new_block("sc.short")
        merge = self.builder.new_block("sc.end")
        if e.op == "&&":
            self.builder.cbr(loc, lhs, rhs_block, short_block)
            short_value = Constant(BOOL, False)
        else:
            self.builder.cbr(loc, lhs, short_block, rhs_block)
            short_value = Constant(BOOL, True)
        self.builder.set_block(short_block)
        self.builder.store(loc, short_value, result)
        self.builder.br(loc, merge)
        self.builder.set_block(rhs_block)
        rhs = self._lower_cond(e.rhs)
        self.builder.store(loc, rhs, result)
        self.builder.br(loc, merge)
        self.builder.set_block(merge)
        return self.builder.load(loc, result, BOOL), BOOL

    def _lower_unop_expr(self, e: A.UnOp) -> tuple[Value, Type]:
        value, ty = self.lower_expr(e.operand)
        if e.op == "+":
            return value, ty
        if e.op == "-":
            if isinstance(value, Constant) and ty.is_numeric():
                return Constant(ty, -value.value), ty  # type: ignore[operator]
            if not (ty.is_numeric() or isinstance(ty, TupleType)):
                raise TypeError_(f"cannot negate {ty}", e.loc)
            return self.builder.unop(e.loc, "-", value, ty), ty
        if e.op == "!":
            if not isinstance(ty, BoolType):
                raise TypeError_("! needs a bool operand", e.loc)
            return self.builder.unop(e.loc, "!", value, ty), BOOL
        raise TypeError_(f"unknown unary operator {e.op!r}", e.loc)

    def _lower_if_expr(self, e: A.IfExpr) -> tuple[Value, Type]:
        loc = e.loc
        # The result slot must exist on both paths: type the branches
        # statically and allocate before branching.
        tt = self._type_of_base(e.then_expr)
        et = self._type_of_base(e.else_expr)
        ty = (
            unify_numeric(tt, et)
            if (tt.is_numeric() and et.is_numeric())
            else (tt if tt == et else None)
        )
        if ty is None:
            raise TypeError_(f"if-expr branches disagree: {tt} vs {et}", loc)
        result = self.builder.alloca(loc, ty, "_ifx", is_temp=True)
        cond = self._lower_cond(e.cond)
        then_block = self.builder.new_block("ifx.then")
        else_block = self.builder.new_block("ifx.else")
        merge = self.builder.new_block("ifx.end")
        self.builder.cbr(loc, cond, then_block, else_block)
        self.builder.set_block(then_block)
        tv, tt2 = self.lower_expr(e.then_expr)
        self.builder.store(loc, self.coerce(loc, tv, tt2, ty), result)
        self.builder.br(loc, merge)
        self.builder.set_block(else_block)
        ev, et2 = self.lower_expr(e.else_expr)
        self.builder.store(loc, self.coerce(loc, ev, et2, ty), result)
        self.builder.br(loc, merge)
        self.builder.set_block(merge)
        return self.builder.load(loc, result, ty), ty

    # -- calls -----------------------------------------------------------------

    def _lower_call(self, e: A.Call) -> tuple[Value, Type]:
        if is_intrinsic(e.callee):
            return self._lower_intrinsic(e)
        sig = self.L.procs.get(e.callee)
        if sig is None:
            if e.callee in self.L.iters:
                raise TypeError_(
                    f"iterator {e.callee!r} can only be consumed by a "
                    "for loop",
                    e.loc,
                )
            raise NameError_(f"call to undefined proc {e.callee!r}", e.loc)
        if len(e.args) != len(sig.param_types):
            raise TypeError_(
                f"proc {e.callee!r} takes {len(sig.param_types)} args, "
                f"got {len(e.args)}",
                e.loc,
            )
        args: list[Value] = []
        for arg, pty, intent in zip(e.args, sig.param_types, sig.intents):
            if intent in ("ref", "out", "inout"):
                addr, aty = self.lower_addr(arg)
                if not assignable(pty, aty) and aty != pty:
                    raise TypeError_(
                        f"ref argument type {aty} does not match formal {pty}",
                        arg.loc,
                    )
                args.append(addr)
            else:
                v, aty = self.lower_expr(arg)
                v = self.coerce(arg.loc, v, aty, pty)
                args.append(v)
        result = self.builder.call(e.loc, e.callee, args, sig.return_type)
        if result is None:
            return Constant(VOID, None), VOID
        return result, sig.return_type

    def _lower_intrinsic(self, e: A.Call) -> tuple[Value, Type]:
        if e.callee in INTERNAL_ONLY:
            raise NameError_(f"{e.callee!r} is not user-callable", e.loc)
        intr = INTRINSICS[e.callee]
        if intr.arity is not None and len(e.args) != intr.arity:
            raise TypeError_(
                f"{e.callee}() takes {intr.arity} args, got {len(e.args)}", e.loc
            )
        values: list[Value] = []
        types: list[Type] = []
        for a in e.args:
            v, t = self.lower_expr(a)
            values.append(v)
            types.append(t)
        ret: Type = intr.return_type
        if e.callee in POLYMORPHIC_NUMERIC:
            if all(isinstance(t, IntType) for t in types):
                ret = INT
            else:
                values = [
                    self.coerce(e.loc, v, t, REAL) if isinstance(t, IntType) else v
                    for v, t in zip(values, types)
                ]
        elif intr.numeric:
            values = [
                self.coerce(e.loc, v, t, REAL) if isinstance(t, IntType) else v
                for v, t in zip(values, types)
            ]
        result = self.builder.call(e.loc, e.callee, values, ret, is_builtin=True)
        if result is None:
            return Constant(VOID, None), VOID
        return result, ret

    def _lower_method_call(self, e: A.MethodCall) -> tuple[Value, Type]:
        recv, recv_ty = self.lower_expr(e.receiver)
        loc = e.loc
        args: list[Value] = []
        arg_types: list[Type] = []
        for a in e.args:
            v, t = self.lower_expr(a)
            args.append(v)
            arg_types.append(t)

        if isinstance(recv_ty, (DomainType, RangeType)):
            rank = recv_ty.rank if isinstance(recv_ty, DomainType) else 1
            if e.method == "size":
                return self.builder.domain_op(loc, "size", recv, args, INT), INT
            if e.method in ("low", "high"):
                ty: Type = INT if rank == 1 else TupleType(tuple([INT] * rank))
                return self.builder.domain_op(loc, e.method, recv, args, ty), ty
            if e.method == "dim":
                return self.builder.domain_op(loc, "dim", recv, args, RANGE), RANGE
            if e.method in ("expand", "translate", "interior") and isinstance(
                recv_ty, DomainType
            ):
                return (
                    self.builder.domain_op(loc, e.method, recv, args, recv_ty),
                    recv_ty,
                )
            raise TypeError_(f"unknown {recv_ty} method {e.method!r}", loc)
        if isinstance(recv_ty, ArrayType):
            if e.method == "size":
                return self.builder.domain_op(loc, "size", recv, args, INT), INT
            if e.method == "domain":
                dty = DomainType(recv_ty.rank)
                return self.builder.domain_op(loc, "domain", recv, args, dty), dty
            if e.method == "reindex":
                if len(args) != 1 or not isinstance(arg_types[0], DomainType):
                    raise TypeError_("reindex takes a domain", loc)
                return (
                    self.builder.array_reindex(loc, recv, args[0], recv_ty),
                    recv_ty,
                )
            raise TypeError_(f"unknown array method {e.method!r}", loc)
        raise TypeError_(f"type {recv_ty} has no methods", loc)

    def _lower_new(self, e: A.New) -> tuple[Value, Type]:
        rec = self.module.records.get(e.type_name)
        if rec is None:
            raise TypeError_(f"unknown record type {e.type_name!r}", e.loc)
        if len(e.args) > len(rec.fields):
            raise TypeError_(
                f"too many initializers for {e.type_name!r}", e.loc
            )
        args: list[Value] = []
        for arg, (fname, fty) in zip(e.args, rec.fields):
            v, t = self.lower_expr(arg)
            v = self.coerce(arg.loc, v, t, fty)
            args.append(v)
        return self.builder.new_object(e.loc, e.type_name, args, rec), rec

    def _lower_reduce(self, e: A.Reduce) -> tuple[Value, Type]:
        """Reductions lower to an accumulator loop (serial; the paper
        lists reduction support under future work, so a serial expansion
        is deliberately sufficient)."""
        loc = e.loc
        it_value, it_ty = self.lower_expr(e.iterable)
        elem_ty, is_ref = self._iteration_binding(it_ty, loc)
        if isinstance(elem_ty, TupleType) and isinstance(it_ty, DomainType):
            raise TypeError_("cannot reduce over a multi-dimensional domain", loc)
        acc_ty = elem_ty
        init: Value
        if e.op == "+":
            init = self.default_value(loc, acc_ty)
        elif e.op == "*":
            init = (
                Constant(acc_ty, 1) if isinstance(acc_ty, IntType) else Constant(acc_ty, 1.0)
            )
        elif e.op in ("min", "max"):
            big = 1 << 62 if isinstance(acc_ty, IntType) else float("inf")
            v = big if e.op == "min" else (-big if isinstance(acc_ty, IntType) else float("-inf"))
            init = Constant(acc_ty, v)
        else:
            raise TypeError_(f"unsupported reduction {e.op!r}", loc)
        acc = self.builder.alloca(loc, acc_ty, "_reduce_acc", is_temp=True)
        self.builder.store(loc, init, acc)
        state = self.builder.iter_init(loc, it_value, zippered=False)
        header = self.builder.new_block("reduce.header")
        body = self.builder.new_block("reduce.body")
        exit_block = self.builder.new_block("reduce.end")
        self.builder.br(loc, header)
        self.builder.set_block(header)
        ok = self.builder.iter_next(loc, state)
        self.builder.cbr(loc, ok, body, exit_block)
        self.builder.set_block(body)
        elem = self.builder.iter_value(loc, state, elem_ty)
        if is_ref:
            elem = self.builder.load(loc, elem, elem_ty)
        old = self.builder.load(loc, acc, acc_ty)
        if e.op in ("min", "max"):
            new = self.builder.call(loc, e.op, [old, elem], acc_ty, is_builtin=True)
            assert new is not None
        else:
            new = self.builder.binop(loc, e.op, old, elem, acc_ty)
        self.builder.store(loc, new, acc)
        self.builder.br(loc, header)
        self.builder.set_block(exit_block)
        return self.builder.load(loc, acc, acc_ty), acc_ty

    # -- indexing -----------------------------------------------------------------

    def _lower_index_rvalue(self, e: A.Index) -> tuple[Value, Type]:
        base_ty = self._type_of_base(e.base)
        if isinstance(base_ty, ArrayType):
            base, _ = self.lower_expr(e.base)
            return self._index_array(e, base, base_ty, want_addr=False)
        if isinstance(base_ty, TupleType):
            # Prefer address + load when the base is addressable, so the
            # write/read paths are symmetric for blame.
            if isinstance(e.base, (A.Ident, A.Index, A.FieldAccess)):
                try:
                    addr, ty = self.lower_addr(e)
                    return self.builder.load(e.loc, addr, ty), ty
                except TypeError_:
                    pass
            tup, tup_ty = self.lower_expr(e.base)
            assert isinstance(tup_ty, TupleType)
            idx_v, idx_t, const_idx = self._lower_tuple_index(e, tup_ty)
            elem_ty = tup_ty.elems[const_idx if const_idx is not None else 0]
            return self.builder.tuple_get(e.loc, tup, idx_v, elem_ty), elem_ty
        raise TypeError_(f"cannot index a value of type {base_ty}", e.loc)

    def _lower_tuple_index(
        self, e: A.Index, tup_ty: TupleType
    ) -> tuple[Value, Type, int | None]:
        if len(e.indices) != 1:
            raise TypeError_("tuples take a single index", e.loc)
        idx_v, idx_t = self.lower_expr(e.indices[0])
        if not isinstance(idx_t, IntType):
            raise TypeError_("tuple index must be an integer", e.loc)
        const_idx: int | None = None
        if isinstance(idx_v, Constant):
            const_idx = int(idx_v.value)  # type: ignore[arg-type]
            if not 0 <= const_idx < len(tup_ty.elems):
                raise TypeError_(
                    f"tuple index {const_idx} out of range 0..{len(tup_ty.elems) - 1}",
                    e.loc,
                )
        else:
            first = tup_ty.elems[0]
            if any(t != first for t in tup_ty.elems):
                raise TypeError_(
                    "dynamic index into a non-homogeneous tuple", e.loc
                )
        return idx_v, idx_t, const_idx

    def _index_array(
        self, e: A.Index, base: Value, base_ty: ArrayType, want_addr: bool
    ) -> tuple[Value, Type]:
        loc = e.loc
        idx_vals: list[Value] = []
        idx_types: list[Type] = []
        for ix in e.indices:
            v, t = self.lower_expr(ix)
            idx_vals.append(v)
            idx_types.append(t)
        # Slice / view: A[dom], A[range] (and A[r1, r2] for rank 2).
        if any(isinstance(t, (DomainType, RangeType)) for t in idx_types):
            if want_addr:
                raise TypeError_("cannot assign to an array slice directly", loc)
            if len(idx_types) == 1 and isinstance(idx_types[0], DomainType):
                dom = idx_vals[0]
            else:
                if not all(isinstance(t, RangeType) for t in idx_types):
                    raise TypeError_("mixed element/slice indexing unsupported", loc)
                if len(idx_types) != base_ty.rank:
                    raise TypeError_(
                        f"slice rank {len(idx_types)} != array rank {base_ty.rank}",
                        loc,
                    )
                dom = self.builder.make_domain(loc, idx_vals)
            return self.builder.array_slice(loc, base, dom, base_ty), base_ty
        # Element access.
        if len(idx_vals) != base_ty.rank:
            raise TypeError_(
                f"array of rank {base_ty.rank} indexed with {len(idx_vals)} "
                "subscripts",
                loc,
            )
        for t in idx_types:
            if not isinstance(t, IntType):
                raise TypeError_("array subscripts must be integers", loc)
        addr = self.builder.elem_addr(loc, base, idx_vals, base_ty.elem)
        if want_addr:
            return addr, base_ty.elem
        return self.builder.load(loc, addr, base_ty.elem), base_ty.elem

    # -- lvalues -----------------------------------------------------------------

    def _type_of_base(self, e: A.Expr) -> Type:
        """Static type of an expression without emitting code (used to
        choose the indexing strategy).  Falls back to full lowering-free
        inference for the shapes indexing can produce."""
        if isinstance(e, A.Ident):
            return self._resolve(e.name, e.loc).type
        if isinstance(e, A.Index):
            bt = self._type_of_base(e.base)
            if isinstance(bt, ArrayType):
                if any(
                    isinstance(self._type_of_base_safe(ix), (DomainType, RangeType))
                    or isinstance(ix, (A.RangeLit, A.DomainLit))
                    for ix in e.indices
                ):
                    return bt
                return bt.elem
            if isinstance(bt, TupleType):
                if len(e.indices) == 1 and isinstance(e.indices[0], A.IntLit):
                    return bt.elems[e.indices[0].value]
                return bt.elems[0]
            raise TypeError_(f"cannot index {bt}", e.loc)
        if isinstance(e, A.FieldAccess):
            bt = self._type_of_base(e.base)
            if isinstance(bt, RecordType):
                ft = bt.field_type(e.field)
                if ft is None:
                    raise TypeError_(
                        f"record {bt.name} has no field {e.field!r}", e.loc
                    )
                return ft
            raise TypeError_(f"{bt} has no fields", e.loc)
        if isinstance(e, A.MethodCall):
            recv_t = self._type_of_base(e.receiver)
            if isinstance(recv_t, ArrayType) and e.method == "reindex":
                return recv_t
            if isinstance(recv_t, ArrayType) and e.method == "domain":
                return DomainType(recv_t.rank)
            if isinstance(recv_t, (DomainType, RangeType)):
                if e.method in ("expand", "translate", "interior"):
                    return recv_t
                if e.method == "dim":
                    return RANGE
                if e.method == "size":
                    return INT
                if e.method in ("low", "high"):
                    rank = recv_t.rank if isinstance(recv_t, DomainType) else 1
                    return INT if rank == 1 else TupleType(tuple([INT] * rank))
            raise TypeError_(f"cannot type method {e.method!r} here", e.loc)
        if isinstance(e, A.Call):
            sig = self.L.procs.get(e.callee)
            if sig is not None:
                return sig.return_type
            if is_intrinsic(e.callee):
                return INTRINSICS[e.callee].return_type
            if e.callee in self.L.iters:
                raise TypeError_(
                    f"iterator {e.callee!r} can only be consumed by a "
                    "for loop",
                    e.loc,
                )
            raise NameError_(f"call to undefined proc {e.callee!r}", e.loc)
        if isinstance(e, A.RangeLit):
            return RANGE
        if isinstance(e, A.DomainLit):
            return DomainType(len(e.dims))
        if isinstance(e, A.IntLit):
            return INT
        if isinstance(e, A.RealLit):
            return REAL
        if isinstance(e, A.BoolLit):
            return BOOL
        if isinstance(e, A.StringLit):
            return STRING
        if isinstance(e, A.TupleLit):
            return TupleType(tuple(self._type_of_base(x) for x in e.elems))
        if isinstance(e, A.New):
            rec = self.module.records.get(e.type_name)
            if rec is None:
                raise TypeError_(f"unknown record {e.type_name!r}", e.loc)
            return rec
        if isinstance(e, A.BinOp):
            lt = self._type_of_base(e.lhs)
            rt = self._type_of_base(e.rhs)
            if e.op in _CMP_OPS or e.op in ("&&", "||"):
                return BOOL
            if isinstance(lt, TupleType):
                return lt
            if isinstance(rt, TupleType):
                return rt
            u = unify_numeric(lt, rt)
            return u if u is not None else lt
        if isinstance(e, A.UnOp):
            return BOOL if e.op == "!" else self._type_of_base(e.operand)
        if isinstance(e, A.Reduce):
            it = self._type_of_base(e.iterable)
            if isinstance(it, ArrayType):
                return it.elem
            return INT
        if isinstance(e, A.IfExpr):
            # Mirror _lower_if_expr: numeric branches unify (int+real →
            # real), otherwise the then-branch type stands.
            tt = self._type_of_base(e.then_expr)
            et = self._type_of_base_safe(e.else_expr)
            if et is not None and tt.is_numeric() and et.is_numeric():
                u = unify_numeric(tt, et)
                if u is not None:
                    return u
            return tt
        raise TypeError_(f"cannot type {type(e).__name__} without lowering", e.loc)

    def _type_of_base_safe(self, e: A.Expr) -> Type | None:
        try:
            return self._type_of_base(e)
        except Exception:
            return None

    def lower_addr(self, e: A.Expr) -> tuple[Value, Type]:
        """Lowers an lvalue to (address value, stored type)."""
        if isinstance(e, A.Ident):
            sym = self._resolve(e.name, e.loc)
            if sym.kind == "param":
                raise TypeError_(f"cannot assign to param {e.name!r}", e.loc)
            assert sym.storage is not None
            if sym.kind == "indexref":
                addr = self.builder.load(e.loc, sym.storage, sym.type)  # type: ignore[arg-type]
                return addr, sym.type
            return sym.storage, sym.type  # type: ignore[return-value]
        if isinstance(e, A.Index):
            base_ty = self._type_of_base(e.base)
            if isinstance(base_ty, ArrayType):
                base, _ = self.lower_expr(e.base)
                return self._index_array(e, base, base_ty, want_addr=True)
            if isinstance(base_ty, TupleType):
                base_addr, bt = self.lower_addr(e.base)
                assert isinstance(bt, TupleType)
                idx_v, _, const_idx = self._lower_tuple_index(e, bt)
                elem_ty = bt.elems[const_idx if const_idx is not None else 0]
                return (
                    self.builder.tuple_elem_addr(e.loc, base_addr, idx_v, elem_ty),
                    elem_ty,
                )
            raise TypeError_(f"cannot index {base_ty}", e.loc)
        if isinstance(e, A.FieldAccess):
            base_ty = self._type_of_base(e.base)
            if not isinstance(base_ty, RecordType):
                raise TypeError_(f"{base_ty} has no fields", e.loc)
            ft = base_ty.field_type(e.field)
            fi = base_ty.field_index(e.field)
            if ft is None or fi is None:
                raise TypeError_(
                    f"record {base_ty.name} has no field {e.field!r}", e.loc
                )
            if base_ty.is_class:
                # Class instances are references: field access goes
                # through the *value* (pointer).
                base, _ = self.lower_expr(e.base)
                return self.builder.field_addr(e.loc, base, fi, e.field, ft), ft
            try:
                base_addr, _ = self.lower_addr(e.base)
            except TypeError_:
                # Record rvalue (e.g. returned from a call): materialize
                # a temporary so the field is addressable.
                value, vt = self.lower_expr(e.base)
                base_addr = self.builder.alloca(e.loc, vt, "_rec_tmp", is_temp=True)
                self.builder.store(e.loc, value, base_addr)
            return self.builder.field_addr(e.loc, base_addr, fi, e.field, ft), ft
        raise TypeError_(
            f"expression {type(e).__name__} is not assignable", e.loc
        )


def verify_function(f: Function, module: Module | None = None) -> None:
    if not f.blocks:
        raise VerificationError(f"{f.name}: function has no blocks")

    seen_iids: set[int] = set()
    defined_regs: set[int] = {p.register.rid for p in f.params}
    block_set = set(f.blocks)

    for block in f.blocks:
        if not block.instructions:
            raise VerificationError(f"{f.name}/{block.label}: empty block")
        term = block.instructions[-1]
        if not term.is_terminator():
            raise VerificationError(
                f"{f.name}/{block.label}: block does not end in a terminator "
                f"(last is {term.opname})"
            )
        for i, instr in enumerate(block.instructions):
            if instr.iid in seen_iids:
                raise VerificationError(
                    f"{f.name}: duplicate instruction id {instr.iid}"
                )
            seen_iids.add(instr.iid)
            if instr.is_terminator() and i != len(block.instructions) - 1:
                raise VerificationError(
                    f"{f.name}/{block.label}: terminator {instr.opname} "
                    f"in mid-block position {i}"
                )
            if instr.result is not None:
                if instr.result.rid in defined_regs:
                    raise VerificationError(
                        f"{f.name}: register {instr.result} defined twice"
                    )
                defined_regs.add(instr.result.rid)
        if isinstance(term, Br) and term.target not in block_set:
            raise VerificationError(
                f"{f.name}/{block.label}: branch to foreign block "
                f"{getattr(term.target, 'label', term.target)}"
            )
        if isinstance(term, CBr):
            for t in (term.then_block, term.else_block):
                if t not in block_set:
                    raise VerificationError(
                        f"{f.name}/{block.label}: cbr to foreign block "
                        f"{getattr(t, 'label', t)}"
                    )

    for block in f.blocks:
        for instr in block.instructions:
            for op in instr.operands():
                if isinstance(op, Register) and op.rid not in defined_regs:
                    raise VerificationError(
                        f"{f.name}: use of undefined register {op} in "
                        f"[{instr.iid}] {instr}"
                    )

    if not isinstance(f.return_type, VoidType):
        for block in f.blocks:
            term = block.instructions[-1]
            if isinstance(term, Ret) and term.value is None:
                raise VerificationError(
                    f"{f.name}: ret without value in non-void function"
                )


def verify_module(module: Module) -> None:
    for f in module.functions.values():
        verify_function(f, module)
    for f, instr in module.all_instructions():
        if isinstance(instr, Call) and not instr.is_builtin:
            if instr.callee not in module.functions:
                raise VerificationError(
                    f"{f.name}: call to unknown function {instr.callee!r}"
                )
        if isinstance(instr, SpawnJoin):
            if instr.outlined not in module.functions:
                raise VerificationError(
                    f"{f.name}: spawn of unknown outlined function "
                    f"{instr.outlined!r}"
                )


def lower_program(program: A.Program, module_name: str = "module") -> Module:
    """AST → verified IR module."""
    module = Lowerer(program, module_name).lower()
    verify_module(module)
    return module


def compile_source(
    source: str, filename: str = "<string>", fresh_ids: bool = False
) -> Module:
    """Source text → verified IR module, through the reference parser."""
    if fresh_ids:
        reset_ir_counters()
    program = parse(source, filename)
    module = lower_program(program, module_name=filename)
    module.sources[filename] = source
    return module


# ---------------------------------------------------------------------------
# Product against reference
# ---------------------------------------------------------------------------


def _error(exc: Exception) -> tuple:
    """What a raised front-end or verifier error shows: its class, its
    message and its location."""
    return (type(exc).__name__, str(exc), repr(getattr(exc, "loc", None)))


def module_dump(module: Module) -> tuple:
    """``print_module`` plus what it leaves out: every instruction's class,
    full location, operand kinds and types and debug flags, every
    function's and formal's metadata, and every global."""
    from repro.ir.printer import print_module

    detail: list[tuple] = [tuple(module.globals.values())]
    for f in module.functions.values():
        detail.append(
            (f.name, f.source_name, f.outlined_from, f.is_artificial,
             sorted(f.reduce_vars), f.loc,
             [(p.name, p.type, p.intent, p.register.rid, p.is_temp) for p in f.params])
        )
        for block in f.blocks:
            for instr in block.instructions:
                extra: tuple = ()
                if isinstance(instr, Alloca):
                    extra = (instr.alloc_type, instr.formal_home)
                elif isinstance(instr, Call):
                    extra = (instr.is_builtin,)
                detail.append(
                    (instr.iid, type(instr), instr.loc,
                     None if instr.result is None else instr.result.type,
                     [(type(o), o.type) for o in instr.operands()], extra)
                )
    return print_module(module), detail


@contextmanager
def fresh_ids():
    """Draws ids from zero inside the block, then puts every IR id
    counter back where it was, so modules compiled before and after
    never share an id."""
    from repro.ir import instructions, module

    saved = (instructions._iid_counter, Register._counter, module.BasicBlock._counter)
    positions = [c.__reduce__()[1] for c in saved]
    reset_ir_counters()
    try:
        yield
    finally:
        instructions._iid_counter = itertools.count(*positions[0])
        Register._counter = itertools.count(*positions[1])
        module.BasicBlock._counter = itertools.count(*positions[2])


def frontend_outcomes(source: str, filename: str, reference: bool) -> list:
    """Tokens (or the lex error), the AST (or the parse error), and the
    module dump (or the error) of a compile from fresh ids, before and
    after the ``--fast`` passes, through the product front end or the
    reference one."""
    from repro.chapel.errors import ChapelError
    from repro.chapel.lexer import tokenize
    from repro.chapel.parser import parse as product_parse
    from repro.compiler import lower as product
    from repro.compiler.passes import run_fast_pipeline

    from ..chapel.reference_lexer import Lexer
    from ..chapel.reference_parser import Parser as ReferenceParser

    try:
        tokens = Lexer(source, filename).tokenize() if reference else tokenize(source, filename)
    except ChapelError as exc:
        return [_error(exc)]
    try:
        if reference:
            program = ReferenceParser(tokenize(source, filename), filename).parse_program()
        else:
            program = product_parse(source, filename)
    except ChapelError as exc:
        return [tokens, _error(exc)]
    outcomes = [tokens, program]
    with fresh_ids():
        try:
            module = (compile_source if reference else product.compile_source)(
                source, filename
            )
        except (ChapelError, VerificationError) as exc:
            return [*outcomes, _error(exc)]
        outcomes.append(module_dump(module))
        # --fast rewrites the module in place, drawing ids after the
        # compile's.
        try:
            run_fast_pipeline(module)
            outcomes.append(module_dump(module))
        except (ChapelError, VerificationError) as exc:
            outcomes.append(_error(exc))
    return outcomes


def frontend_mismatches(source: str, filename: str = "prog.chpl") -> list[str]:
    """Where the product front end and the reference differ on
    ``source``: tokens, AST, or the IR (ids, locations, operands) or
    error of an unoptimized or a ``--fast`` compile."""
    product = frontend_outcomes(source, filename, reference=False)
    reference = frontend_outcomes(source, filename, reference=True)
    what = ("tokens", "ASTs", "modules", "--fast modules")
    found = [f"{w} differ" for w, p, r in zip(what, product, reference) if p != r]
    if len(product) != len(reference):
        found.append(f"stages reached differ ({len(product)} vs {len(reference)})")
    return found


def e2e_mismatches() -> list[str]:
    """:func:`frontend_mismatches` on every ``benchmarks/e2e/inputs``
    program; prints one line per program."""
    import glob
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    inputs = sorted(
        glob.glob(os.path.join(root, "benchmarks", "e2e", "inputs", "**", "*.chpl"),
                  recursive=True)
    )
    out: list[str] = []
    for path in inputs:
        with open(path) as f:
            found = frontend_mismatches(f.read(), os.path.basename(path))
        label = os.path.relpath(path, root)
        print(f"{label}: {'ok' if not found else ', '.join(found)}")
        out.extend(f"{label}: {m}" for m in found)
    return out

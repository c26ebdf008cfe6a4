"""IR structural verifier.

Run after lowering and after every optimization pass (the ``--fast``
pipeline) to catch malformed IR early: the blame analysis and the
interpreter both assume these invariants.
"""

from __future__ import annotations

from ..chapel.types import VoidType
from .instructions import (
    Alloca,
    Br,
    Call,
    CBr,
    Instruction,
    Register,
    Ret,
    SpawnJoin,
)
from .module import Function, Module


class VerificationError(Exception):
    """Raised when the IR violates a structural invariant."""


def verify_function(f: Function, module: Module | None = None) -> None:
    """Checks the structure of ``f``.

    One walk over the instructions checks ids, terminators and
    definitions, and sets aside each register operand not yet defined
    where it is used (a use may come before its definition in block
    order).  Those are resolved against the function's full set of
    definitions afterwards, so errors come out in the order of a walk
    for definitions followed by a walk for uses."""
    if not f.blocks:
        raise VerificationError(f"{f.name}: function has no blocks")

    seen_iids: set[int] = set()
    defined_regs: set[int] = {p.register.rid for p in f.params}
    block_set = set(f.blocks)
    pending: list[tuple[Instruction, Register]] = []

    for block in f.blocks:
        instrs = block.instructions
        if not instrs:
            raise VerificationError(f"{f.name}/{block.label}: empty block")
        term = instrs[-1]
        if not term.is_terminator():
            raise VerificationError(
                f"{f.name}/{block.label}: block does not end in a terminator "
                f"(last is {term.opname})"
            )
        last = len(instrs) - 1
        for i, instr in enumerate(instrs):
            if instr.iid in seen_iids:
                raise VerificationError(
                    f"{f.name}: duplicate instruction id {instr.iid}"
                )
            seen_iids.add(instr.iid)
            if i != last and instr.is_terminator():
                raise VerificationError(
                    f"{f.name}/{block.label}: terminator {instr.opname} "
                    f"in mid-block position {i}"
                )
            for op in instr.operands():
                if isinstance(op, Register) and op.rid not in defined_regs:
                    pending.append((instr, op))
            result = instr.result
            if result is not None:
                if result.rid in defined_regs:
                    raise VerificationError(
                        f"{f.name}: register {result} defined twice"
                    )
                defined_regs.add(result.rid)
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

    # Every register operand must be defined somewhere in this function
    # (we don't enforce dominance — the -O0 style lowering guarantees it
    # structurally, and allocas all sit in the entry block).
    for instr, op in pending:
        if op.rid not in defined_regs:
            raise VerificationError(
                f"{f.name}: use of undefined register {op} in "
                f"[{instr.iid}] {instr}"
            )

    # Non-void functions must return a value on every ret.
    if not isinstance(f.return_type, VoidType):
        for block in f.blocks:
            term = block.instructions[-1]
            if isinstance(term, Ret) and term.value is None:
                raise VerificationError(
                    f"{f.name}: ret without value in non-void function"
                )


def verify_debug_info(f: Function) -> None:
    """Debug-location invariants the static-analysis passes rely on.

    Every finding is anchored to a (file, line) resolved from IR debug
    info, so every lowered instruction must carry a usable location —
    the property the paper's authors had to add to Chapel's LLVM
    frontend (§IV.A), and the one the advisor cannot work without.
    """
    for block in f.blocks:
        for instr in block.instructions:
            loc = instr.loc
            if loc is None:
                raise VerificationError(
                    f"{f.name}: instruction [{instr.iid}] {instr.opname} "
                    f"has no debug location"
                )
            if not loc.filename or loc.line < 1:
                raise VerificationError(
                    f"{f.name}: instruction [{instr.iid}] {instr.opname} "
                    f"has a degenerate debug location {loc!s}"
                )
            if isinstance(instr, Alloca) and not instr.var_name:
                raise VerificationError(
                    f"{f.name}: alloca [{instr.iid}] binds no variable name"
                )


def verify_alloca_bindings(f: Function) -> None:
    """Alloca → source-variable bindings must be unambiguous.

    A source name may be declared in several sibling scopes (two loops
    each using ``k``), and ``param``-loop unrolling clones one
    declaration many times — but every alloca sharing a (name,
    location) pair must bind the *same* variable, so clones must agree
    on the stored type, and each formal has exactly one home cell.
    Anything else would make the advisor's variable anchoring (and the
    data-flow var_meta map) ambiguous.  Compiler temporaries are
    exempt: they are hidden from reports.
    """
    decl_type: dict[tuple[str, str], "object"] = {}
    formal_home_of: dict[str, Alloca] = {}
    for block in f.blocks:
        for instr in block.instructions:
            if not isinstance(instr, Alloca):
                continue
            if instr.formal_home is not None:
                prev_home = formal_home_of.get(instr.formal_home)
                if prev_home is not None and prev_home is not instr:
                    raise VerificationError(
                        f"{f.name}: formal {instr.formal_home!r} has two "
                        f"home allocas ([{prev_home.iid}] and "
                        f"[{instr.iid}])"
                    )
                formal_home_of[instr.formal_home] = instr
            if instr.is_temp:
                continue
            key = (instr.var_name, str(instr.loc))
            prev = decl_type.get(key)
            if prev is None:
                decl_type[key] = instr.alloc_type
            elif prev != instr.alloc_type:
                raise VerificationError(
                    f"{f.name}: variable {instr.var_name!r} at "
                    f"{instr.loc} bound with conflicting types "
                    f"({prev} vs {instr.alloc_type})"
                )


def verify_module(module: Module) -> None:
    """Verifies every function plus inter-function references."""
    functions = module.functions
    for f in functions.values():
        verify_function(f, module)
    for f in functions.values():
        for block in f.blocks:
            for instr in block.instructions:
                if not isinstance(instr, (Call, SpawnJoin)):
                    continue
                if isinstance(instr, Call):
                    if not instr.is_builtin and instr.callee not in functions:
                        raise VerificationError(
                            f"{f.name}: call to unknown function {instr.callee!r}"
                        )
                elif instr.outlined not in functions:
                    raise VerificationError(
                        f"{f.name}: spawn of unknown outlined function "
                        f"{instr.outlined!r}"
                    )


def verify_for_analysis(module: Module) -> None:
    """Full structural check plus the analysis-layer invariants.

    Run at advisor entry: the diagnostics engine refuses to produce
    findings over IR whose debug info it cannot trust.
    """
    verify_module(module)
    for f in module.functions.values():
        verify_debug_info(f)
        verify_alloca_bindings(f)

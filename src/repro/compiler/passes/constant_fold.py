"""Constant folding: evaluates BinOp/UnOp/Cast over constants.

Part of the --fast pipeline.  Folded instructions vanish (via DCE), so
the registers they defined — and any blame edges through them — are
gone from the IR, one ingredient of the paper's "--fast makes mapping
nearly impossible" observation.
"""

from __future__ import annotations

from ...chapel.arith import int_div, int_mod, real_mod
from ...chapel.types import BoolType, IntType, RealType
from ...ir import instructions as I
from ...ir.module import Module


def _fold_binop(op: str, a, b):
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                return None
            if isinstance(a, int) and isinstance(b, int):
                return int_div(a, b)
            return a / b
        if op == "%":
            if b == 0:
                return None
            if isinstance(a, int) and isinstance(b, int):
                return int_mod(a, b)
            return real_mod(a, b)
        if op == "**":
            return a**b
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "&&":
            return a and b
        if op == "||":
            return a or b
    except (OverflowError, ValueError):
        return None
    return None


def constant_fold(module: Module) -> bool:
    """Folds constant expressions throughout the module (to fixpoint:
    folding one instruction can make its users foldable)."""
    changed = False
    while _fold_once(module):
        changed = True
    return changed


def _fold_once(module: Module) -> bool:
    changed = False
    for fn in module.functions.values():
        replacements: dict[int, I.Constant] = {}
        for block in fn.blocks:
            for instr in block.instructions:
                if instr.result is None:
                    continue
                const: object | None = None
                if isinstance(instr, I.BinOp):
                    a, b = instr.lhs, instr.rhs
                    if isinstance(a, I.Constant) and isinstance(b, I.Constant):
                        const = _fold_binop(instr.op, a.value, b.value)
                elif isinstance(instr, I.UnOp):
                    v = instr.operand
                    if isinstance(v, I.Constant):
                        const = (not v.value) if instr.op == "!" else -v.value
                elif isinstance(instr, I.Cast):
                    v = instr.value
                    if isinstance(v, I.Constant):
                        ty = instr.result.type
                        if isinstance(ty, RealType):
                            const = float(v.value)
                        elif isinstance(ty, IntType):
                            const = int(v.value)
                if const is not None:
                    replacements[instr.result.rid] = I.Constant(
                        instr.result.type, const
                    )
        if not replacements:
            continue
        changed = True
        for block in fn.blocks:
            for instr in block.instructions:
                for op in list(instr.operands()):
                    if isinstance(op, I.Register) and op.rid in replacements:
                        instr.replace_operand(op, replacements[op.rid])
            # Drop the folded (pure) instructions so the fixpoint loop
            # terminates and DCE has less to do.
            block.instructions = [
                i
                for i in block.instructions
                if i.result is None or i.result.rid not in replacements
            ]
    return changed

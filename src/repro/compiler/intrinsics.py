"""Builtin (intrinsic) function registry for the mini-Chapel compiler.

Calls to these names lower to ``Call`` instructions with
``is_builtin=True``; the runtime's builtin table executes them.  The
signature policy is intentionally loose (numeric args auto-promote);
strict checking happens for arity and gross type mismatches only.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chapel.types import BOOL, INT, REAL, STRING, VOID, Type


@dataclass(frozen=True)
class Intrinsic:
    """Descriptor of one builtin."""

    name: str
    arity: int | None  # None = variadic
    return_type: Type
    #: True when numeric args are promoted to real before the call.
    numeric: bool = False


INTRINSICS: dict[str, Intrinsic] = {
    i.name: i
    for i in [
        # I/O
        Intrinsic("writeln", None, VOID),
        Intrinsic("write", None, VOID),
        # math
        Intrinsic("sqrt", 1, REAL, numeric=True),
        Intrinsic("cbrt", 1, REAL, numeric=True),
        Intrinsic("abs", 1, REAL, numeric=True),
        Intrinsic("exp", 1, REAL, numeric=True),
        Intrinsic("log", 1, REAL, numeric=True),
        Intrinsic("sin", 1, REAL, numeric=True),
        Intrinsic("cos", 1, REAL, numeric=True),
        Intrinsic("floor", 1, REAL, numeric=True),
        Intrinsic("ceil", 1, REAL, numeric=True),
        Intrinsic("min", 2, REAL, numeric=True),
        Intrinsic("max", 2, REAL, numeric=True),
        Intrinsic("fmod", 2, REAL, numeric=True),
        # conversions
        Intrinsic("toInt", 1, INT),
        Intrinsic("toReal", 1, REAL),
        # runtime queries / control
        Intrinsic("getCurrentTime", 0, REAL),
        Intrinsic("maxTaskPar", 0, INT),
        Intrinsic("halt", None, VOID),
        Intrinsic("assertTrue", None, VOID),
        # internal (emitted by the compiler, not user-callable)
        Intrinsic("_array_copy", 2, VOID),
        Intrinsic("_config_get_int", 2, INT),
        Intrinsic("_config_get_real", 2, REAL),
        Intrinsic("_config_get_bool", 2, BOOL),
    ]
}

#: min/max keep int type when both args are ints; handled in lowering.
POLYMORPHIC_NUMERIC = {"min", "max", "abs"}

#: Names the user may not call directly.
INTERNAL_ONLY = {"_array_copy", "_config_get_int", "_config_get_real", "_config_get_bool"}


def is_intrinsic(name: str) -> bool:
    return name in INTRINSICS

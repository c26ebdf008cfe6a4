"""Debug-info helpers: variable bindings and line tables.

The paper had to *add* debug-info generation to Chapel's LLVM frontend
(§IV.A); here the lowering emits it natively, and this module provides
the query side: given an instruction id, find its (file, line); given a
storage root, find the source variable it binds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chapel.tokens import SourceLocation
from ..chapel.types import Type
from .instructions import Alloca
from .module import Module


@dataclass(frozen=True)
class VariableInfo:
    """Debug record for one source (or temporary) variable."""

    name: str
    type: Type
    func: str | None  # None for globals ("main" context in paper tables)
    loc: SourceLocation
    is_temp: bool
    is_global: bool

    @property
    def context(self) -> str:
        """The paper's "Context" column: defining function, or main for
        module-level variables."""
        return self.func if self.func is not None else "main"


class LineTable:
    """iid → SourceLocation map for a module (the DWARF line table
    analogue that DyninstAPI queries in paper §IV.C)."""

    def __init__(self, module: Module) -> None:
        self._map: dict[int, SourceLocation] = {}
        self._func_of: dict[int, str] = {}
        for f, instr in module.all_instructions():
            self._map[instr.iid] = instr.loc
            self._func_of[instr.iid] = f.name
        self.module = module

    def resolve(self, iid: int) -> SourceLocation | None:
        return self._map.get(iid)

    def function_of(self, iid: int) -> str | None:
        return self._func_of.get(iid)


def collect_variables(module: Module) -> list[VariableInfo]:
    """All variable bindings in the module: globals + per-function allocas."""
    out: list[VariableInfo] = []
    for g in module.globals.values():
        out.append(
            VariableInfo(
                name=g.name,
                type=g.type,
                func=None,
                loc=g.loc,
                is_temp=g.is_temp,
                is_global=True,
            )
        )
    for f in module.functions.values():
        for instr in f.instructions():
            if isinstance(instr, Alloca):
                out.append(
                    VariableInfo(
                        name=instr.var_name,
                        type=instr.alloc_type,
                        func=f.source_name,
                        loc=instr.loc,
                        is_temp=instr.is_temp,
                        is_global=False,
                    )
                )
    return out

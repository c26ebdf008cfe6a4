"""Symbol tables and lexical scopes for the mini-Chapel frontend.

A :class:`Scope` chain models lexical scoping: a name is defined once
per scope and an inner definition hides an outer one.  The lowering
(:class:`~repro.compiler.lower.FunctionLowerer`) keeps these rules with
the chain flattened into one name map plus an undo frame per scope.  Each
:class:`Symbol` remembers whether it is a *global* (Chapel module-level
variable — the paper's ``main``-context variables like MiniMD's ``Pos``),
a formal parameter (with intent), or a local, because the blame
analysis classifies exit variables from exactly this information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import NameError_
from .tokens import SourceLocation
from .types import Type


@dataclass
class Symbol:
    """A named storage location visible in some scope."""

    name: str
    type: Type
    kind: str  # "var", "const", "param", "global", "formal", "index"
    loc: SourceLocation | None = None
    intent: str = "in"  # for formals: in/ref/out/inout/param
    is_config: bool = False
    #: IR-level storage id assigned during lowering (alloca or global slot).
    storage: object | None = None
    #: Compile-time constant value for `param` symbols.
    param_value: object | None = None

    @property
    def is_global(self) -> bool:
        return self.kind == "global"

    @property
    def is_ref_formal(self) -> bool:
        return self.kind == "formal" and self.intent in ("ref", "out", "inout")


@dataclass
class Scope:
    """One lexical scope; ``parent`` forms the resolution chain."""

    parent: "Scope | None" = None
    symbols: dict[str, Symbol] = field(default_factory=dict)

    def define(self, sym: Symbol) -> Symbol:
        if sym.name in self.symbols:
            raise NameError_(f"duplicate definition of {sym.name!r}", sym.loc)
        self.symbols[sym.name] = sym
        return sym

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            sym = scope.symbols.get(name)
            if sym is not None:
                return sym
            scope = scope.parent
        return None

    def resolve(self, name: str, loc: SourceLocation | None = None) -> Symbol:
        sym = self.lookup(name)
        if sym is None:
            raise NameError_(f"undefined identifier {name!r}", loc)
        return sym

    def child(self) -> "Scope":
        return Scope(parent=self)

    def iter_local(self) -> Iterator[Symbol]:
        """Symbols defined directly in this scope (not inherited)."""
        return iter(self.symbols.values())

"""Per-function and per-module static blame information (paper step 1).

:class:`ModuleBlameInfo` bundles everything the post-mortem stage needs:
per-function data flow, blame sets, exit variables and transfer
functions.  Building it is the "Static Analysis" box of paper Fig. 2 —
run once before execution, independent of any samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.module import Function, Module
from .dataflow import RET_KEY, DataFlow, Root, VarKey, VarMeta
from .exit_vars import ExitVars, compute_exit_vars
from .slices import BlameSets, compute_blame_sets
from .transfer import TransferFunction


@dataclass
class FunctionBlameInfo:
    """Static analysis results for one function."""

    function: Function
    dataflow: DataFlow
    blame_sets: BlameSets
    exit_vars: ExitVars
    transfer: TransferFunction

    def blamed_at(self, iid: int) -> frozenset[Root]:
        return self.blame_sets.blamed_at(iid)

    def meta(self, key: VarKey) -> VarMeta | None:
        m = self.dataflow.var_meta.get(key)
        if m is None and key.kind == "global":
            # Root arrived via a module-wide alias fact; the function
            # never references it directly. Synthesize from the module.
            g = self.dataflow.module.globals.get(str(key.ident))
            if g is not None:
                m = VarMeta(
                    key=key, name=g.name, type=g.type,
                    is_temp=g.is_temp, context="main",
                )
                self.dataflow.var_meta[key] = m
        return m


def compute_global_aliases(
    module: Module, options: "object | None" = None
) -> dict[VarKey, frozenset[Root]]:
    """Phase 1 of the static analysis: module-wide alias facts.

    A data-flow pass over every function collects which globals hold
    aliases of which (e.g. module init storing a slice of ``Pos`` into
    ``RealPos``), iterated so aliases of aliases converge.
    """
    from .options import FULL

    options = options or FULL
    global_aliases: dict[VarKey, frozenset[Root]] = {}
    for _round in range(3):
        merged: dict[VarKey, set[Root]] = {
            k: set(v) for k, v in global_aliases.items()
        }
        for fn in module.functions.values():
            df = DataFlow(fn, module, global_aliases=global_aliases, options=options)
            for key, roots in df.stored_roots.items():
                if key.kind == "global":
                    merged.setdefault(key, set()).update(
                        r for r in roots if r[0].kind == "global"
                    )
        new_aliases = {k: frozenset(v) for k, v in merged.items()}
        if new_aliases == global_aliases:
            break
        global_aliases = new_aliases
    return global_aliases


def analyze_function(
    fn: Function,
    module: Module,
    global_aliases: "dict[VarKey, frozenset[Root]]",
    options: "object | None" = None,
) -> FunctionBlameInfo:
    """Phase 2 for one function: the full per-function analyses with the
    module-wide alias facts visible.  Pure in the function's IR, the
    module context, the aliases and the options."""
    from .options import FULL

    options = options or FULL
    df = DataFlow(fn, module, global_aliases=global_aliases, options=options)
    return FunctionBlameInfo(
        function=fn,
        dataflow=df,
        blame_sets=compute_blame_sets(fn, df),
        exit_vars=compute_exit_vars(fn, df),
        transfer=TransferFunction(df),
    )


class ModuleBlameInfo:
    """Static blame info for every function in a module.

    Built in two phases: a first data-flow pass over every function
    collects *global alias facts* (e.g. module init storing a slice of
    ``Pos`` into ``RealPos``); a second pass re-runs the analyses with
    those facts seeded, so writes through an alias blame the base
    everywhere in the program (Chapel slice semantics, paper §V.A).
    """

    def __init__(self, module: Module, options: "object | None" = None) -> None:
        from .options import FULL

        self.module = module
        self.options = options or FULL
        self.functions: dict[str, FunctionBlameInfo] = {}

        # Phase 1 (see compute_global_aliases).
        self.global_aliases = compute_global_aliases(module, self.options)

        # Phase 2: full per-function analyses with aliases visible.
        for name, fn in module.functions.items():
            self.functions[name] = analyze_function(
                fn, module, self.global_aliases, self.options
            )

    def info_for(self, func_name: str) -> FunctionBlameInfo | None:
        return self.functions.get(func_name)

    def variable_lines_map(self, func_name: str) -> dict[str, set[int]]:
        """The paper's Table I artifact: variable name → set of source
        lines in its BlameSet (computed over this function's own
        instructions).  Temporaries are excluded, mirroring the GUI."""
        info = self.functions.get(func_name)
        if info is None:
            return {}
        line_of = {
            instr.iid: instr.loc.line for instr in info.function.instructions()
        }
        out: dict[str, set[int]] = {}
        for (key, path), iids in info.blame_sets.by_var.items():
            if path or key == RET_KEY:
                continue
            meta = info.dataflow.var_meta.get(key)
            if meta is None or meta.is_temp:
                continue
            lines = {line_of[i] for i in iids if i in line_of}
            if lines:
                out.setdefault(meta.name, set()).update(lines)
        return out

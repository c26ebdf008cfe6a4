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


class ModuleBlameInfo:
    """Static blame info for every function in a module.

    Built in two phases: a first data-flow pass over every function
    collects *global alias facts* (e.g. module init storing a slice of
    ``Pos`` into ``RealPos``); a second pass runs the analyses with
    those facts seeded, so writes through an alias blame the base
    everywhere in the program (Chapel slice semantics, paper §V.A).
    """

    def __init__(self, module: Module, options: "object | None" = None) -> None:
        from .options import FULL

        self.module = module
        self.options = options or FULL
        self.functions: dict[str, FunctionBlameInfo] = {}

        def flows(
            aliases: dict[VarKey, frozenset[Root]]
        ) -> dict[str, DataFlow]:
            return {
                name: DataFlow(
                    fn, module, global_aliases=aliases, options=self.options
                )
                for name, fn in module.functions.items()
            }

        # Phase 1: each round builds every function's DataFlow with the
        # alias facts so far and collects the global-to-global aliases
        # its stores establish, so aliases of aliases converge.
        aliases: dict[VarKey, frozenset[Root]] = {}
        for _round in range(3):
            round_flows = flows(aliases)
            merged: dict[VarKey, set[Root]] = {
                k: set(v) for k, v in aliases.items()
            }
            for df in round_flows.values():
                for key, roots in df.stored_roots.items():
                    if key.kind == "global":
                        merged.setdefault(key, set()).update(
                            r for r in roots if r[0].kind == "global"
                        )
            new_aliases = {k: frozenset(v) for k, v in merged.items()}
            if new_aliases == aliases:
                break  # this round's flows already saw the final facts
            aliases = new_aliases
        else:
            # Unconverged at the round cap: the last round's flows saw
            # the facts before its own additions.
            round_flows = flows(aliases)
        self.global_aliases = aliases

        # Phase 2: the per-function analyses over the final flows.
        for name, fn in module.functions.items():
            df = round_flows[name]
            self.functions[name] = FunctionBlameInfo(
                function=fn,
                dataflow=df,
                blame_sets=compute_blame_sets(fn, df),
                exit_vars=compute_exit_vars(fn, df),
                transfer=TransferFunction(df),
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

"""Shared, lazily-built substrate for the analysis passes.

Every pass needs some mix of CFGs, dominator trees, loop nests,
per-function data flow, and the call-graph loop-residency predicate.
:class:`AnalysisContext` builds each once per module and memoizes —
passes stay stateless and cheap to combine.

The data flow is *the blame pipeline's own*
(:class:`~repro.blame.static_info.ModuleBlameInfo`), aliases included:
the advisor sees the same storage roots the profiler attributes samples
to, so a finding's variables line up with blame-table rows by name.
Pass the profile's ``blame_info`` when one exists (``advise
--profile``); otherwise the context builds it on first use.
"""

from __future__ import annotations

from ..blame.dataflow import DataFlow
from ..blame.static_info import ModuleBlameInfo
from ..ir.cfg import CFG
from ..ir.dominators import DominatorTree, dominator_tree
from ..ir.loops import Loop, loop_depths, loop_resident_functions, natural_loops
from ..ir.module import BasicBlock, Function, Module


class AnalysisContext:
    """Per-module cache of everything the passes consume."""

    def __init__(
        self, module: Module, blame_info: ModuleBlameInfo | None = None
    ) -> None:
        self.module = module
        self._blame_info = blame_info
        self._cfgs: dict[str, CFG] = {}
        self._domtrees: dict[str, DominatorTree] = {}
        self._loops: dict[str, list[Loop]] = {}
        self._depths: dict[str, dict[BasicBlock, int]] = {}
        self._loop_resident: set[str] | None = None
        self._locality: "object | None" = None

    # -- substrate accessors ------------------------------------------------

    @property
    def blame_info(self) -> ModuleBlameInfo:
        if self._blame_info is None:
            self._blame_info = ModuleBlameInfo(self.module)
        return self._blame_info

    def dataflow(self, fn: Function | str) -> DataFlow:
        name = fn if isinstance(fn, str) else fn.name
        return self.blame_info.functions[name].dataflow

    def cfg(self, fn: Function) -> CFG:
        c = self._cfgs.get(fn.name)
        if c is None:
            c = self._cfgs[fn.name] = CFG(fn)
        return c

    def domtree(self, fn: Function) -> DominatorTree:
        t = self._domtrees.get(fn.name)
        if t is None:
            t = self._domtrees[fn.name] = dominator_tree(self.cfg(fn))
        return t

    def loops(self, fn: Function) -> list[Loop]:
        found = self._loops.get(fn.name)
        if found is None:
            found = self._loops[fn.name] = natural_loops(
                self.cfg(fn), self.domtree(fn)
            )
        return found

    def loop_depth_map(self, fn: Function) -> dict[BasicBlock, int]:
        d = self._depths.get(fn.name)
        if d is None:
            d = self._depths[fn.name] = loop_depths(self.cfg(fn), self.domtree(fn))
        return d

    @property
    def loop_resident(self) -> set[str]:
        """Functions that can execute inside some loop (incl. foralls)."""
        if self._loop_resident is None:
            depths_of = {
                name: self.loop_depth_map(f)
                for name, f in self.module.functions.items()
            }
            self._loop_resident = loop_resident_functions(self.module, depths_of)
        return self._loop_resident

    def locality(self):
        """Module-wide locality classification (lazy import keeps the
        context importable without the locality machinery)."""
        if self._locality is None:
            from .locality import LocalityAnalysis

            self._locality = LocalityAnalysis(self)
        return self._locality

    # -- convenience predicates --------------------------------------------

    def in_loop(self, fn: Function, block: BasicBlock) -> bool:
        return self.loop_depth_map(fn).get(block, 0) > 0

    def is_hot(self, fn: Function, block: BasicBlock) -> bool:
        """True when instructions in ``block`` can run more than once:
        the block sits in a loop, or the whole function is loop-resident."""
        return self.in_loop(fn, block) or fn.name in self.loop_resident

    def source_context(self, fn: Function) -> str:
        """User-facing context name: outlined parallel-loop bodies
        report the function their loop was written in (matching the
        blame report's bubbled contexts)."""
        if fn.outlined_from is not None:
            origin = self.module.get_function(fn.outlined_from)
            if origin is not None and origin.outlined_from is not None:
                return self.source_context(origin)
            return (
                origin.source_name if origin is not None else fn.outlined_from
            )
        return fn.source_name

    def user_functions(self) -> list[Function]:
        """Functions the advisor reports on (artificial ones excluded)."""
        return [
            f for f in self.module.functions.values() if not f.is_artificial
        ]

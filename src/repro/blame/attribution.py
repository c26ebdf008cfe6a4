"""Dynamic blame attribution: samples × static info → variable blame.

This is the heart of post-mortem step 3 (paper §IV.C): for each
consolidated sample we evaluate ``isBlamed`` in the leaf frame and then
"bubble the blame up as far as we need" through the call path using the
per-callsite transfer functions:

* variables blamed inside a frame are recorded in that frame's context
  ("For those that are not used as parameters, the blame can be
  assigned without transfer functions");
* blamed ``ref`` formals map to the caller's argument variables;
* a blamed return value (the ``$ret`` pseudo-variable) blames the
  caller's consumers of the call result;
* globals are recorded directly under the ``main`` context.

A sample may blame many variables (inclusive semantics): "the total
percentage assigned to all variables can possibly be more than 100%".
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..chapel.types import Type
from ..ir.module import Module
from .dataflow import RET_KEY, Root, VarKey, render_path
from .postmortem import Instance, count_paths
from .static_info import FunctionBlameInfo, ModuleBlameInfo


@dataclass
class VariableBlame:
    """Accumulated blame for one (context, variable[path]) row."""

    name: str
    context: str
    type: Type | None
    is_temp: bool
    samples: int = 0
    is_path: bool = False

    def percentage(self, total: int) -> float:
        return self.samples / total if total else 0.0


@dataclass
class AttributionResult:
    """Blame counts over one run's samples."""

    rows: dict[tuple[str, str], VariableBlame]
    total_samples: int  # denominator: user-code samples

    def sorted_rows(self, include_temps: bool = False) -> list[VariableBlame]:
        out = [
            r
            for r in self.rows.values()
            if include_temps or not r.is_temp
        ]
        out.sort(key=lambda r: (-r.samples, r.context, r.name))
        return out

    def blame_of(self, name: str, context: str | None = None) -> float:
        """Blame fraction of a variable by display name (optionally
        disambiguated by context)."""
        for (ctx, nm), row in self.rows.items():
            if nm == name and (context is None or ctx == context):
                return row.percentage(self.total_samples)
        return 0.0


def merge_attributions(parts: list[AttributionResult]) -> AttributionResult:
    """Combines attributions of consecutive parts of one stream (the
    adaptive driver's per-round deltas) by pure row summation.

    Blame combines by row-count addition (the paper's counts are sample
    tallies), so merging the parts in stream order — rows keyed by
    ``(context, name)``, samples summed, metadata from the first
    occurrence — reproduces a single attribution pass exactly: row
    *content* is identical, and every consumer orders rows through
    ``sorted_rows`` (a total order on the unique keys), so dict
    insertion order is immaterial.  Input rows are copied, never
    mutated, and an empty part merges as the identity.
    """
    rows: dict[tuple[str, str], VariableBlame] = {}
    total = 0
    for part in parts:
        total += part.total_samples
        for key, row in part.rows.items():
            merged = rows.get(key)
            if merged is None:
                rows[key] = VariableBlame(
                    name=row.name,
                    context=row.context,
                    type=row.type,
                    is_temp=row.is_temp,
                    samples=row.samples,
                    is_path=row.is_path,
                )
            else:
                merged.samples += row.samples
    return AttributionResult(rows=rows, total_samples=total)


def _user_context(module: Module, func_name: str) -> str:
    """Display context: outlined parallel-loop bodies report under the
    user function whose loop was outlined (chasing nested outlining)."""
    seen = set()
    name = func_name
    while name not in seen:
        seen.add(name)
        f = module.get_function(name)
        if f is None or f.outlined_from is None:
            break
        name = f.outlined_from
    f = module.get_function(name)
    if f is not None and f.is_artificial:
        return "main"
    return f.source_name if f is not None else name


class BlameAttributor:
    """Attributes a stream of instances against static blame info."""

    def __init__(self, static: ModuleBlameInfo) -> None:
        self.static = static
        self.module = static.module

    def attribute(self, instances: list[Instance]) -> AttributionResult:
        return self.attribute_paths(count_paths(instances), len(instances))

    def attribute_paths(
        self, paths: "Mapping[tuple[tuple[str, int], ...], int]", total: int
    ) -> AttributionResult:
        """Blame over ``total`` instances given as their per-path counts
        (:func:`~repro.blame.postmortem.count_paths`)."""
        rows: dict[tuple[str, str], VariableBlame] = {}

        # Attribution depends only on the call path: instances sharing a
        # frames tuple blame the same rows, so walk each distinct path
        # once, weighted by its multiplicity (hot loops produce the same
        # path thousands of times).  Paths keep first-seen order, so
        # rows are created in the same order as per-instance attribution.
        for frames, n in paths.items():
            self._attribute_one(frames, rows, set(), n)

        return AttributionResult(rows=rows, total_samples=total)

    # -- per call path ------------------------------------------------------

    def _attribute_one(
        self,
        frames: tuple[tuple[str, int], ...],
        rows: dict[tuple[str, str], VariableBlame],
        seen: set[tuple[str, str]],
        weight: int = 1,
    ) -> None:
        leaf_func, leaf_iid = frames[0]
        info = self.static.info_for(leaf_func)
        if info is None:
            return
        blamed: frozenset[Root] = info.blamed_at(leaf_iid)

        level = 0
        while True:
            self._record(info, blamed, rows, seen, weight)
            if not self.static.options.interprocedural:
                break  # ablation: leaf-frame attribution only
            if level + 1 >= len(frames):
                break
            # Bubble up through the call (or spawn) site. Paths within a
            # blamed formal travel along (they compose in map_up).
            exit_formals = frozenset(
                (key, path)
                for key, path in blamed
                if key.kind == "formal" and info.exit_vars.is_exit(key)
            )
            return_blamed = any(key == RET_KEY for key, _ in blamed)
            caller_func, callsite_iid = frames[level + 1]
            caller_info = self.static.info_for(caller_func)
            if caller_info is None:
                break
            tr = caller_info.transfer.map_up(
                callsite_iid, exit_formals, return_blamed
            )
            next_blamed: set[Root] = set(tr.caller_roots)
            if tr.any_exit_blamed:
                # Caller variables depending on this call site inherit
                # blame (return-value consumers, ref-arg dependents) —
                # but NOT the argument roots themselves: whether those
                # are blamed is exactly what the transfer function just
                # decided from the callee's exit variables.
                arg_map = caller_info.dataflow.call_arg_roots.get(
                    callsite_iid, {}
                )
                arg_keys = {
                    root[0] for roots in arg_map.values() for root in roots
                }
                next_blamed |= {
                    r
                    for r in caller_info.blamed_at(callsite_iid)
                    if r[0] not in arg_keys
                }
            blamed = frozenset(next_blamed)
            info = caller_info
            level += 1

    def _record(
        self,
        info: FunctionBlameInfo,
        blamed: frozenset[Root],
        rows: dict[tuple[str, str], VariableBlame],
        seen: set[tuple[str, str]],
        weight: int = 1,
    ) -> None:
        expanded: set[Root] = set()
        for key, path in blamed:
            # Every path prefix (including the bare root) is a
            # reportable row — Table IV lists partArray, ->partArray[i],
            # ->...zoneArray[j], ->...value, each with its own blame.
            for k in range(len(path) + 1):
                expanded.add((key, path[:k]))
        for key, path in expanded:
            if key == RET_KEY:
                continue
            meta = info.meta(key)
            if meta is None:
                continue
            if key.kind == "global":
                context = "main"
            else:
                context = _user_context(self.module, info.function.name)
            if path:
                display = "->" + meta.name + render_path(path)
            else:
                display = meta.name
            row_key = (context, display)
            if row_key in seen:
                continue
            seen.add(row_key)
            row = rows.get(row_key)
            if row is None:
                from .report import path_type

                row = VariableBlame(
                    name=display,
                    context=context,
                    type=meta.type if not path else path_type(meta.type, path),
                    is_temp=meta.is_temp,
                    is_path=bool(path),
                )
                rows[row_key] = row
            row.samples += weight

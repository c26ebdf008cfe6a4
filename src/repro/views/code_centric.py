"""Code-centric view — the GUI's second window (paper §IV.D).

"A traditional code-centric view that attributes samples to different
functions instead of variables.  Because we have all the context
sensitive samples, we can obtain this view with almost no overhead."

Unlike the pprof *baseline* (``repro.baselines.pprof``), this view works
on *consolidated* instances: worker stacks are glued, so outlined
parallel-loop frames merge into the user functions that spawned them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .tables import pct, render_table

if TYPE_CHECKING:
    from ..blame.postmortem import PostmortemResult
    from ..ir.module import Module


@dataclass
class FunctionProfile:
    """flat = samples with this function at the leaf; cumulative =
    samples with it anywhere on the (glued) stack."""

    name: str
    flat: int = 0
    cumulative: int = 0


def _display_name(module: Module, func: str) -> str:
    """Outlined frames display as the user function that spawned them."""
    seen = set()
    name = func
    while name not in seen:
        seen.add(name)
        f = module.get_function(name)
        if f is None or f.outlined_from is None:
            break
        name = f.outlined_from
    f = module.get_function(name)
    if f is not None and f.is_artificial:
        return "<module init>"
    return f.source_name if f is not None else name


def build_code_centric(
    module: Module, postmortem: PostmortemResult
) -> list[FunctionProfile]:
    """Flat and cumulative counts per display function.  Both depend
    only on an instance's call path, so each distinct path is walked
    once, weighted by its count, and each function's display name is
    resolved once."""
    profiles: dict[str, FunctionProfile] = {}
    names: dict[str, str] = {}

    def get(func: str) -> FunctionProfile:
        name = names.get(func)
        if name is None:
            name = names[func] = _display_name(module, func)
        p = profiles.get(name)
        if p is None:
            p = FunctionProfile(name)
            profiles[name] = p
        return p

    for frames, n in postmortem.path_counts().items():
        get(frames[0][0]).flat += n
        seen: set[str] = set()
        for func, _iid in frames:
            p = get(func)
            if p.name not in seen:
                seen.add(p.name)
                p.cumulative += n
    out = list(profiles.values())
    out.sort(key=lambda p: (-p.flat, -p.cumulative, p.name))
    return out


def render_code_centric(
    module: Module, postmortem: PostmortemResult, top: int | None = None
) -> str:
    profiles = build_code_centric(module, postmortem)
    total = postmortem.n_user or 1
    rows = []
    for p in profiles[: top or len(profiles)]:
        rows.append(
            [
                str(p.flat),
                pct(p.flat / total),
                str(p.cumulative),
                pct(p.cumulative / total),
                p.name,
            ]
        )
    return render_table(
        ["Flat", "Flat%", "Cum", "Cum%", "Function"],
        rows,
        title=f"Code-centric view ({total} user samples, stacks glued)",
        aligns=["r", "r", "r", "r", "l"],
    )

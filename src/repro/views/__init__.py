"""Data presentation (paper §IV.D): the GUI's three windows as text —
flat data-centric, code-centric, and the hybrid blame-points view."""

from .code_centric import FunctionProfile, build_code_centric, render_code_centric
from .data_centric import render_data_centric
from .html import render_html_report, write_html_report
from .hybrid import BlamePoint, build_blame_points, render_hybrid
from .tables import pct, render_table

__all__ = [
    "BlamePoint",
    "FunctionProfile",
    "VIEWS",
    "build_blame_points",
    "build_code_centric",
    "pct",
    "print_views",
    "render_code_centric",
    "render_data_centric",
    "render_html_report",
    "write_html_report",
    "render_hybrid",
    "render_stage",
    "render_table",
]

#: Views render_stage knows how to produce.
VIEWS = ("data", "code", "hybrid", "html")


def render_stage(profile, view: str = "data", top: int = 20, findings=None) -> str:
    """Pipeline step 4b — one view's text from anything profile-shaped.

    ``profile`` needs ``report``, ``module`` (anything answering
    ``get_function``) and ``postmortem`` — satisfied by a live
    :class:`~repro.tooling.profiler.ProfileResult` *and* by a
    :class:`~repro.artifact.model.ProfileSnapshot` loaded from disk,
    which is the artifact round-trip's byte-identity seam: both paths
    funnel through this one function.

    An adaptive run's decision trail (``profile.adaptive`` — a live
    :class:`~repro.sampling.adaptive.AdaptiveTrail` or the artifact's
    decoded dict) is normalized to its dict form here, so live and
    replayed renders draw the footer from the identical payload.
    """
    adaptive = getattr(profile, "adaptive", None)
    if adaptive is not None and hasattr(adaptive, "as_dict"):
        adaptive = adaptive.as_dict()
    if view == "data":
        return render_data_centric(profile.report, top=top, adaptive=adaptive)
    if view == "code":
        return render_code_centric(profile.module, profile.postmortem, top=top)
    if view == "hybrid":
        return render_hybrid(profile.report, findings=findings, adaptive=adaptive)
    if view == "html":
        return render_html_report(profile, top=top)
    raise ValueError(f"unknown view {view!r} (want one of {'|'.join(VIEWS)})")


def print_views(profile, view: str, top: int) -> None:
    """Prints ``view`` (one window, or ``all``) of ``profile``: the one
    presentation path of ``repro-profile profile|view|merge`` and
    ``repro-analyze``, which is what keeps artifact renders
    byte-identical to live ones."""
    for name in ("data", "code", "hybrid"):
        if view in (name, "all"):
            print(render_stage(profile, name, top=top))
            print()

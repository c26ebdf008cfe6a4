"""Analysis-pass manager: registry, ordering, and the advisor entry point.

Passes are small stateless objects with a ``run(ctx)`` method returning
:class:`~repro.analysis.diagnostics.Finding` records.  The manager
verifies the module first (:func:`repro.ir.verifier.verify_for_analysis`
— the diagnostics engine refuses IR whose debug info it cannot trust),
then runs the requested passes over a shared :class:`AnalysisContext`.
"""

from __future__ import annotations

from ..blame.static_info import ModuleBlameInfo
from ..errors import AnalysisError
from ..ir.module import Module
from ..ir.verifier import verify_for_analysis
from .context import AnalysisContext
from .diagnostics import Finding, sort_key


class AnalysisPass:
    """Base class: subclasses set ``name`` and implement ``run``."""

    #: Stable pass name (used for --rules selection; defaults to the
    #: rule id the pass emits).
    name: str = "pass"
    description: str = ""

    def run(self, ctx: AnalysisContext) -> list[Finding]:
        raise NotImplementedError(self.name)


#: name → pass class.  Populated by :func:`register_pass`; the advisor
#: modules register themselves on import.
PASS_REGISTRY: dict[str, type[AnalysisPass]] = {}


def register_pass(cls: type[AnalysisPass]) -> type[AnalysisPass]:
    existing = PASS_REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise AnalysisError(
            f"analysis pass name {cls.name!r} already registered by "
            f"{existing.__module__}.{existing.__qualname__}"
        )
    PASS_REGISTRY[cls.name] = cls
    return cls


def default_passes() -> list[AnalysisPass]:
    """One instance of every registered pass, in registration order
    (advisor passes first, race detector last — its findings are the
    severe ones and sorting puts them on top anyway)."""
    _ensure_registered()
    return [cls() for cls in PASS_REGISTRY.values()]


def _ensure_registered() -> None:
    # Importing the pass modules populates PASS_REGISTRY.
    from . import advisor as _advisor  # noqa: F401
    from . import comm_advisor as _comm_advisor  # noqa: F401
    from . import races as _races  # noqa: F401


def resolve_passes(names: list[str] | None) -> list[AnalysisPass]:
    if names is None:
        return default_passes()
    _ensure_registered()
    out: list[AnalysisPass] = []
    for name in names:
        cls = PASS_REGISTRY.get(name)
        if cls is None:
            known = ", ".join(sorted(PASS_REGISTRY))
            raise KeyError(f"unknown analysis pass {name!r} (known: {known})")
        out.append(cls())
    return out


def analyze_module(
    module: Module,
    passes: list[str] | None = None,
    blame_info: ModuleBlameInfo | None = None,
    verify: bool = True,
) -> list[Finding]:
    """Runs the analysis suite over a compiled module.

    ``passes`` selects rules by name (None = all).  ``blame_info`` is
    the module's static blame analysis when the caller already has one
    (a profile's ``static_info``); None builds it.  ``verify`` runs the
    structural + debug-info verifier first; disable only for tests that
    deliberately construct partial IR.
    """
    if verify:
        verify_for_analysis(module)
    ctx = AnalysisContext(module, blame_info=blame_info)
    findings: list[Finding] = []
    for p in resolve_passes(passes):
        findings.extend(p.run(ctx))
    return sorted(findings, key=sort_key)

"""In-memory form of the ``.cbp`` profile artifact.

A :class:`ProfileSnapshot` holds everything the presentation layer
consumes — the blame report, the consolidated instances, a function
catalog standing in for the IR module, degradation provenance, and run
metadata — with no reference to the interpreter, monitor, or IR that
produced it.  The render functions in :mod:`repro.views` accept it
anywhere they accept a live :class:`~repro.tooling.profiler.ProfileResult`
(it exposes the same ``report`` / ``module`` / ``postmortem``
attributes), which is what makes artifact-rendered views byte-identical
to live ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import tool_version
from ..blame.postmortem import PostmortemResult
from ..blame.report import BlameReport


@dataclass(frozen=True)
class CatalogFunction:
    """The slice of :class:`repro.ir.module.Function` the views consult."""

    name: str
    source_name: str
    outlined_from: str | None = None
    is_artificial: bool = False


class FunctionCatalog:
    """Module-shaped lookup for display-name resolution.

    The code-centric view (and the attribution display logic before it)
    only ever asks a module three questions about a function: its
    user-visible ``source_name``, which function it was ``outlined_from``,
    and whether it ``is_artificial``.  The catalog answers those without
    the IR, so a loaded artifact renders the same views a live module
    does.
    """

    def __init__(self, functions: "list[CatalogFunction] | tuple[CatalogFunction, ...]" = ()) -> None:
        self._functions: dict[str, CatalogFunction] = {f.name: f for f in functions}

    @classmethod
    def from_module(cls, module) -> "FunctionCatalog":
        return cls(
            [
                CatalogFunction(
                    name=f.name,
                    source_name=f.source_name,
                    outlined_from=f.outlined_from,
                    is_artificial=f.is_artificial,
                )
                for f in module.functions.values()
            ]
        )

    def get_function(self, name: str) -> CatalogFunction | None:
        return self._functions.get(name)

    def entries(self) -> list[CatalogFunction]:
        """Deterministic (name-sorted) listing for serialization."""
        return sorted(self._functions.values(), key=lambda f: f.name)

    def union(self, other: "FunctionCatalog") -> "FunctionCatalog":
        """Merged catalog; on a name collision the first entry wins
        (per-locale artifacts of one program have identical catalogs)."""
        merged = dict(other._functions)
        merged.update(self._functions)
        return FunctionCatalog(list(merged.values()))

    def __len__(self) -> int:
        return len(self._functions)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionCatalog)
            and self._functions == other._functions
        )


@dataclass(frozen=True)
class ArtifactMeta:
    """Run identity and configuration recorded in the artifact header."""

    program: str
    source_sha256: str | None = None
    threshold: int = 0
    num_threads: int = 0
    locale_id: int = 0
    kind: str = "profile"  # "profile" | "merged"
    created_by: str = ""


@dataclass
class ProfileSnapshot:
    """One profiled run (or merge of runs), detached from its producer."""

    meta: ArtifactMeta
    report: BlameReport
    catalog: FunctionCatalog
    #: The post-mortem outcome, as a live run, the decoder or a merge
    #: built it.  The artifact persists consolidated instances, not raw
    #: samples (those belong to the ``--save-samples`` journal).
    postmortem: PostmortemResult
    #: Injection summary when the run was deliberately degraded
    #: (:meth:`repro.resilience.inject.InjectionStats.as_dict` form).
    fault_stats: dict | None = None
    #: Adaptive-stopping decision trail when the run used
    #: confidence-driven collection
    #: (:meth:`repro.sampling.adaptive.AdaptiveTrail.as_dict` form).
    #: Persisted as the optional ``a`` record; readers that predate it
    #: ignore the record (forward-minor tolerance).
    adaptive: dict | None = None

    @property
    def module(self) -> FunctionCatalog:
        """Alias so the snapshot satisfies the ``result.module`` shape
        the HTML renderer and code-centric view expect."""
        return self.catalog

    @property
    def wall_seconds(self) -> float:
        return self.report.stats.wall_seconds



def canonicalize_timings(snapshot: ProfileSnapshot) -> ProfileSnapshot:
    """Returns the snapshot with host-measured timings zeroed.

    ``postmortem_seconds`` is wall-clock measured on the profiling host
    (unlike ``wall_seconds``, which is simulated and deterministic), so
    two otherwise-identical runs differ in exactly that one stats field.
    Zeroing it makes the serialized artifact a pure function of the run
    — the property any byte-compare of artifacts across repeat runs
    relies on.  No view
    displays the field, so rendered output is unaffected.  The input
    snapshot is not mutated.
    """
    stats = snapshot.report.stats
    if stats.postmortem_seconds == 0.0:
        return snapshot
    report = replace(
        snapshot.report, stats=replace(stats, postmortem_seconds=0.0)
    )
    return replace(snapshot, report=report)


def snapshot_from_result(
    result,
    source_sha256: str | None = None,
    threshold: int | None = None,
    num_threads: int | None = None,
    locale_id: int | None = None,
    canonical_timings: bool = False,
) -> ProfileSnapshot:
    """Builds the artifact model from a live
    :class:`~repro.tooling.profiler.ProfileResult`.

    The snapshot *references* the result's report (it does not copy it),
    so rendering from the snapshot is rendering from the identical
    object — the cheap end of the byte-identity guarantee.  Pass
    ``canonical_timings=True`` to zero the host-measured
    ``postmortem_seconds`` (in a copied report) so the serialized bytes
    are reproducible across runs; see :func:`canonicalize_timings`.
    """
    monitor = result.monitor
    if threshold is None and monitor is not None:
        threshold = monitor.pmu.threshold
    if num_threads is None:
        num_threads = getattr(result.interpreter, "num_threads", 0) or 0
    meta = ArtifactMeta(
        program=result.report.program,
        source_sha256=source_sha256,
        threshold=threshold or 0,
        num_threads=num_threads,
        locale_id=result.report.locale_id if locale_id is None else locale_id,
        kind="profile",
        created_by=f"repro {tool_version()}",
    )
    fault_stats = None
    if result.fault_stats is not None:
        fault_stats = (
            result.fault_stats.as_dict()
            if hasattr(result.fault_stats, "as_dict")
            else dict(result.fault_stats)
        )
    adaptive = getattr(result, "adaptive", None)
    if adaptive is not None and hasattr(adaptive, "as_dict"):
        adaptive = adaptive.as_dict()
    snapshot = ProfileSnapshot(
        meta=meta,
        report=result.report,
        catalog=FunctionCatalog.from_module(result.module),
        postmortem=result.postmortem,
        fault_stats=fault_stats,
        adaptive=adaptive,
    )
    return canonicalize_timings(snapshot) if canonical_timings else snapshot

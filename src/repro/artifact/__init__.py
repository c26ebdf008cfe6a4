"""Versioned, self-describing profile artifact (``.cbp``).

The artifact is the contract between collection and presentation in the
staged pipeline (compile → static blame analysis → collect →
post-mortem → aggregate → render): ``repro profile`` writes one,
``repro view`` / ``merge`` / ``diff`` consume them, and every view
rendered from a loaded artifact is byte-identical to the view rendered
live from the run that produced it.

* :mod:`~repro.artifact.model` — the in-memory form
  (:class:`ProfileSnapshot`): report + consolidated instances + the
  function catalog the views need, detached from the interpreter.
* :mod:`~repro.artifact.format` — on-disk layout: CRC-framed records
  (shared with the sample journal), interned string/stack tables, and
  columnar instance/row sections.  Truncation and bit flips raise the
  typed :class:`~repro.errors.ArtifactError`.
* :mod:`~repro.artifact.merge` — cross-locale / cross-run merging
  (what :mod:`repro.tooling.multilocale` aggregates with).
* :mod:`~repro.artifact.diff` — blame-shift tables between two
  artifacts (the paper's Table VIII workflow).
"""

from .diff import DiffRow, diff_reports, diff_snapshots, render_blame_diff
from .format import (
    CBP_MAGIC,
    CBP_VERSION,
    artifact_bytes,
    read_artifact,
    write_artifact,
)
from .merge import merge_snapshots
from .model import (
    ArtifactMeta,
    CatalogFunction,
    FunctionCatalog,
    ProfileSnapshot,
    canonicalize_timings,
    snapshot_from_result,
)

__all__ = [
    "ArtifactMeta",
    "CBP_MAGIC",
    "CBP_VERSION",
    "CatalogFunction",
    "DiffRow",
    "FunctionCatalog",
    "ProfileSnapshot",
    "artifact_bytes",
    "canonicalize_timings",
    "diff_reports",
    "diff_snapshots",
    "merge_snapshots",
    "read_artifact",
    "render_blame_diff",
    "snapshot_from_result",
    "write_artifact",
]

"""Typed exception hierarchy for the whole pipeline.

Every error the tool raises on purpose derives from :class:`ReproError`
so callers (the CLIs, CI gates) can separate "the measurement stack
degraded" from genuine programming errors.  The profiled program's own
faults are not among them: the frontend raises
:class:`~repro.chapel.errors.ChapelError` and the runtime
:class:`~repro.runtime.interpreter.ExecutionError`, each located at a
``FILE:LINE:COL``.

Several classes also subclass :class:`ValueError` because earlier
versions raised bare ``ValueError`` at the same sites — existing
``except ValueError`` callers keep working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised deliberately by the tool."""


class AnalysisError(ReproError, ValueError):
    """The static-analysis layer was misconfigured (e.g. two passes
    registered under the same name)."""


class AggregationError(ReproError, ValueError):
    """Cross-locale aggregation failed (no mergeable reports, bad
    locale count)."""


class SampleFormatError(ReproError, ValueError):
    """A sample record or dataset header is malformed or has an
    unsupported version."""


class DebugInfoError(ReproError):
    """An address could not be resolved against the debug info (strict
    resolution only — the tolerant pipeline buckets these instead)."""


class DatasetCorruptError(ReproError):
    """A journaled dataset failed checksum validation beyond its
    recoverable prefix (corrupt header, or strict-mode tail damage)."""


class ArtifactError(ReproError, ValueError):
    """A ``.cbp`` profile artifact is unreadable: bad magic, checksum
    mismatch (bit flip), truncation (missing footer), or a structurally
    invalid section."""


class ArtifactVersionError(ArtifactError):
    """The artifact's format version is not supported by this reader
    (the header is intact — the file comes from a different tool
    generation, not from corruption)."""


"""Blame report structures — what the presentation layer consumes.

A :class:`BlameReport` is the paper's final per-run artifact: ranked
variable rows (name, type, blame percentage, context — the columns of
Tables II/IV/VI), plus run statistics for the overhead discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..chapel.types import Type
    from .attribution import AttributionResult
    from .dataflow import Path


def path_type(root_type: Type | None, path: Path) -> Type | None:
    """Static type at the end of a field path (Table IV's Type column
    for ``->`` rows)."""
    from ..chapel.types import ArrayType, RecordType, TupleType

    t = root_type
    for elem in path:
        if t is None:
            return None
        if elem[0] == "index":
            if isinstance(t, ArrayType):
                t = t.elem
            elif isinstance(t, TupleType):
                t = t.elems[0] if t.elems else None
            else:
                return None
        else:  # field / cfield
            if isinstance(t, RecordType):
                t = t.field_type(elem[1])
            else:
                return None
    return t


@dataclass(frozen=True)
class BlameRow:
    """One display row of the data-centric view."""

    name: str
    type_str: str
    blame: float  # fraction of user samples
    context: str
    samples: int
    is_path: bool

    @property
    def percent(self) -> float:
        return 100.0 * self.blame


@dataclass
class RunStats:
    """Run-level statistics for the report header / overhead bench."""

    total_raw_samples: int = 0
    user_samples: int = 0
    runtime_samples: int = 0
    wall_seconds: float = 0.0
    dataset_bytes: int = 0
    stackwalk_cycles: float = 0.0
    postmortem_seconds: float = 0.0
    #: Degradation accounting (all zero on a clean run).
    unknown_samples: int = 0
    quarantined_samples: int = 0
    recovered_samples: int = 0

    @property
    def quarantine_rate(self) -> float:
        """``quarantined_samples / (total_raw_samples +
        quarantined_samples)``: the rate ``--fail-on-quarantine-rate``
        gates and the stability sweep reports."""
        total = self.total_raw_samples + self.quarantined_samples
        return self.quarantined_samples / total if total else 0.0


#: Display name/context of the unattributable-cycles bucket.
UNKNOWN_BUCKET = "<unknown>"


@dataclass
class BlameReport:
    """Final data-centric profile of one run (one locale)."""

    program: str
    rows: list[BlameRow]
    stats: RunStats
    locale_id: int = 0
    #: Unattributable samples by provenance reason (tolerant pipeline).
    unknown_by_reason: dict[str, int] = field(default_factory=dict)
    #: Ingest/postmortem rejections by reason.
    quarantine_by_reason: dict[str, int] = field(default_factory=dict)
    #: Locales absent from a merged report (they produced no shard).
    missing_locales: tuple[int, ...] = ()

    def top(self, n: int = 10) -> list[BlameRow]:
        return self.rows[:n]

    def blame_of(self, name: str, context: str | None = None) -> float:
        for row in self.rows:
            if row.name == name and (context is None or row.context == context):
                return row.blame
        return 0.0

    def row_for(self, name: str) -> BlameRow | None:
        for row in self.rows:
            if row.name == name:
                return row
        return None


def build_rows(
    attribution: AttributionResult,
    min_blame: float = 0.0,
    include_temps: bool = False,
    unknown_samples: int = 0,
) -> list[BlameRow]:
    """Converts attribution counts into ranked display rows.

    ``unknown_samples`` (degraded runs only) joins the denominator so
    blame percentages stay honest — the attributed rows shrink by
    exactly the share the ``<unknown>`` bucket row claims, keeping the
    flat view's accounting at 100 % of user-code cycles.
    """
    total = attribution.total_samples + unknown_samples
    rows: list[BlameRow] = []
    for vb in attribution.sorted_rows(include_temps=include_temps):
        frac = vb.percentage(total)
        if frac < min_blame:
            continue
        rows.append(
            BlameRow(
                name=vb.name,
                type_str=str(vb.type) if vb.type is not None else "",
                blame=frac,
                context=vb.context,
                samples=vb.samples,
                is_path=vb.is_path,
            )
        )
    if unknown_samples > 0:
        rows.append(
            BlameRow(
                name=UNKNOWN_BUCKET,
                type_str="",
                blame=unknown_samples / total if total else 0.0,
                context=UNKNOWN_BUCKET,
                samples=unknown_samples,
                is_path=False,
            )
        )
        rows.sort(key=lambda r: (-r.samples, r.context, r.name))
    return rows
